"""Shared fixtures: hand-built micro datasets and cached synthetic populations."""

from __future__ import annotations

import dataclasses
import datetime
import time

import numpy as np
import pytest

from smiscreen.cohort import Cohort, ObservationWindow, build_all_age_cohort
from smiscreen.datamodel import ClinicalEvent, CodeTable, Dataset, Person, Persons, _check_events, _Events
from smiscreen.phecode import load_default_map
from smiscreen.pipeline import SplitFractions, split_cohort
from smiscreen.synth import SynthConfig, code_pools, generate_population


def d(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


def make_person(
    pid: str,
    birth_year: int = 1980,
    gender: str = "F",
    start: str = "2010-01-01",
    end: str = "2015-12-31",
    source: str = "CLAIMS",
) -> Person:
    return Person(pid, birth_year, gender, d(start), d(end), source)


def make_event(
    pid: str, date: str, kind: str = "DX", system: str = "ICD10", code: str = "F32.9"
) -> ClinicalEvent:
    return ClinicalEvent(pid, d(date), kind, system, code)


def make_dataset(persons, events, source: str = "CLAIMS") -> Dataset:
    return Dataset.from_events(list(persons), list(events), source)


def rebuild_from_columns(dataset: Dataset) -> Dataset:
    """A fresh dataset from `dataset`'s own columns, checked again in full,
    since the constructor checks neither persons nor events: each person by
    `Persons.of`, each code by `CodeTable` and each event by the event rule
    table, as event views are."""
    persons = Persons.of(dataset.persons)
    codes = CodeTable(dataset.codes.entries)
    pos = {pid: i for i, pid in enumerate(persons.ids)}
    person_pos = np.repeat([pos[pid] for pid in dataset.ids], np.diff(dataset.offsets))
    _check_events(_Events(persons, person_pos, dataset.day, dataset.code), lambda i: dataset.events[i])
    return Dataset(persons, dataset.source, person_pos, dataset.day, dataset.code, codes)


def events_in_window(
    dataset: Dataset, person_id: str, start: datetime.date, end: datetime.date
) -> list[ClinicalEvent]:
    """The events of `person_id` dated within [start, end], inclusive both
    ends, found by `Dataset.window_events`."""
    row = dataset.row_of.get(person_id)
    if row is None:
        return []
    pos, _ = dataset.window_events(np.array([row]), start.toordinal(), end.toordinal())
    events = dataset.events_for(person_id)
    return [events[i] for i in (pos - dataset.offsets[row]).tolist()]


def shared_feature_codes(cfg: SynthConfig) -> set[str]:
    """Namespaced feature codes common to both sources under this vocab."""
    pools = code_pools(cfg)
    out = {f"dx:{system}:{code}" for system, code in pools.dx_shared}
    out.update(f"rx:NDC:{code}" for code in pools.rx)
    return out


@pytest.fixture(scope="session")
def phemap():
    return load_default_map()


@pytest.fixture(scope="session")
def pop5k():
    """Mid-size CLAIMS population for module-level statistical checks."""
    cfg = SynthConfig.default("CLAIMS", 5000, seed=42)
    return generate_population(cfg)


@pytest.fixture(scope="session")
def pop50k():
    """The acceptance-scale population (50k persons, seed 42); generation
    wall time is recorded for the runtime-budget criteria."""
    cfg = SynthConfig.default("CLAIMS", 50000, seed=42)
    t0 = time.perf_counter()
    dataset, truth = generate_population(cfg)
    elapsed = time.perf_counter() - t0
    return dataset, truth, elapsed


@pytest.fixture(scope="session")
def pop5k_splits(pop5k, phemap):
    """The 5k population's all-age cohort as TRAIN/VAL/TEST splits. Each
    split ends with two extra examples for its first person: one whose
    window ends the day before enrollment (so it holds no event), and one
    whose window is a year before the cohort window (the person twice)."""
    dataset, _ = pop5k
    cohort, _ = build_all_age_cohort(dataset, phemap, seed=42)
    splits = split_cohort(cohort, SplitFractions(), seed=42).split_examples(cohort)
    year = datetime.timedelta(days=365)
    out = {}
    for name, split in splits.items():
        examples = list(split)
        ex = examples[0]
        before = dataset.persons_by_id[ex.person_id].enroll_start - datetime.timedelta(days=1)
        for start, end in ((before - year, before), (ex.window.start - year, ex.window.end - year)):
            examples.append(dataclasses.replace(ex, window=ObservationWindow(start, end)))
        out[name] = Cohort.of(examples, dataset)
    return out
