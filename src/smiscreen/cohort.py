"""Case-control cohort construction with temporal-bias guards.

Cases are persons with at least one SMI-mapped diagnosis; their features
come from a 12-month observation window that ends a randomized gap of
14..365 days before first onset, so the model cannot key on the immediate
run-up to diagnosis. Controls are SMI-free persons matched on birth year,
gender, and prior diagnosis count, and inherit the case's exact window.

Two further cohorts cover the fine-tuning scenarios: risk at the 18th
birthday and risk after a first substance-related diagnosis. Persons in
those cohorts are kept out of the all-age cohort.

A cohort is one `Cohort` of int64 columns (dataset rows and date ordinals),
built from per-row arrays and read as columns by the splits, features,
benchmarks and cohort.csv. `CohortExample` is only a row view; `Cohort.of`
builds a cohort from views assembled by hand.
"""

from __future__ import annotations

import datetime
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import rng as rngmod
from .datamodel import GENDERS, Dataset, distinct, write_table
from .dates import add_months, days_from_civil, iso_text, window_start_for_end
from .errors import DataError, DegenerateCohortError
from .phecode import TAG_SMI, TAG_SUBSTANCE, PhecodeMap, code_tags

GAP_MIN_DAYS = 14
GAP_MAX_DAYS = 365

ALL_AGE = "ALL_AGE"
AGE18 = "AGE18"
SUBSTANCE = "SUBSTANCE"
COHORT_KINDS = (ALL_AGE, AGE18, SUBSTANCE)


@dataclass(frozen=True, slots=True)
class ObservationWindow:
    start: datetime.date
    end: datetime.date
    gap_days: int | None = None  # cases in the all-age cohort only


@dataclass(frozen=True, slots=True)
class CohortExample:
    person_id: str
    label: int
    window: ObservationWindow
    match_group: str
    cohort_kind: str
    index_date: datetime.date | None


@dataclass(frozen=True, eq=False)
class Cohort:
    """A cohort of one kind as columns, an entry per example: its dataset
    row, its 0/1 label, the first and last day of its window (date
    ordinals), the case's gap in days, the row of its match group's case
    and its index day; `gap` and `index_day` hold -1 where absent. `ids`
    is the dataset's person ids by row. An int index (so iteration) gives
    `CohortExample` views; a mask, an index array or a slice gives a
    sub-cohort."""

    kind: str
    ids: list[str]
    row: np.ndarray
    label: np.ndarray
    start: np.ndarray
    end: np.ndarray
    gap: np.ndarray
    group: np.ndarray
    index_day: np.ndarray

    def __len__(self) -> int:
        return self.row.size

    def __getitem__(self, i) -> "CohortExample | Cohort":
        if not isinstance(i, (int, np.integer)):
            return replace(self, **{name: getattr(self, name)[i] for name in _COLUMNS})
        row, label, start, end, gap, group, index_day = (int(getattr(self, name)[i]) for name in _COLUMNS)
        day = datetime.date.fromordinal
        window = ObservationWindow(day(start), day(end), None if gap < 0 else gap)
        index_date = None if index_day < 0 else day(index_day)
        return CohortExample(self.ids[row], label, window, self.ids[group], self.kind, index_date)

    @classmethod
    def of(cls, examples: Sequence[CohortExample], d: Dataset) -> "Cohort":
        """The cohort of `examples`, all of one kind (ALL_AGE when there
        are none), on the rows of `d`; an example of an unknown person or
        match group is a DataError."""
        try:
            columns = [
                (d.row_of[ex.person_id], ex.label, ex.window.start.toordinal(), ex.window.end.toordinal(),
                 -1 if ex.window.gap_days is None else ex.window.gap_days, d.row_of[ex.match_group],
                 -1 if ex.index_date is None else ex.index_date.toordinal())
                for ex in examples
            ]
        except KeyError as exc:
            raise DataError(f"unknown person_id {exc.args[0]!r}") from None
        kind = examples[0].cohort_kind if examples else ALL_AGE
        return cls(kind, d.ids, *np.array(columns, dtype=np.int64).reshape(-1, len(_COLUMNS)).T)


_COLUMNS = tuple(f.name for f in fields(Cohort))[2:]


@dataclass(frozen=True, slots=True)
class CohortBuildStats:
    """Counts of the all-age filter steps that the examples cannot show,
    each named as its manifest.json counts key: SMI cases found, then those
    excluded as use-case cohort members, those whose window does not fit,
    and those matched to no control. All zero for AGE18 and SUBSTANCE."""

    cases_found: int = 0
    cases_excluded_use_case: int = 0
    case_windows_dropped: int = 0
    cases_without_controls: int = 0


def first_days(d: Dataset, m: PhecodeMap, bit: int) -> np.ndarray:
    """Each dataset row's first date ordinal with an event tagged `bit`, or -1."""
    rows, pos = d.first_events((code_tags(m, d.codes.entries) & bit) != 0)
    days = np.full(len(d.ids), -1, dtype=np.int64)
    days[rows] = d.day[pos]
    return days


def find_cases(d: Dataset, m: PhecodeMap) -> list[tuple[str, datetime.date]]:
    """All persons with an SMI-mapped diagnosis, with their first onset date."""
    onset = first_days(d, m, TAG_SMI)
    rows = np.flatnonzero(onset >= 0)
    return [(d.ids[r], datetime.date.fromordinal(day)) for r, day in zip(rows.tolist(), onset[rows].tolist())]


def gap_stream(seed: int, person_id: str) -> np.random.Generator:
    return rngmod.stream(seed, "gap", person_id)


def sample_gap(rng: np.random.Generator) -> int:
    """Uniform gap length in days, both bounds inclusive."""
    return int(rng.integers(GAP_MIN_DAYS, GAP_MAX_DAYS + 1))


def build_case_windows(d: Dataset, onset: np.ndarray, seed: int) -> tuple[Cohort, int]:
    """The cases of `onset` (each row's first SMI day, -1 for none), with
    gap-shifted 12-month windows; drop cases that do not fit.

    window.end = onset - gap; window.start = end - 12 months + 1 day.
    Cases whose window leaves enrollment or the calendar are dropped (second
    return value counts them), keeping feature windows uniformly 12 months long.
    """
    rows = np.flatnonzero(onset >= 0)
    gap = np.array([sample_gap(gap_stream(seed, d.ids[row])) for row in rows.tolist()], dtype=np.int64)
    end = onset[rows] - gap
    start = window_start_for_end(end)
    fits = (start >= d.enroll_start[rows]) & (end <= d.enroll_end[rows])  # -1, off the calendar, fails
    cases = Cohort(ALL_AGE, d.ids, rows, np.ones_like(rows), start, end, gap, rows, onset[rows])
    return cases[fits], int(rows.size - fits.sum())


class _ControlPool:
    """Never-SMI persons of one (birth_year, gender) stratum by row (so in id
    order), with enrollment ordinals, tie-break keys and whether a case took them."""

    def __init__(self, d: Dataset, rows: np.ndarray, seed: int):
        self.rows = rows
        self.start = d.enroll_start[rows]
        self.end = d.enroll_end[rows]
        self.tie = np.array(
            [rngmod.stable_seed(seed, "ctl-tie", d.ids[row]) for row in rows.tolist()], dtype=np.uint64
        )
        self.free = np.ones(rows.size, dtype=bool)

    def take(self, d: Dataset, start: int, end: int, case_count: int, k: int) -> np.ndarray:
        """Rows of the k best free candidates for one case window, now taken."""
        cand = np.flatnonzero(self.free & (self.start <= start) & (self.end >= end))
        rows = self.rows[cand]
        before = d.dx_counts_before(rows, start)
        in_window = d.dx_counts_before(rows, end + 1) > before
        cand, before = cand[in_window], before[in_window]
        diff = np.abs(before - case_count)
        chosen = cand[np.lexsort((cand, self.tie[cand], diff))[:k]]
        self.free[chosen] = False
        return self.rows[chosen]


def match_controls(
    cases: Cohort, d: Dataset, onset: np.ndarray, k: int = 10, seed: int = 0, exclude: np.ndarray | None = None
) -> Cohort:
    """The cases, each followed by up to k matched, never-SMI controls (-1
    in `onset`, each row's first SMI day) that are not in the row mask
    `exclude`, sorted by match group.

    Matching is exact on (birth_year, gender), nearest on the raw count of
    DX events before the window start, greedy in descending case count so
    high-utilization cases get first pick of scarce lookalikes; ties break
    on a per-person seeded key, then on person id. A control serves at most
    one case and must be observable over the case's whole window with at
    least one in-window diagnosis.
    """
    eligible = onset < 0
    if exclude is not None:
        eligible &= ~exclude
    stratum = d.birth_year * len(GENDERS) + d.gender
    pools: dict[int, _ControlPool] = {}

    counts = d.dx_counts_before(cases.row, cases.start)
    owner, rows = list(range(len(cases))), cases.row.tolist()
    for i in np.lexsort((cases.row, -counts)).tolist():
        s = int(stratum[cases.row[i]])
        pool = pools.get(s)
        if pool is None:
            pool = pools[s] = _ControlPool(d, np.flatnonzero(eligible & (stratum == s)), seed)
        chosen = pool.take(d, int(cases.start[i]), int(cases.end[i]), int(counts[i]), k).tolist()
        owner += [i] * len(chosen)
        rows += chosen
    out = replace(cases[np.array(owner, dtype=np.int64)], row=np.array(rows, dtype=np.int64))  # fresh columns
    control = out.row != out.group
    out.label[control], out.gap[control], out.index_day[control] = 0, -1, -1
    return out[np.lexsort((out.row, -out.label, out.group))]


def build_all_age_cohort(
    d: Dataset, m: PhecodeMap, seed: int, k: int = 10
) -> tuple[Cohort, CohortBuildStats]:
    """Full all-age matched cohort; use-case cohort members are excluded."""
    onset = first_days(d, m, TAG_SMI)
    exclude = use_case_person_ids(d, m, onset)
    found = onset >= 0
    cases, dropped = build_case_windows(d, np.where(exclude, -1, onset), seed)
    examples = match_controls(cases, d, onset, k=k, seed=seed, exclude=exclude)
    alone = int((np.unique(examples.group, return_counts=True)[1] == 1).sum())
    stats = CohortBuildStats(int(found.sum()), int((found & exclude).sum()), dropped, alone)
    return examples, stats


def build_age18_cohort(d: Dataset, onset: np.ndarray) -> Cohort:
    """Risk-at-18 cohort: observe the year before the 18th birthday,
    label by SMI onset (`onset`, each row's first SMI day) in the year
    after. Natural prevalence, no matching. Examples follow the order the
    persons were given in.

    Persons with any SMI diagnosis before the birthday are excluded; the
    target is future risk, not prevalent disease.
    """
    rows = d.input_rows
    # year of birth only: the 18th birthday is Jan 1 of birth_year + 18
    span_start, birthday, span_end = (days_from_civil(d.birth_year[rows] + age, 1, 1) for age in (17, 18, 19))
    onset = onset[rows]
    _, owner = d.window_events(rows, span_start, birthday - 1)
    keep = (
        (d.enroll_start[rows] <= span_start) & (d.enroll_end[rows] >= span_end)
        & ~((onset >= 0) & (onset < birthday)) & (np.bincount(owner, minlength=rows.size) > 0)
    )
    label = ((birthday <= onset) & (onset < span_end)).astype(np.int64)
    no_gap = np.full(rows.size, -1, dtype=np.int64)
    return Cohort(AGE18, d.ids, rows, label, span_start, birthday - 1, no_gap, rows, birthday)[keep]


def build_substance_cohort(d: Dataset, m: PhecodeMap, onset: np.ndarray) -> Cohort:
    """Post-substance-diagnosis cohort: observe the year up to and including
    the first substance-related diagnosis, label by SMI (`onset`, each
    row's first SMI day) in the year after. Examples follow the order the
    persons were given in."""
    index = first_days(d, m, TAG_SUBSTANCE)[d.input_rows]
    rows, index = d.input_rows[index >= 0], index[index >= 0]
    start = window_start_for_end(index)
    test_end = add_months(index, 12)
    onset = onset[rows]
    keep = (
        (start >= 0) & (test_end >= 0)  # the window or the follow-up year runs off the calendar
        & (d.enroll_start[rows] <= start) & (d.enroll_end[rows] >= test_end)
        & ~((onset >= 0) & (onset <= index))
    )
    label = ((onset > index) & (onset <= test_end)).astype(np.int64)
    no_gap = np.full(rows.size, -1, dtype=np.int64)
    return Cohort(SUBSTANCE, d.ids, rows, label, start, index, no_gap, rows, index)[keep]


def build_cohort(
    d: Dataset, m: PhecodeMap, kind: str, seed: int, k: int = 10
) -> tuple[Cohort, CohortBuildStats]:
    """Dispatch on cohort kind; errors when nobody is eligible."""
    if kind == ALL_AGE:
        examples, stats = build_all_age_cohort(d, m, seed, k=k)
    elif kind in (AGE18, SUBSTANCE):
        onset = first_days(d, m, TAG_SMI)
        examples = build_age18_cohort(d, onset) if kind == AGE18 else build_substance_cohort(d, m, onset)
        stats = CohortBuildStats()
    else:
        raise ValueError(f"unknown cohort kind {kind!r}")
    if not examples:
        raise DegenerateCohortError(f"cohort {kind}: zero eligible persons")
    return examples, stats


def use_case_person_ids(d: Dataset, m: PhecodeMap, onset: np.ndarray) -> np.ndarray:
    """Row mask of the persons belonging to either use-case cohort, given
    each row's first SMI day."""
    mask = np.zeros(len(d.ids), dtype=bool)
    mask[build_age18_cohort(d, onset).row] = True
    mask[build_substance_cohort(d, m, onset).row] = True
    return mask


def prevalence(c: Cohort) -> float:
    return int(c.label.sum()) / len(c) if len(c) else 0.0


def write_cohort(c: Cohort, path: str) -> None:
    """cohort.csv, one row per example (empty fields where not applicable)."""
    header = ["person_id", "label", "cohort_kind", "match_group",
              "window_start", "window_end", "gap_days", "index_date"]
    days = distinct(np.concatenate([c.start, c.end, c.index_day]))
    text = dict(zip(days.tolist(), iso_text(days).astype(str).tolist()))  # "" for -1
    ids = c.ids
    rows = (
        [ids[row], label, c.kind, ids[group], text[start], text[end], "" if gap < 0 else gap, text[index]]
        for row, label, start, end, gap, group, index in zip(*(getattr(c, name).tolist() for name in _COLUMNS))
    )
    write_table(path, "cohort.csv", header, rows)
