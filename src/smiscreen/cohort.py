"""Case-control cohort construction with temporal-bias guards.

Cases are persons with at least one SMI-mapped diagnosis; their features
come from a 12-month observation window that ends a randomized gap of
14..365 days before first onset, so the model cannot key on the immediate
run-up to diagnosis. Controls are SMI-free persons matched on birth year,
gender, and prior diagnosis count, and inherit the case's exact window.

Two further cohorts cover the fine-tuning scenarios: risk at the 18th
birthday and risk after a first substance-related diagnosis. Persons in
those cohorts are kept out of the all-age cohort.
"""

from __future__ import annotations

import datetime
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .datamodel import Dataset, write_table
from .dates import add_months, window_start_for_end
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

    @property
    def length_days(self) -> int:
        return (self.end - self.start).days + 1


@dataclass(frozen=True, slots=True)
class CohortExample:
    person_id: str
    label: int
    window: ObservationWindow
    match_group: str
    cohort_kind: str
    index_date: datetime.date | None


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


def _first_dates(d: Dataset, m: PhecodeMap, bit: int) -> list[tuple[str, datetime.date]]:
    """(person_id, date) of each person's first event tagged `bit`, by id."""
    rows, pos = d.first_events((d.per_code(code_tags, m) & bit) != 0)
    ids = d.table.ids
    return [
        (ids[row], datetime.date.fromordinal(day))
        for row, day in zip(rows.tolist(), d.table.day[pos].tolist())
    ]


def find_cases(d: Dataset, m: PhecodeMap) -> list[tuple[str, datetime.date]]:
    """All persons with an SMI-mapped diagnosis, with their first onset date."""
    return _first_dates(d, m, TAG_SMI)


def example_windows(examples: list[CohortExample], d: Dataset) -> tuple[np.ndarray, ...]:
    """(rows, start, end) of the examples' windows as arrays of dataset rows
    and date ordinals; an example of an unknown person is a DataError."""
    try:
        rows = np.array([d.row_of[ex.person_id] for ex in examples], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"unknown person_id {exc.args[0]!r}") from None
    start = np.array([ex.window.start.toordinal() for ex in examples], dtype=np.int64)
    end = np.array([ex.window.end.toordinal() for ex in examples], dtype=np.int64)
    return rows, start, end


def gap_stream(seed: int, person_id: str) -> np.random.Generator:
    return rngmod.stream(seed, "gap", person_id)


def sample_gap(rng: np.random.Generator) -> int:
    """Uniform gap length in days, both bounds inclusive."""
    return int(rng.integers(GAP_MIN_DAYS, GAP_MAX_DAYS + 1))


@dataclass(frozen=True, slots=True)
class CaseWindow:
    person_id: str
    onset: datetime.date
    window: ObservationWindow


def build_case_windows(
    cases: list[tuple[str, datetime.date]], d: Dataset, seed: int
) -> tuple[list[CaseWindow], int]:
    """Assign gap-shifted 12-month windows; drop cases that do not fit.

    window.end = onset - gap; window.start = end - 12 months + 1 day.
    Cases whose window leaves enrollment or the calendar are dropped (second
    return value counts them), keeping feature windows uniformly 12 months long.
    """
    out: list[CaseWindow] = []
    dropped = 0
    for person_id, onset in cases:
        person = d.persons_by_id[person_id]
        gap = sample_gap(gap_stream(seed, person_id))
        try:
            end = onset - datetime.timedelta(days=gap)
            start = window_start_for_end(end)
        except (OverflowError, ValueError):  # the window runs off the calendar
            start = None
        if start is None or start < person.enroll_start or end > person.enroll_end:
            dropped += 1
            continue
        out.append(CaseWindow(person_id, onset, ObservationWindow(start, end, gap_days=gap)))
    return out, dropped


class _ControlPool:
    """Never-SMI persons of one (birth_year, gender) stratum, in id order,
    with their enrollment ordinals, tie-break keys and whether a case has
    taken them yet."""

    def __init__(self, d: Dataset, pids: list[str], seed: int):
        self.pids = sorted(pids)
        self.rows = np.array([d.row_of[pid] for pid in self.pids], dtype=np.int64)
        self.start = d.enroll_start[self.rows]
        self.end = d.enroll_end[self.rows]
        self.tie = np.array(
            [rngmod.stable_seed(seed, "ctl-tie", pid) for pid in self.pids], dtype=np.uint64
        )
        self.free = np.ones(len(self.pids), dtype=bool)

    def take(self, d: Dataset, window: ObservationWindow, case_count: int, k: int) -> list[str]:
        """The k best free candidates for one case window, now taken."""
        start, end = window.start.toordinal(), window.end.toordinal()
        cand = np.flatnonzero(self.free & (self.start <= start) & (self.end >= end))
        rows = self.rows[cand]
        before = d.dx_counts_before(rows, start)
        in_window = d.dx_counts_before(rows, end + 1) > before
        cand, before = cand[in_window], before[in_window]
        diff = np.abs(before - case_count)
        chosen = cand[np.lexsort((cand, self.tie[cand], diff))[:k]]
        self.free[chosen] = False
        return [self.pids[j] for j in chosen.tolist()]


def match_controls(
    case_windows: list[CaseWindow],
    d: Dataset,
    m: PhecodeMap,
    k: int = 10,
    seed: int = 0,
    exclude: frozenset[str] = frozenset(),
) -> list[CohortExample]:
    """Pair each case with up to k matched, never-SMI controls.

    Matching is exact on (birth_year, gender), nearest on the raw count of
    DX events before the window start, greedy in descending case count so
    high-utilization cases get first pick of scarce lookalikes; ties break
    on a per-person seeded key, then on person id. A control serves at most
    one case and must be observable over the case's whole window with at
    least one in-window diagnosis.
    """
    smi_pids = {pid for pid, _ in find_cases(d, m)}
    strata: dict[tuple[int, str], list[str]] = {}
    for p in d.persons:
        if p.person_id in smi_pids or p.person_id in exclude:
            continue
        strata.setdefault((p.birth_year, p.gender), []).append(p.person_id)
    pools: dict[tuple[int, str], _ControlPool] = {}

    case_rows = np.array([d.row_of[cw.person_id] for cw in case_windows], dtype=np.int64)
    case_starts = np.array([cw.window.start.toordinal() for cw in case_windows], dtype=np.int64)
    case_counts = d.dx_counts_before(case_rows, case_starts).tolist()
    order = sorted(
        range(len(case_windows)), key=lambda i: (-case_counts[i], case_windows[i].person_id)
    )
    examples: list[CohortExample] = []
    for i in order:
        cw = case_windows[i]
        person = d.persons_by_id[cw.person_id]
        window = cw.window
        stratum = (person.birth_year, person.gender)
        pool = pools.get(stratum)
        if pool is None:
            pool = pools[stratum] = _ControlPool(d, strata.get(stratum, []), seed)
        chosen = pool.take(d, window, case_counts[i], k)
        examples.append(
            CohortExample(cw.person_id, 1, window, cw.person_id, ALL_AGE, cw.onset)
        )
        shared = ObservationWindow(window.start, window.end)
        for pid in chosen:
            examples.append(CohortExample(pid, 0, shared, cw.person_id, ALL_AGE, None))
    examples.sort(key=lambda ex: (ex.match_group, -ex.label, ex.person_id))
    return examples


def build_all_age_cohort(
    d: Dataset, m: PhecodeMap, seed: int, k: int = 10
) -> tuple[list[CohortExample], CohortBuildStats]:
    """Full all-age matched cohort; use-case cohort members are excluded."""
    exclude = use_case_person_ids(d, m)
    found = find_cases(d, m)
    cases = [(pid, onset) for pid, onset in found if pid not in exclude]
    case_windows, dropped = build_case_windows(cases, d, seed)
    examples = match_controls(case_windows, d, m, k=k, seed=seed, exclude=exclude)
    alone = sum(n == 1 for n in Counter(ex.match_group for ex in examples).values())
    return examples, CohortBuildStats(len(found), len(found) - len(cases), dropped, alone)


def build_age18_cohort(d: Dataset, m: PhecodeMap) -> list[CohortExample]:
    """Risk-at-18 cohort: observe the year before the 18th birthday,
    label by SMI onset in the year after. Natural prevalence, no matching.

    Persons with any SMI diagnosis before the birthday are excluded; the
    target is future risk, not prevalent disease.
    """
    onsets = dict(find_cases(d, m))
    spans: dict[int, tuple[datetime.date, datetime.date, datetime.date]] = {}
    candidates: list[CohortExample] = []
    for p in d.persons:
        span = spans.get(p.birth_year)
        if span is None:
            birthday = datetime.date(p.birth_year + 18, 1, 1)  # year of birth only: Jan 1
            span = spans[p.birth_year] = (
                birthday, add_months(birthday, -12), add_months(birthday, 12)
            )
        birthday, span_start, span_end = span
        if p.enroll_start > span_start or p.enroll_end < span_end:
            continue
        onset = onsets.get(p.person_id)
        if onset is not None and onset < birthday:
            continue
        label = int(onset is not None and birthday <= onset < span_end)
        window = ObservationWindow(span_start, birthday - datetime.timedelta(days=1))
        candidates.append(CohortExample(p.person_id, label, window, p.person_id, AGE18, birthday))
    _, owner = d.window_events(*example_windows(candidates, d))
    seen = np.bincount(owner, minlength=len(candidates)) > 0
    return [ex for ex, keep in zip(candidates, seen.tolist()) if keep]


def build_substance_cohort(d: Dataset, m: PhecodeMap) -> list[CohortExample]:
    """Post-substance-diagnosis cohort: observe the year up to and including
    the first substance-related diagnosis, label by SMI in the year after."""
    onsets = dict(find_cases(d, m))
    index_dates = dict(_first_dates(d, m, TAG_SUBSTANCE))
    out: list[CohortExample] = []
    for p in d.persons:
        index_date = index_dates.get(p.person_id)
        if index_date is None:
            continue
        try:
            window = ObservationWindow(window_start_for_end(index_date), index_date)
            test_end = add_months(index_date, 12)
        except ValueError:  # the window or the follow-up year runs off the calendar
            continue
        if p.enroll_start > window.start or p.enroll_end < test_end:
            continue
        onset = onsets.get(p.person_id)
        if onset is not None and onset <= index_date:
            continue
        label = int(onset is not None and onset <= test_end)
        out.append(CohortExample(p.person_id, label, window, p.person_id, SUBSTANCE, index_date))
    return out


def build_cohort(
    d: Dataset, m: PhecodeMap, kind: str, seed: int, k: int = 10
) -> tuple[list[CohortExample], CohortBuildStats]:
    """Dispatch on cohort kind; errors when nobody is eligible."""
    if kind == ALL_AGE:
        examples, stats = build_all_age_cohort(d, m, seed, k=k)
    elif kind in (AGE18, SUBSTANCE):
        examples = build_age18_cohort(d, m) if kind == AGE18 else build_substance_cohort(d, m)
        stats = CohortBuildStats()
    else:
        raise ValueError(f"unknown cohort kind {kind!r}")
    if not examples:
        raise DegenerateCohortError(f"cohort {kind}: zero eligible persons")
    return examples, stats


def use_case_person_ids(d: Dataset, m: PhecodeMap) -> frozenset[str]:
    """Persons belonging to either use-case cohort."""
    ids = {ex.person_id for ex in build_age18_cohort(d, m)}
    ids.update(ex.person_id for ex in build_substance_cohort(d, m))
    return frozenset(ids)


def prevalence(examples: list[CohortExample]) -> float:
    if not examples:
        return 0.0
    return sum(ex.label for ex in examples) / len(examples)


def write_cohort(examples: list[CohortExample], path: str) -> None:
    """cohort.csv, one row per example (empty fields where not applicable)."""
    header = ["person_id", "label", "cohort_kind", "match_group",
              "window_start", "window_end", "gap_days", "index_date"]
    rows = (
        [ex.person_id, ex.label, ex.cohort_kind, ex.match_group, ex.window.start, ex.window.end,
         "" if ex.window.gap_days is None else ex.window.gap_days, ex.index_date or ""]
        for ex in examples
    )
    write_table(path, "cohort.csv", header, rows)
