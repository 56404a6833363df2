"""Rank-based AUC, Youden operating point, and rule-based benchmarks.

AUC is the exact Mann-Whitney statistic (ties count half), computed with
one sort and a tied-rank pass rather than the O(n^2) pairwise sum. The
classification threshold maximizes the Youden index J = sens + spec - 1
over the observed scores, under the fixed rule "positive iff score >= t";
J ties break toward the larger threshold (more specific screen).

Benchmarks are binary predictors over the observation window: benchmark 1
fires on any psychological-category diagnosis (phecodes 295..307, SMI
excluded); benchmark 2 fires on any DSM-IV axis I diagnosis. For the
substance use case both trigger sets additionally drop substance codes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Collection
from dataclasses import dataclass

import numpy as np

from .cohort import COHORT_KINDS, Cohort, CohortExample
from .datamodel import SOURCES, Dataset, write_table
from .errors import DataError, DegenerateCohortError
from .phecode import TAG_AXIS1, TAG_PSYCH, TAG_SUBSTANCE, PhecodeMap, code_tags


@dataclass
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise DataError("scores and labels must be equal-length 1-d arrays")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise DataError("labels must be 0/1")

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int(self.labels.size - self.labels.sum())

    def require_both_classes(self, what: str) -> None:
        if self.n_pos == 0 or self.n_neg == 0:
            raise DegenerateCohortError(
                f"{what} needs both classes; got {self.n_pos} positives, {self.n_neg} negatives"
            )


METHODS = ("MODEL", "TWO_STEP", "BENCH1", "BENCH2")


@dataclass
class EvalReport:
    method: str  # one of METHODS
    dataset: str
    cohort_kind: str
    auc: float | None
    threshold: float | None
    sensitivity: float
    specificity: float
    prevalence: float
    n_pos: int
    n_neg: int


def _tie_ends(sorted_vals: np.ndarray) -> np.ndarray:
    """End (exclusive) of each run of equal values in a sorted array."""
    return np.append(np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1, sorted_vals.size)


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(values, kind="mergesort")
    ends = _tie_ends(values[order])
    starts = np.concatenate(([0], ends[:-1]))
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)  # mean of ranks start+1..end
    return ranks


def auc(s: ScoredSet) -> float:
    """P(score of random positive > score of random negative), ties half."""
    s.require_both_classes("AUC")
    ranks = _tied_ranks(s.scores)
    pos_rank_sum = ranks[s.labels == 1].sum()
    n_pos, n_neg = s.n_pos, s.n_neg
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def youden_threshold(s: ScoredSet) -> tuple[float, float, float]:
    """(threshold, sensitivity, specificity) maximizing J over observed scores."""
    s.require_both_classes("Youden threshold")
    order = np.argsort(-s.scores, kind="mergesort")
    scores = s.scores[order]
    ends = _tie_ends(scores)
    tp = np.cumsum(s.labels[order])[ends - 1]
    sens = tp / s.n_pos
    spec = (s.n_neg - (ends - tp)) / s.n_neg
    # argmax takes the first maximum: the largest threshold on J ties
    best = int(np.argmax(sens + spec - 1.0))
    start = int(ends[best - 1]) if best else 0
    return float(scores[start]), float(sens[best]), float(spec[best])


def confusion_at(s: ScoredSet, threshold: float) -> tuple[float, float, float]:
    """(sensitivity, specificity, prevalence) under positive iff score >= t."""
    s.require_both_classes("confusion metrics")
    predicted = s.scores >= threshold
    tp = int(np.sum(predicted & (s.labels == 1)))
    tn = int(np.sum(~predicted & (s.labels == 0)))
    sens = tp / s.n_pos
    spec = tn / s.n_neg
    prev = s.n_pos / (s.n_pos + s.n_neg)
    return sens, spec, prev


def benchmark_predictions(
    c: Cohort, d: Dataset, m: PhecodeMap, exclude_substance: bool = False
) -> dict[str, np.ndarray]:
    """BENCH1 and BENCH2 of each example: True iff any in-window diagnosis
    carries the psychological-category (BENCH1) or axis I (BENCH2) tag bit
    and, with `exclude_substance`, not the substance bit."""
    positions, owner = d.window_events(c.row, c.start, c.end)
    tags = code_tags(m, d.codes.entries)[d.code[positions]]
    if exclude_substance:
        tags = np.where((tags & TAG_SUBSTANCE) != 0, 0, tags)
    return {
        method: np.bincount(owner[(tags & trigger) != 0], minlength=len(c)) > 0
        for method, trigger in (("BENCH1", TAG_PSYCH), ("BENCH2", TAG_AXIS1))
    }


def benchmark1(
    ex: CohortExample, d: Dataset, m: PhecodeMap, exclude_substance: bool = False
) -> int:
    """1 iff any in-window diagnosis maps into the psychological category."""
    return int(benchmark_predictions(Cohort.of([ex], d), d, m, exclude_substance)["BENCH1"][0])


def benchmark2(
    ex: CohortExample, d: Dataset, m: PhecodeMap, exclude_substance: bool = False
) -> int:
    """1 iff any in-window diagnosis maps into the axis I set."""
    return int(benchmark_predictions(Cohort.of([ex], d), d, m, exclude_substance)["BENCH2"][0])


def evaluate_model(
    val: ScoredSet,
    test: ScoredSet,
    *,
    method: str = "MODEL",
    dataset: str,
    cohort_kind: str,
) -> EvalReport:
    """Threshold on validation, confusion and AUC on test."""
    test.require_both_classes("model evaluation")
    threshold, _, _ = youden_threshold(val)
    sens, spec, prev = confusion_at(test, threshold)
    return EvalReport(
        method=method,
        dataset=dataset,
        cohort_kind=cohort_kind,
        auc=auc(test),
        threshold=threshold,
        sensitivity=sens,
        specificity=spec,
        prevalence=prev,
        n_pos=test.n_pos,
        n_neg=test.n_neg,
    )


def evaluate_benchmark(
    predictions: np.ndarray,
    labels: np.ndarray,
    *,
    method: str,
    dataset: str,
    cohort_kind: str,
) -> EvalReport:
    """Binary predictor evaluation; AUC is not applicable and stays null."""
    s = ScoredSet(np.asarray(predictions, dtype=np.float64), labels)
    s.require_both_classes("benchmark evaluation")
    sens, spec, prev = confusion_at(s, 1.0)  # predictions are exactly 0/1
    return EvalReport(
        method=method,
        dataset=dataset,
        cohort_kind=cohort_kind,
        auc=None,
        threshold=None,
        sensitivity=sens,
        specificity=spec,
        prevalence=prev,
        n_pos=s.n_pos,
        n_neg=s.n_neg,
    )


# (what a number must be, its test); each test also refuses NaN
_RATE = ("in [0, 1]", lambda x: 0 <= x <= 1)
_FINITE = ("finite", lambda x: -math.inf < x < math.inf)
_COUNT = (">= 0", lambda x: x >= 0)


def _one_of(tokens: Collection[str]) -> tuple[str, Callable[[str], bool]]:
    return (f"one of {', '.join(sorted(tokens))}", tokens.__contains__)


# report.json row key -> (EvalReport field, JSON types accepted on reading,
# the bound on a non-null value or None)
_REPORT_FIELDS = {
    "method": ("method", (str,), _one_of(METHODS)),
    "dataset": ("dataset", (str,), _one_of(SOURCES)),
    "cohort": ("cohort_kind", (str,), _one_of(COHORT_KINDS)),
    "auc": ("auc", (int, float, type(None)), _RATE),
    "threshold": ("threshold", (int, float, type(None)), _FINITE),
    "sensitivity": ("sensitivity", (int, float), _RATE),
    "specificity": ("specificity", (int, float), _RATE),
    "prevalence": ("prevalence", (int, float), _RATE),
    "n_pos": ("n_pos", (int,), _COUNT),
    "n_neg": ("n_neg", (int,), _COUNT),
}


def write_report_json(
    reports: list[EvalReport], path: str, *, seed: int, version: str, timestamp: str
) -> None:
    rows = []
    for r in reports:
        row = {key: getattr(r, name) for key, (name, *_) in _REPORT_FIELDS.items()}
        rows.append({**row, "seed": seed, "version": version})
    payload = {"timestamp": timestamp, "reports": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report_json(path: str) -> list[EvalReport]:
    """The rows of a report.json. A malformed file, or a metric that is
    non-finite or out of range, is a DataError naming the file and, for a
    bad row, its index."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # a missing file is an OSError, which names the path
        raise DataError(f"cannot read report {path}: {exc}") from exc
    rows = payload.get("reports") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise DataError(f"{path}: expected a JSON object with a 'reports' list")
    reports = []
    for i, row in enumerate(rows):
        where = f"{path}: reports[{i}]"
        if not isinstance(row, dict):
            raise DataError(f"{where} is not a JSON object")
        fields = {}
        for key, (name, types, bound) in _REPORT_FIELDS.items():
            if key not in row:
                raise DataError(f"{where} lacks {key!r}")
            value = row[key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise DataError(f"{where}: {key} has the wrong type ({value!r})")
            if value is not None and bound and not bound[1](value):
                raise DataError(f"{where}: {key}={value!r} is not {bound[0]}")
            fields[name] = value
        reports.append(EvalReport(**fields))
    return reports


def write_report_csv(reports: list[EvalReport], path: str) -> None:
    header = ["method", "dataset", "cohort", "auc", "sensitivity", "specificity", "prevalence"]
    rows = (
        [r.method, r.dataset, r.cohort_kind, "" if r.auc is None else f"{r.auc:.6f}",
         f"{r.sensitivity:.6f}", f"{r.specificity:.6f}", f"{r.prevalence:.6f}"]
        for r in reports
    )
    write_table(path, "report.csv", header, rows)
