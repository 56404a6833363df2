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

import csv
import json
from dataclasses import dataclass

import numpy as np

from .cohort import CohortExample
from .datamodel import Dataset
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


@dataclass
class EvalReport:
    method: str  # MODEL / TWO_STEP / BENCH1 / BENCH2
    dataset: str
    cohort_kind: str
    auc: float | None
    threshold: float | None
    sensitivity: float
    specificity: float
    prevalence: float
    n_pos: int
    n_neg: int


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i + 1
        while j < values.size and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # mean of ranks i+1..j
        i = j
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
    labels = s.labels[order]
    n_pos, n_neg = s.n_pos, s.n_neg
    best = None
    tp = 0
    fp = 0
    i = 0
    n = scores.size
    while i < n:
        j = i + 1
        while j < n and scores[j] == scores[i]:
            j += 1
        tp += int(labels[i:j].sum())
        fp += (j - i) - int(labels[i:j].sum())
        sens = tp / n_pos
        spec = (n_neg - fp) / n_neg
        j_stat = sens + spec - 1.0
        # strictly greater keeps the largest threshold on J ties
        if best is None or j_stat > best[0]:
            best = (j_stat, float(scores[i]), sens, spec)
        i = j
    assert best is not None
    return best[1], best[2], best[3]


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


def _window_fires(
    ex: CohortExample, d: Dataset, m: PhecodeMap, trigger: int, exclude_substance: bool
) -> int:
    """1 iff any in-window diagnosis carries the `trigger` tag bit (and,
    with `exclude_substance`, not the substance bit)."""
    lo, hi = d.window(ex.person_id, ex.window.start, ex.window.end)
    tags = d.per_code(code_tags, m)[d.table.code[lo:hi]]
    fires = (tags & trigger) != 0
    if exclude_substance:
        fires &= (tags & TAG_SUBSTANCE) == 0
    return int(fires.any())


def benchmark1(
    ex: CohortExample, d: Dataset, m: PhecodeMap, exclude_substance: bool = False
) -> int:
    """1 iff any in-window diagnosis maps into the psychological category."""
    return _window_fires(ex, d, m, TAG_PSYCH, exclude_substance)


def benchmark2(
    ex: CohortExample, d: Dataset, m: PhecodeMap, exclude_substance: bool = False
) -> int:
    """1 iff any in-window diagnosis maps into the axis I set."""
    return _window_fires(ex, d, m, TAG_AXIS1, exclude_substance)


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


def write_report_json(
    reports: list[EvalReport], path: str, *, seed: int, version: str, timestamp: str
) -> None:
    rows = [
        {
            "method": r.method,
            "dataset": r.dataset,
            "cohort": r.cohort_kind,
            "auc": r.auc,
            "threshold": r.threshold,
            "sensitivity": r.sensitivity,
            "specificity": r.specificity,
            "prevalence": r.prevalence,
            "n_pos": r.n_pos,
            "n_neg": r.n_neg,
            "seed": seed,
            "version": version,
        }
        for r in reports
    ]
    payload = {"timestamp": timestamp, "reports": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(reports: list[EvalReport], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "dataset", "cohort", "auc", "sensitivity", "specificity", "prevalence"])
        for r in reports:
            writer.writerow(
                [
                    r.method,
                    r.dataset,
                    r.cohort_kind,
                    "" if r.auc is None else f"{r.auc:.6f}",
                    f"{r.sensitivity:.6f}",
                    f"{r.specificity:.6f}",
                    f"{r.prevalence:.6f}",
                ]
            )
