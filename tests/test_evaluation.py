"""AUC/Youden against brute-force oracles, plus the benchmark predictors."""

import numpy as np
import pytest

from conftest import d, make_dataset, make_event, make_person
from smiscreen.cohort import ALL_AGE, CohortExample, ObservationWindow
from smiscreen.errors import DataError, DegenerateCohortError
from smiscreen.evaluation import (
    ScoredSet,
    _tied_ranks,
    auc,
    benchmark1,
    benchmark2,
    benchmark_predictions,
    confusion_at,
    evaluate_benchmark,
    evaluate_model,
    youden_threshold,
)


def brute_force_auc(scores, labels):
    """O(n^2) pairwise comparison: win 1, tie 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_youden(scores, labels):
    """Exhaustive scan over observed thresholds under the >= rule; J ties
    break toward the larger threshold."""
    s = ScoredSet(np.asarray(scores, float), np.asarray(labels))
    best = None
    for t in sorted(set(scores), reverse=True):
        sens, spec, _ = confusion_at(s, t)
        j = sens + spec - 1.0
        if best is None or j > best[0]:
            best = (j, t, sens, spec)
    return best[1], best[2], best[3]


def random_scored_set(rng, n):
    scores = np.round(rng.normal(size=n), 1)  # rounding injects ties
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores, labels


class TestAuc:
    def test_perfect_separation(self):
        assert auc(ScoredSet(np.array([0.9, 0.6, 0.1, 0.4]), np.array([1, 1, 0, 0]))) == 1.0

    def test_all_ties(self):
        assert auc(ScoredSet(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0]))) == 0.5

    def test_three_of_four_pairs(self):
        # pairwise: (.8,.4) (.8,.2) (.3,.4) (.3,.2) -> 1+1+0+1 of 4
        s = ScoredSet(np.array([0.8, 0.3, 0.4, 0.2]), np.array([1, 1, 0, 0]))
        assert auc(s) == 0.75

    def test_single_class_errors(self):
        with pytest.raises(DegenerateCohortError):
            auc(ScoredSet(np.array([0.1, 0.2]), np.array([1, 1])))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores, labels = random_scored_set(rng, int(rng.integers(2, 501)))
            fast = auc(ScoredSet(scores, labels))
            slow = brute_force_auc(scores.tolist(), labels.tolist())
            assert abs(fast - slow) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores, labels = random_scored_set(rng, 80)
            base = auc(ScoredSet(scores, labels))
            assert auc(ScoredSet(np.exp(scores), labels)) == base
            assert auc(ScoredSet(3.0 * scores + 11.0, labels)) == base

    def test_negation_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            scores, labels = random_scored_set(rng, 60)
            direct = auc(ScoredSet(scores, labels))
            flipped = auc(ScoredSet(-scores, 1 - labels))
            assert abs(direct - flipped) < 1e-12


class TestYouden:
    def test_separable(self):
        s = ScoredSet(np.array([0.1, 0.4, 0.6, 0.9]), np.array([0, 0, 1, 1]))
        t, sens, spec = youden_threshold(s)
        assert (t, sens, spec) == (0.6, 1.0, 1.0)

    def test_degenerate_all_equal(self):
        s = ScoredSet(np.full(4, 0.5), np.array([1, 0, 1, 0]))
        t, sens, spec = youden_threshold(s)
        assert (t, sens, spec) == (0.5, 1.0, 0.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            scores, labels = random_scored_set(rng, int(rng.integers(2, 120)))
            s = ScoredSet(scores, labels)
            fast = youden_threshold(s)
            slow = brute_force_youden(scores.tolist(), labels.tolist())
            assert fast == slow

    def test_reported_sens_spec_match_confusion(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            scores, labels = random_scored_set(rng, 50)
            s = ScoredSet(scores, labels)
            t, sens, spec = youden_threshold(s)
            c_sens, c_spec, _ = confusion_at(s, t)
            assert (sens, spec) == (c_sens, c_spec)


def loop_tied_ranks(values):
    """Tie-group scan one score at a time: the reference for `_tied_ranks`."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i + 1
        while j < values.size and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    return ranks


def loop_youden(s):
    """Tie-group scan from the top score down: the reference for `youden_threshold`."""
    order = np.argsort(-s.scores, kind="mergesort")
    scores, labels = s.scores[order], s.labels[order]
    best, tp, fp, i = None, 0, 0, 0
    while i < scores.size:
        j = i + 1
        while j < scores.size and scores[j] == scores[i]:
            j += 1
        tp += int(labels[i:j].sum())
        fp += (j - i) - int(labels[i:j].sum())
        sens, spec = tp / s.n_pos, (s.n_neg - fp) / s.n_neg
        if best is None or sens + spec - 1.0 > best[0]:
            best = (sens + spec - 1.0, float(scores[i]), sens, spec)
        i = j
    return best[1:]


def test_tie_groups_match_loop_reference_bitwise():
    rng = np.random.default_rng(41)
    for trial in range(300):
        n = int(rng.integers(2, 400))
        scores = rng.integers(0, int(rng.integers(1, 12)), size=n) / 4.0  # heavy ties
        if trial % 3 == 0:
            scores[rng.random(n) < 0.2] = np.inf
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        s = ScoredSet(scores, labels)
        assert _tied_ranks(s.scores).tobytes() == loop_tied_ranks(s.scores).tobytes()
        pos = loop_tied_ranks(s.scores)[s.labels == 1].sum()
        assert auc(s) == (pos - s.n_pos * (s.n_pos + 1) / 2.0) / (s.n_pos * s.n_neg)
        assert youden_threshold(s) == loop_youden(s)


class TestConfusion:
    def test_threshold_below_everything(self):
        s = ScoredSet(np.array([0.5, 0.6, 0.7]), np.array([1, 0, 1]))
        assert confusion_at(s, 0.0)[:2] == (1.0, 0.0)

    def test_threshold_above_everything(self):
        s = ScoredSet(np.array([0.5, 0.6, 0.7]), np.array([1, 0, 1]))
        assert confusion_at(s, 1.0)[:2] == (0.0, 1.0)

    def test_direct_count(self):
        s = ScoredSet(np.array([0.8, 0.3, 0.4, 0.2]), np.array([1, 1, 0, 0]))
        assert confusion_at(s, 0.4) == (0.5, 0.5, 0.5)


def example_for(pid, start="2012-01-01", end="2012-12-31"):
    return CohortExample(pid, 0, ObservationWindow(d(start), d(end)), pid, ALL_AGE, None)


class TestBenchmarks:
    @pytest.fixture
    def dataset(self):
        persons = [make_person(f"p{i}", start="2010-01-01", end="2015-12-31") for i in range(8)]
        events = [
            make_event("p0", "2012-05-01", code="F34.1"),     # 300.4 psych + axis1
            make_event("p1", "2012-05-01", code="F20.0"),     # SMI only
            make_event("p2", "2013-05-01", code="F34.1"),     # psych but after window
            make_event("p3", "2012-05-01", code="F90.9"),     # 313.1 axis1, outside 295..307
            make_event("p4", "2012-05-01", code="F10.10"),    # 317 substance/axis1
            make_event("p5", "2012-05-01", code="E11.9"),     # non-psychiatric
            make_event("p6", "2012-05-01", kind="RX", system="NDC", code="99"),
        ]
        return make_dataset(persons, events)

    def test_benchmark1_rules(self, dataset, phemap):
        assert benchmark1(example_for("p0"), dataset, phemap) == 1
        assert benchmark1(example_for("p1"), dataset, phemap) == 0  # SMI excluded
        assert benchmark1(example_for("p2"), dataset, phemap) == 0  # out of window
        assert benchmark1(example_for("p3"), dataset, phemap) == 0  # outside range
        assert benchmark1(example_for("p5"), dataset, phemap) == 0
        assert benchmark1(example_for("p7"), dataset, phemap) == 0  # no events

    def test_benchmark2_rules(self, dataset, phemap):
        assert benchmark2(example_for("p0"), dataset, phemap) == 1
        assert benchmark2(example_for("p3"), dataset, phemap) == 1  # ADHD row
        assert benchmark2(example_for("p1"), dataset, phemap) == 0
        assert benchmark2(example_for("p6"), dataset, phemap) == 0  # medications never trigger

    def test_substance_exclusion_flag(self, dataset, phemap):
        ex = example_for("p4")
        assert benchmark2(ex, dataset, phemap) == 1
        assert benchmark2(ex, dataset, phemap, exclude_substance=True) == 0
        assert benchmark1(ex, dataset, phemap, exclude_substance=True) == 0

    def test_matches_per_event_reference(self, pop5k, phemap):
        from smiscreen.cohort import build_all_age_cohort
        from smiscreen.phecode import axis1_set, map_event, psych_category_set, substance_set

        dataset, _ = pop5k
        examples, _ = build_all_age_cohort(dataset, phemap, seed=42)
        substances = substance_set()

        def reference(ex, trigger, exclude_substance):
            for e in dataset.events_in_window(ex.person_id, ex.window.start, ex.window.end):
                code = map_event(e, phemap)
                if code is None or not trigger.contains(code):
                    continue
                if exclude_substance and substances.contains(code):
                    continue
                return 1
            return 0

        for ex in examples[:600]:
            for flag in (False, True):
                assert benchmark1(ex, dataset, phemap, flag) == reference(ex, psych_category_set(), flag)
                assert benchmark2(ex, dataset, phemap, flag) == reference(ex, axis1_set(), flag)

    def test_split_predictions_match_per_event_reference(self, pop5k, pop5k_splits, phemap):
        from smiscreen.phecode import axis1_set, map_event, psych_category_set, substance_set

        dataset, _ = pop5k
        triggers = {"BENCH1": psych_category_set(), "BENCH2": axis1_set()}
        for split in pop5k_splits.values():
            codes = [
                [
                    map_event(e, phemap)
                    for e in dataset.events_for(ex.person_id)
                    if ex.window.start <= e.date <= ex.window.end
                ]
                for ex in split
            ]
            for flag in (False, True):
                got = benchmark_predictions(split, dataset, phemap, flag)
                assert sorted(got) == ["BENCH1", "BENCH2"]
                for method, trigger in triggers.items():
                    expected = [
                        any(
                            c is not None
                            and trigger.contains(c)
                            and not (flag and substance_set().contains(c))
                            for c in ex_codes
                        )
                        for ex_codes in codes
                    ]
                    assert got[method].tolist() == expected
                    assert not got[method][-2]  # the window before enrollment

    def test_unknown_person_rejected(self, dataset, phemap):
        with pytest.raises(DataError, match="unknown person_id 'ghost'"):
            benchmark1(example_for("ghost"), dataset, phemap)

    def test_window_bounded_mutation(self, dataset, phemap):
        ex = example_for("p0")
        before = (benchmark1(ex, dataset, phemap), benchmark2(ex, dataset, phemap))
        mutated = dataset.replace_person_events(
            "p0",
            dataset.events_for("p0") + [make_event("p0", "2013-02-01", code="F43.10")],
        )
        after = (benchmark1(ex, mutated, phemap), benchmark2(ex, mutated, phemap))
        assert before == after


class TestEvaluate:
    def test_perfect_model(self):
        val = ScoredSet(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        test = ScoredSet(np.array([1.0, 0.95, 0.0, 0.05]), np.array([1, 1, 0, 0]))
        rep = evaluate_model(val, test, dataset="CLAIMS", cohort_kind=ALL_AGE)
        assert rep.auc == 1.0 and rep.sensitivity == 1.0 and rep.specificity == 1.0
        assert rep.threshold == 0.8
        assert rep.method == "MODEL" and rep.n_pos == 2 and rep.n_neg == 2

    def test_threshold_comes_from_validation(self):
        val = ScoredSet(np.array([0.6, 0.55, 0.5, 0.4]), np.array([1, 1, 0, 0]))
        test = ScoredSet(np.array([0.57, 0.53, 0.56, 0.1]), np.array([1, 1, 0, 0]))
        rep = evaluate_model(val, test, dataset="CLAIMS", cohort_kind=ALL_AGE)
        assert rep.threshold == 0.55
        assert rep.sensitivity == 0.5  # only 0.57 clears the val threshold
        assert rep.specificity == 0.5  # 0.56 is a false positive

    def test_benchmark_report_has_no_auc(self):
        rep = evaluate_benchmark(
            np.array([1, 0, 1, 0]), np.array([1, 0, 0, 0]), method="BENCH1",
            dataset="CLAIMS", cohort_kind=ALL_AGE,
        )
        assert rep.auc is None and rep.threshold is None
        assert rep.sensitivity == 1.0
        assert rep.specificity == pytest.approx(2 / 3)
        assert rep.prevalence == 0.25

    def test_single_class_test_errors(self):
        val = ScoredSet(np.array([0.9, 0.1]), np.array([1, 0]))
        test = ScoredSet(np.array([0.9, 0.8]), np.array([1, 1]))
        with pytest.raises(DegenerateCohortError):
            evaluate_model(val, test, dataset="CLAIMS", cohort_kind=ALL_AGE)
