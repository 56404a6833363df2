"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import contextlib
import datetime
import json
import time

import numpy as np
import pytest

from conftest import d, make_dataset, make_event, make_person
from nnet_checks import finite_difference_check, kink_distance, random_model_and_batch
from smiscreen.cli import main
from smiscreen.cohort import build_all_age_cohort, find_cases, prevalence
from smiscreen.evaluation import ScoredSet, auc, benchmark1, benchmark2, youden_threshold
from smiscreen.features import FeatureMatrix, build_vocabulary, featurize, intersect_vocabularies
from smiscreen.nnet import (
    Hyperparams,
    ModelCorruptError,
    init_model,
    load_model,
    save_model,
    score_batch,
    train,
    transfer_init,
)
from smiscreen.pipeline import (
    TRAIN,
    VAL,
    TEST,
    RunConfig,
    SplitFractions,
    _auc_eval,
    _limit_blas_threads,
    fit_source,
    restrict_model,
    split_cohort,
)
from smiscreen.synth import (
    SynthConfig,
    VocabConfig,
    default_risk_weights,
    generate_population,
    ground_truth_auc,
)


@contextlib.contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {name} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {name} ({time.perf_counter() - start:.1f}s)")


@pytest.fixture(scope="module")
def fitted50k(pop50k, phemap):
    """Default single-source fit on the 50k population, timed."""
    dataset, truth, gen_elapsed = pop50k
    cfg = RunConfig()
    cfg.seed = cfg.hp.seed = 42
    start = time.perf_counter()
    fitted = fit_source(cfg, dataset, phemap)
    fit_elapsed = time.perf_counter() - start
    return fitted, truth, gen_elapsed, fit_elapsed


def test_criterion_01_gradient_oracle():
    with criterion(1, "gradient oracle vs central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = 0
        worst = 0.0
        while checked < 50:
            model, batch, labels = random_model_and_batch(rng)
            if kink_distance(model, batch) < 1e-4:
                continue  # skip configurations within reach of a ReLU kink
            worst = max(worst, finite_difference_check(model, batch, labels, h=1e-5))
            checked += 1
        elapsed = time.perf_counter() - start
        assert worst < 1e-5, f"max relative gradient error {worst:.2e}"
        assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.sum(pos > neg) + 0.5 * np.sum(pos == neg)
    return float(wins) / (pos.size * neg.size)


def random_scored_set(rng):
    n = int(rng.integers(2, 501))
    scores = np.round(rng.normal(size=n), 1)  # coarse rounding injects ties
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores, labels


def test_criterion_02_auc_oracle():
    with criterion(2, "rank AUC equals O(n^2) brute force, transform-invariant"):
        start = time.perf_counter()
        rng = np.random.default_rng(7171)
        for _ in range(200):
            scores, labels = random_scored_set(rng)
            s = ScoredSet(scores, labels)
            fast = auc(s)
            assert abs(fast - pairwise_auc(scores, labels)) < 1e-12
            assert auc(ScoredSet(np.exp(scores), labels)) == fast
            assert auc(ScoredSet(5.0 * scores - 3.0, labels)) == fast
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"AUC oracle took {elapsed:.1f}s"


def exhaustive_youden(scores: np.ndarray, labels: np.ndarray):
    best = None
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    for t in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= t
        sens = float(np.sum(predicted & (labels == 1))) / n_pos
        spec = float(np.sum(~predicted & (labels == 0))) / n_neg
        j = sens + spec - 1.0
        if best is None or j > best[0]:
            best = (j, t, sens, spec)
    return best[1], best[2], best[3]


def test_criterion_03_youden_oracle():
    with criterion(3, "Youden threshold equals exhaustive scan with tie-break"):
        start = time.perf_counter()
        rng = np.random.default_rng(909)
        for _ in range(200):
            scores, labels = random_scored_set(rng)
            s = ScoredSet(scores, labels)
            assert youden_threshold(s) == exhaustive_youden(scores, labels)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"Youden oracle took {elapsed:.1f}s"


def test_criterion_04_cohort_invariant_suite(pop50k, phemap):
    with criterion(4, "cohort invariant suite on the 50k population"):
        dataset, truth, gen_elapsed = pop50k
        start = time.perf_counter()
        examples, stats = build_all_age_cohort(dataset, phemap, seed=42)
        onset_of = dict(find_cases(dataset, phemap))
        smi_persons = set(onset_of)
        cases = {ex.match_group: ex for ex in examples if ex.label == 1}
        control_seen = set()
        for ex in examples:
            case = cases[ex.match_group]
            if ex.label == 1:
                w = ex.window
                assert 14 <= w.gap_days <= 365
                assert w.end + datetime.timedelta(days=w.gap_days) == onset_of[ex.person_id]
            else:
                p_ctl = dataset.persons_by_id[ex.person_id]
                p_case = dataset.persons_by_id[case.person_id]
                assert ex.window.start == case.window.start
                assert ex.window.end == case.window.end
                assert p_ctl.birth_year == p_case.birth_year
                assert p_ctl.gender == p_case.gender
                assert ex.person_id not in smi_persons  # no SMI phecode ever
                assert ex.person_id not in control_seen  # never reused
                control_seen.add(ex.person_id)
        assert not control_seen & set(cases)
        assert prevalence(examples) >= 1 / 11
        assignment = split_cohort(examples, SplitFractions(), seed=42)
        for ex in examples:
            assert assignment.by_group[ex.match_group] == assignment.by_group[cases[ex.match_group].match_group]
        suite_elapsed = time.perf_counter() - start
        assert gen_elapsed + suite_elapsed < 60.0, f"{gen_elapsed + suite_elapsed:.1f}s"


def test_criterion_05_temporal_leakage_mutations(pop5k, phemap):
    with criterion(5, "post-window mutations change nothing (1000 examples)"):
        start = time.perf_counter()
        dataset, _ = pop5k
        examples, _ = build_all_age_cohort(dataset, phemap, seed=42)
        splits = split_cohort(examples, SplitFractions(), seed=42).split_examples(examples)
        vocab = build_vocabulary(splits[TRAIN], dataset)
        hp = Hyperparams(embedding_dim=16, hidden1=8, hidden2=4, seed=5)
        model = init_model(len(vocab), hp, vocab.fingerprint())
        rng = np.random.default_rng(606)
        mutated = 0
        order = rng.permutation(len(examples))
        for i in order:
            if mutated >= 1000:
                break
            ex = examples[i]
            events = dataset.events_for(ex.person_id)
            post = [e for e in events if e.date > ex.window.end]
            if not post:
                continue
            victim = post[int(rng.integers(0, len(post)))]
            if rng.random() < 0.5:
                new_events = [e for e in events if e is not victim]
            else:
                swapped = make_event(
                    ex.person_id, victim.date.isoformat(), victim.kind, victim.system, "MUT999"
                )
                new_events = [swapped if e is victim else e for e in events]
            before_fv = featurize(ex, dataset, vocab)
            before = (
                before_fv,
                benchmark1(ex, dataset, phemap),
                benchmark2(ex, dataset, phemap),
                score_batch(model, before_fv)[0],
            )
            mutated_ds = dataset.replace_person_events(ex.person_id, new_events)
            after_fv = featurize(ex, mutated_ds, vocab)
            after = (
                after_fv,
                benchmark1(ex, mutated_ds, phemap),
                benchmark2(ex, mutated_ds, phemap),
                score_batch(model, after_fv)[0],
            )
            assert before[0] == after[0]
            assert before[1:] == after[1:]
            mutated += 1
        elapsed = time.perf_counter() - start
        assert mutated == 1000, f"only found {mutated} mutatable examples"
        assert elapsed < 30.0, f"mutation suite took {elapsed:.1f}s"


def tpr_at_fpr_budget(scores, labels, fpr_budget):
    """Best achievable TPR at or under the given FPR, scanning observed
    thresholds under the >= rule."""
    best = 0.0
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    for t in np.unique(scores):
        fpr = float(np.mean(neg >= t))
        if fpr <= fpr_budget + 1e-12:
            best = max(best, float(np.mean(pos >= t)))
    return best


def test_criterion_06_end_to_end_learning_signal(fitted50k, phemap):
    with criterion(6, "50k single-source run: AUC floor, Bayes ceiling, beats benchmark"):
        fitted, truth, gen_elapsed, fit_elapsed = fitted50k
        start = time.perf_counter()
        with _limit_blas_threads():
            test_scores = score_batch(fitted.model, fitted.features[TEST])
        test_labels = fitted.labels[TEST].astype(np.int64)
        model_auc = auc(ScoredSet(test_scores, test_labels))
        gt_auc = ground_truth_auc(truth, {ex.person_id: ex.label for ex in fitted.splits[TEST]})
        assert model_auc >= 0.70, f"test AUC {model_auc:.4f} below floor"
        assert model_auc <= gt_auc + 0.02, f"test AUC {model_auc:.4f} above Bayes bound {gt_auc:.4f}"
        bench_preds = np.array(
            [benchmark1(ex, fitted.dataset, fitted.phemap) for ex in fitted.splits[TEST]]
        )
        bench_tpr = float(bench_preds[test_labels == 1].mean())
        bench_fpr = float(bench_preds[test_labels == 0].mean())
        model_tpr = tpr_at_fpr_budget(test_scores, test_labels, bench_fpr)
        assert model_tpr > bench_tpr, f"model TPR {model_tpr:.3f} <= benchmark {bench_tpr:.3f}"
        elapsed = gen_elapsed + fit_elapsed + (time.perf_counter() - start)
        assert elapsed < 300.0, f"end-to-end run took {elapsed:.1f}s"


def overlap60_cfg(source, n, seed):
    cfg = SynthConfig(
        n_persons=n,
        source=source,
        seed=seed,
        vocab=VocabConfig(n_shared_dx=130, n_specific_dx=120, n_rx=50),
        event_rate=9.0 if source == "CLAIMS" else 10.5,
    )
    cfg.risk_weights = default_risk_weights(cfg)
    return cfg


def test_criterion_07_cross_source_drop_and_two_step_recovery(phemap):
    with criterion(7, "cross-source drop and two-step recovery (5 paired seeds)"):
        start = time.perf_counter()

        def fit(source, n, seed):
            dataset, _ = generate_population(overlap60_cfg(source, n, seed))
            cfg = RunConfig()
            cfg.seed = cfg.hp.seed = seed
            return cfg, dataset, fit_source(cfg, dataset, phemap)

        def test_auc_of(fitted):
            with _limit_blas_threads():
                scores = score_batch(fitted.model, fitted.features[TEST])
            return auc(ScoredSet(scores, fitted.labels[TEST].astype(np.int64)))

        _, data_ehr, fit_ehr = fit("EHR", 12000, 101)
        _, data_claims, fit_claims = fit("CLAIMS", 12000, 202)
        within = {"EHR": test_auc_of(fit_ehr), "CLAIMS": test_auc_of(fit_claims)}

        for src_fit, tgt_fit, tgt_data, tgt in (
            (fit_ehr, fit_claims, data_claims, "CLAIMS"),
            (fit_claims, fit_ehr, data_ehr, "EHR"),
        ):
            shared = intersect_vocabularies(src_fit.vocab, tgt_fit.vocab)
            overlap = len(shared) / len(tgt_fit.vocab)
            assert abs(overlap - 0.60) < 0.02, f"overlap {overlap:.2f} is not ~60%"
            restricted = restrict_model(src_fit.model, src_fit.vocab, shared)
            feats = FeatureMatrix.stack([featurize(ex, tgt_data, shared) for ex in tgt_fit.splits[TEST]])
            with _limit_blas_threads():
                scores = score_batch(restricted, feats)
            cross = auc(ScoredSet(scores, tgt_fit.labels[TEST].astype(np.int64)))
            assert 0.5 < cross < within[tgt], (
                f"cross AUC {cross:.4f} not inside (0.5, {within[tgt]:.4f})"
            )

        wins = 0
        for seed in (202, 303, 404, 505, 606):
            cfg_t, data_t, fit_t = fit("CLAIMS", 4000, seed)
            scratch = test_auc_of(fit_t)
            seeded = transfer_init(fit_ehr.model, fit_ehr.vocab, fit_t.vocab, cfg_t.hp)
            with _limit_blas_threads():
                model2, _ = train(
                    seeded,
                    fit_t.features[TRAIN],
                    fit_t.labels[TRAIN],
                    fit_t.features[VAL],
                    fit_t.labels[VAL],
                    cfg_t.hp,
                    _auc_eval,
                )
                two_scores = score_batch(model2, fit_t.features[TEST])
            two = auc(ScoredSet(two_scores, fit_t.labels[TEST].astype(np.int64)))
            assert two >= scratch - 0.01, f"seed {seed}: two-step {two:.4f} vs scratch {scratch:.4f}"
            wins += int(two > scratch)
        assert wins >= 3, f"two-step strictly better on only {wins}/5 seeds"
        elapsed = time.perf_counter() - start
        assert elapsed < 900.0, f"cross/two-step suite took {elapsed:.1f}s"


def test_criterion_08_benchmark_micro_suite(phemap):
    with criterion(8, "benchmark rule branches on the 12-person fixture"):
        window = ("2012-01-01", "2012-12-31")
        spec_rows = [
            # pid,  events,                                     b1, b2, b1f, b2f
            ("h01", [("2012-05-01", "F60.9")], 1, 0, 1, 0),     # psych range, not axis1
            ("h02", [("2012-05-01", "F20.0")], 0, 0, 0, 0),     # SMI excluded everywhere
            ("h03", [("2013-02-01", "F34.1")], 0, 0, 0, 0),     # psych code after window
            ("h04", [("2012-05-01", "F90.9")], 0, 1, 0, 1),     # axis1 outside psych range
            ("h05", [("2012-05-01", "F32.9")], 1, 1, 1, 1),     # axis1 inside psych range
            ("h06", [("2012-05-01", "F10.10")], 0, 1, 0, 0),    # alcohol: flag drops it
            ("h07", [("2012-05-01", "F19.10"), ("2012-06-01", "F41.9")], 1, 1, 1, 1),
            ("h08", [("2012-05-01", "F17.200")], 0, 0, 0, 0),   # tobacco: never axis1
            ("h09", [], 0, 0, 0, 0),                            # medications only (below)
            ("h10", [("2012-05-01", "E11.9")], 0, 0, 0, 0),     # non-psychiatric
            ("h11", [("2011-12-31", "F42.2")], 0, 0, 0, 0),     # psych code before window
            ("h12", [], 0, 0, 0, 0),                            # no events at all
        ]
        persons = [make_person(pid, start="2010-01-01", end="2015-12-31") for pid, *_ in spec_rows]
        events = []
        for pid, evs, *_ in spec_rows:
            events.extend(make_event(pid, date, code=code) for date, code in evs)
        events.append(make_event("h09", "2012-05-01", kind="RX", system="NDC", code="50001-11"))
        dataset = make_dataset(persons, events)

        from smiscreen.cohort import ALL_AGE, CohortExample, ObservationWindow

        got = {"b1": [], "b2": [], "b1f": [], "b2f": []}
        for pid, *_ in spec_rows:
            ex = CohortExample(pid, 0, ObservationWindow(d(window[0]), d(window[1])), pid, ALL_AGE, None)
            got["b1"].append(benchmark1(ex, dataset, phemap))
            got["b2"].append(benchmark2(ex, dataset, phemap))
            got["b1f"].append(benchmark1(ex, dataset, phemap, exclude_substance=True))
            got["b2f"].append(benchmark2(ex, dataset, phemap, exclude_substance=True))
        assert got["b1"] == [row[2] for row in spec_rows]
        assert got["b2"] == [row[3] for row in spec_rows]
        assert got["b1f"] == [row[4] for row in spec_rows]
        assert got["b2f"] == [row[5] for row in spec_rows]


def write_config(path, mapping):
    path.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def determinism_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    synth_cfg = write_config(
        root / "synth.cfg", {"synth.n_persons": "1200", "synth.source": "CLAIMS", "seed": "42"}
    )
    assert main(["synth", "--config", synth_cfg, "--out", str(root / "data")]) == 0
    train_cfg = write_config(
        root / "train.cfg",
        {
            "data.persons": str(root / "data" / "persons.csv"),
            "data.events": str(root / "data" / "events.csv"),
            "seed": "42",
        },
    )
    outs = {}
    for threads in (1, 8):
        out = root / f"threads{threads}"
        code = main(["train", "--config", train_cfg, "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outs[threads] = out
    return root, train_cfg, outs


def test_criterion_09_thread_count_determinism(determinism_runs):
    with criterion(9, "byte-identical artifacts for --threads 1 vs 8"):
        _, _, outs = determinism_runs
        one, eight = outs[1], outs[8]
        for name in ("model.bin", "vocabulary.txt", "cohort.csv", "report.csv"):
            assert (one / name).read_bytes() == (eight / name).read_bytes(), name
        a = json.loads((one / "report.json").read_text())
        b = json.loads((eight / "report.json").read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b


def test_criterion_10_serialization(determinism_runs, tmp_path):
    with criterion(10, "model container round-trip and corruption handling"):
        root, train_cfg, outs = determinism_runs
        model_path = outs[1] / "model.bin"
        model, hp = load_model(str(model_path))
        resaved = tmp_path / "resaved.bin"
        save_model(model, hp, str(resaved))
        assert resaved.read_bytes() == model_path.read_bytes()

        blob = model_path.read_bytes()
        for mutilate, label in (
            (blob[: len(blob) // 2], "truncated"),
            (blob[:100] + bytes([blob[100] ^ 0xFF]) + blob[101:], "bit-flipped"),
        ):
            bad = tmp_path / f"{label}.bin"
            bad.write_bytes(mutilate)
            with pytest.raises(ModelCorruptError):
                load_model(str(bad))

        # the CLI maps corruption onto the data-error exit code
        bad_dir = tmp_path / "bad_model_dir"
        bad_dir.mkdir()
        (bad_dir / "model.bin").write_bytes(blob[: len(blob) // 2])
        (bad_dir / "vocabulary.txt").write_bytes((outs[1] / "vocabulary.txt").read_bytes())
        code = main(
            ["cross-eval", "--config", train_cfg, "--out", str(tmp_path / "o"),
             "--model-dir", str(bad_dir)]
        )
        assert code == 3
