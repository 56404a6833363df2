"""Network math against finite differences and hand arithmetic."""

import math
import pathlib
import re

import numpy as np
import pytest

from nnet_checks import (
    feature_matrix,
    finite_difference_check,
    kink_distance,
    random_model_and_batch,
    rewrite_header,
    row_views,
)
from smiscreen.errors import ConfigError, DataError, DegenerateCohortError
from smiscreen.evaluation import ScoredSet, auc
from smiscreen.features import FeatureMatrix, Vocabulary
from smiscreen.nnet import (
    FingerprintMismatchError,
    Hyperparams,
    ModelCorruptError,
    ModelParams,
    ModelVersionError,
    OptimizerState,
    _batch_loss,
    _forward,
    adam_step,
    backward,
    check_fingerprint,
    init_model,
    load_model,
    restrict_model,
    save_model,
    score_batch,
    train,
    transfer_init,
)


def fv(indices, demo=(0.3, 1.0, 0.0, 0.0)):
    """One-row feature matrix."""
    return feature_matrix([indices], [demo])


class TestInit:
    def test_deterministic(self):
        hp = Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, seed=9)
        a, b = init_model(10, hp), init_model(10, hp)
        for name in a.arrays():
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_shapes_and_zero_biases(self):
        hp = Hyperparams(embedding_dim=2, hidden1=1, hidden2=1, seed=0)
        m = init_model(1, hp)
        assert m.embedding.shape == (1, 2)
        assert m.w1.shape == (6, 1) and m.w2.shape == (1, 1) and m.w_out.shape == (1,)
        assert not m.b1.any() and not m.b2.any() and not m.b_out.any()

    def test_embedding_range(self):
        m = init_model(50, Hyperparams(seed=3))
        assert np.abs(m.embedding).max() <= 0.05

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            init_model(0, Hyperparams())
        with pytest.raises(ConfigError):
            init_model(5, Hyperparams(learning_rate=0.0))

    def test_widths_up_to_the_cap_pass(self):
        Hyperparams(embedding_dim=4096, hidden1=4096, hidden2=4096).validate()


class TestForward:
    def test_zero_network_gives_half(self):
        hp = Hyperparams(embedding_dim=3, hidden1=2, hidden2=2, seed=0)
        m = init_model(4, hp)
        for arr in m.arrays().values():
            arr[...] = 0.0
        assert score_batch(m, fv([0, 2]))[0] == 0.5

    def test_hand_computed_toy(self):
        # V=2, d=2, h1=h2=1; scalar arithmetic written out is the oracle
        m = ModelParams(
            embedding=np.array([[0.1, 0.2], [0.3, -0.1]]),
            w1=np.array([[1.0], [2.0], [-1.0], [0.5], [0.25], [0.125]]),
            b1=np.array([0.05]),
            w2=np.array([[2.0]]),
            b2=np.array([0.1]),
            w_out=np.array([-1.0]),
            b_out=np.array([0.2]),
        )
        x = fv([0, 1], demo=(0.24, 1.0, 0.0, 0.0))
        pooled = [(0.1 + 0.3) / 2, (0.2 - 0.1) / 2]
        z1 = pooled[0] * 1.0 + pooled[1] * 2.0 + 0.24 * -1.0 + 1.0 * 0.5 + 0.05
        a1 = max(z1, 0.0)
        z2 = a1 * 2.0 + 0.1
        a2 = max(z2, 0.0)
        z3 = a2 * -1.0 + 0.2
        expected = 1.0 / (1.0 + math.exp(-z3))
        assert abs(score_batch(m, x)[0] - expected) < 1e-12

    def test_empty_code_set_pools_to_zero(self):
        m = init_model(6, Hyperparams(embedding_dim=3, hidden1=4, hidden2=2, seed=5))
        demo = np.array([0.4, 0.0, 1.0, 0.0])
        got = score_batch(m, fv([], demo))[0]
        z1 = np.maximum(demo @ m.w1[3:] + m.b1, 0.0)
        z2 = np.maximum(z1 @ m.w2 + m.b2, 0.0)
        expected = 1.0 / (1.0 + math.exp(-(z2 @ m.w_out + m.b_out[0])))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_index_out_of_range(self):
        m = init_model(3, Hyperparams(embedding_dim=2, hidden1=2, hidden2=2, seed=1))
        with pytest.raises(DataError, match="out of range"):
            score_batch(m, fv([5]))
        with pytest.raises(DataError, match="feature index -1 out of range"):
            score_batch(m, FeatureMatrix.stack([fv([0]), fv([2, -1])]))
        with pytest.raises(DataError, match="out of range"):
            backward(m, fv([-1]), np.array([1.0]))

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m, batch, _ = random_model_and_batch(rng)
            p = score_batch(m, batch)
            assert np.all(p > 0.0) and np.all(p < 1.0)


class TestLoss:
    def test_half_prediction(self):
        assert _batch_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(math.log(2), rel=1e-12)

    def test_confident_correct(self):
        assert 0.0 <= _batch_loss(np.array([1.0 - 1e-12]), np.array([1.0])) < 2e-12

    def test_confident_wrong(self):
        assert _batch_loss(np.array([0.9]), np.array([0.0])) == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_clamping_keeps_loss_finite(self):
        assert math.isfinite(_batch_loss(np.array([0.0]), np.array([1.0])))
        assert math.isfinite(_batch_loss(np.array([1.0]), np.array([0.0])))

    @pytest.mark.parametrize("bias, label, saturated", [(200.0, 0.0, 1.0), (-200.0, 1.0, 0.0)])
    def test_saturated_float32_output_keeps_loss_finite(self, bias, label, saturated):
        # In float32, 1 - 1e-12 rounds to 1.0, so a clip in float32 would log inf.
        m = init_model(3, Hyperparams(embedding_dim=2, hidden1=2, hidden2=2, seed=2)).astype(np.float32)
        m.w_out[:] = 0.0
        m.b_out[:] = bias
        p, _ = _forward(m, fv([0, 2]))
        assert p.dtype == np.float32 and p[0] == saturated
        _, loss = backward(m, fv([0, 2]), np.array([label]))
        assert math.isfinite(loss) and loss > 20.0


def loop_embedding_grad(m, batch, labels):
    """Embedding gradient by a per-example loop: each example's codes get
    its pooled gradient over k repeated rows, then one np.add.at."""
    p, (_, _, z1, _, z2, _) = _forward(m, batch)
    dz3 = (p - labels) / len(batch)
    dz2 = np.outer(dz3, m.w_out) * (z2 > 0.0)
    dz1 = (dz2 @ m.w2.T) * (z1 > 0.0)
    d_pooled = (dz1 @ m.w1.T)[:, : m.embedding_dim]
    d_embedding = np.zeros_like(m.embedding)
    index_runs, rows = [], []
    for i, codes in enumerate(row_views(batch)):
        k = codes.size
        if k:
            index_runs.append(codes)
            rows.append(np.repeat(d_pooled[i : i + 1] / k, k, axis=0))
    if rows:
        np.add.at(d_embedding, np.concatenate(index_runs), np.concatenate(rows))
    return d_embedding


def loop_pool(m, batch):
    """Pooled embeddings by a per-example loop: the mean of each example's rows."""
    pooled = np.zeros((len(batch), m.embedding_dim))
    for i, codes in enumerate(row_views(batch)):
        if codes.size:
            pooled[i] = m.embedding[codes].mean(axis=0)
    return pooled


def assert_close_to_reference(got, want):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


class TestBackward:
    def test_averaging_matrix_matches_per_example_loop(self):
        # A matrix product sums in another order than the loop, so the
        # agreement is to rounding, not to the bit.
        rng = np.random.default_rng(404)
        empty = shared = 0
        for _ in range(300):
            m, batch, labels = random_model_and_batch(rng, v_max=6, batch_max=12)
            empty += any(np.diff(batch.indptr) == 0)
            shared += np.unique(batch.indices).size < batch.indices.size
            grads, _ = backward(m, batch, labels)
            assert_close_to_reference(grads.embedding, loop_embedding_grad(m, batch, labels))
            _, (_, inputs, *_) = _forward(m, batch)
            assert_close_to_reference(inputs[:, : m.embedding_dim], loop_pool(m, batch))
        assert min(empty, shared) > 0

    @pytest.mark.parametrize(
        "run", [score_batch, lambda m, b: backward(m, b, np.ones(len(b)))], ids=["score_batch", "backward"]
    )
    def test_negative_index_refused_before_pooling(self, run):
        # In the second row, -1 would wrap onto the first row's last column.
        m = init_model(3, Hyperparams(embedding_dim=2, hidden1=2, hidden2=2, seed=1))
        with pytest.raises(DataError, match=re.escape("feature index -1 out of range for V=3")):
            run(m, FeatureMatrix.stack([fv([0]), fv([-1])]))

    @pytest.mark.parametrize(
        "run", [score_batch, lambda m, b: backward(m, b, np.ones(len(b)))], ids=["score_batch", "backward"]
    )
    @pytest.mark.parametrize(
        "rows, bad_row",
        [([[1, 1]], 0), ([[2, 0]], 0), ([[0, 2], [2, 1]], 1)],
        ids=["repeated", "descending", "second-row"],
    )
    def test_unsorted_or_repeated_row_refused(self, run, rows, bad_row):
        # A row's indices must strictly increase; pooling would otherwise weigh them wrongly.
        m = init_model(3, Hyperparams(embedding_dim=2, hidden1=2, hidden2=2, seed=1))
        batch = feature_matrix(rows, [(0.3, 1.0, 0.0, 0.0)] * len(rows))
        with pytest.raises(DataError, match=re.escape(f"feature row {bad_row} is not sorted and unique")):
            run(m, batch)

    def test_empty_code_set_leaves_embedding_grad_zero(self):
        m = init_model(4, Hyperparams(embedding_dim=3, hidden1=2, hidden2=2, seed=8))
        grads, _ = backward(m, fv([], np.ones(4)), np.array([1.0]))
        assert not grads.embedding.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 10:
            m, batch, labels = random_model_and_batch(rng)
            if kink_distance(m, batch) < 1e-4:
                continue  # perturbation would cross a ReLU kink
            assert finite_difference_check(m, batch, labels) < 1e-5
            checked += 1

    def test_mean_pool_scaling(self):
        # one example, two codes: each referenced row gets dpooled / 2
        hp = Hyperparams(embedding_dim=2, hidden1=2, hidden2=2, seed=4)
        m = init_model(4, hp)
        for arr in m.arrays().values():
            arr += 0.3
        g2, _ = backward(m, fv([0, 1]), np.array([1.0]))
        g1, _ = backward(m, fv([0]), np.array([1.0]))
        # row 0 of the two-code batch equals half of what a single-code
        # example would give only when pooled inputs match; instead assert
        # the two referenced rows got identical gradient mass
        assert np.allclose(g2.embedding[0], g2.embedding[1])
        assert not g2.embedding[2:].any()
        assert not g1.embedding[1:].any()


class TestAdamAndTraining:
    def test_single_step_descends_on_small_lr(self):
        rng = np.random.default_rng(55)
        failures = 0
        for _ in range(20):
            m, batch, labels = random_model_and_batch(rng)
            grads, before = backward(m, batch, labels)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.arrays().values()))
            if norm < 1e-10:
                continue
            adam_step(m, grads, OptimizerState.zeros_like(m), lr=1e-4)
            p, _ = _forward(m, batch)
            after = _batch_loss(p, labels)
            failures += after > before
        assert failures <= 1

    @staticmethod
    def toy_separable(n=90):
        """Toy features and labels, each cut in two after the first `k`."""
        rng = np.random.default_rng(3)
        labels = np.arange(n) % 2.0
        feats = feature_matrix([[0] if y else [1] for y in labels], [rng.random(4) for _ in range(n)])
        return lambda k: (feats.rows(np.arange(k)), labels[:k], feats.rows(np.arange(k, n)), labels[k:])

    def test_learns_separable_toy(self):
        split = self.toy_separable()
        hp = Hyperparams(
            embedding_dim=8, hidden1=8, hidden2=4, learning_rate=0.01,
            batch_size=16, max_epochs=50, patience=50, seed=12,
        )
        model0 = init_model(2, hp)
        eval_fn = lambda s, y: auc(ScoredSet(s, y.astype(np.int64)))
        best, log = train(model0, *split(60), hp, eval_fn)
        assert log.best_val_auc >= 0.99

    def test_patience_zero_runs_exactly_one_epoch(self):
        split = self.toy_separable(40)
        hp = Hyperparams(embedding_dim=4, hidden1=4, hidden2=2, patience=0, max_epochs=50, seed=1)
        model0 = init_model(2, hp)
        eval_fn = lambda s, y: auc(ScoredSet(s, y.astype(np.int64)))
        _, log = train(model0, *split(30), hp, eval_fn)
        assert log.epochs_run == 1

    def test_training_is_deterministic(self):
        split = self.toy_separable(60)
        hp = Hyperparams(embedding_dim=6, hidden1=5, hidden2=3, max_epochs=6, patience=6, seed=77)
        eval_fn = lambda s, y: auc(ScoredSet(s, y.astype(np.int64)))
        runs = []
        for _ in range(2):
            model0 = init_model(2, hp)
            best, log = train(model0, *split(40), hp, eval_fn)
            runs.append((best, log))
        (m1, l1), (m2, l2) = runs
        assert l1.train_loss == l2.train_loss
        assert l1.val_auc == l2.val_auc
        for name in m1.arrays():
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_input_model_not_mutated(self):
        split = self.toy_separable(40)
        hp = Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, max_epochs=2, patience=2, seed=5)
        model0 = init_model(2, hp)
        snapshot = {k: v.copy() for k, v in model0.arrays().items()}
        eval_fn = lambda s, y: auc(ScoredSet(s, y.astype(np.int64)))
        train(model0, *split(30), hp, eval_fn)
        for name, arr in snapshot.items():
            assert np.array_equal(arr, getattr(model0, name))

    def test_single_class_val_rejected(self):
        feats, labels, _, _ = self.toy_separable(20)(20)
        hp = Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, seed=5)
        model0 = init_model(2, hp)
        with pytest.raises(DegenerateCohortError):
            train(model0, feats, labels, feats.rows(np.arange(3)), np.ones(3), hp, lambda s, y: 0.5)


class TestFloat32Training:
    """`train` computes in float32 and returns exact float64 upcasts."""

    def test_forward_and_backward_stay_float32(self):
        # Labels, demographics and the averaging matrix arrive as float64; any of
        # them would promote the whole step back to float64.
        m, batch, labels = random_model_and_batch(np.random.default_rng(61))
        assert batch.demographics.dtype == labels.dtype == np.float64
        m32 = m.astype(np.float32)
        p, activations = _forward(m32, batch)
        assert [a.dtype for a in (p, *activations)] == [np.float32] * 7
        grads, loss = backward(m32, batch, labels)
        assert {name: a.dtype for name, a in grads.arrays().items()} == dict.fromkeys(grads.arrays(), np.float32)
        assert type(loss) is float

    def test_averaging_matrix_built_in_model_dtype(self):
        # Rows of k = 3, 6 and 7 codes and an empty row: 1/k in float32 is 1/k in
        # float64 rounded once, whichever dtype the matrix is built in.
        m = init_model(8, Hyperparams(embedding_dim=3, hidden1=2, hidden2=2, seed=7))
        rows = [[0, 2, 5], [0, 1, 2, 3, 5, 7], [], [1, 2, 3, 4, 5, 6, 7]]
        batch = feature_matrix(rows, [(0.3, 1.0, 0.0, 0.0)] * len(rows))
        _, (avg64, *_) = _forward(m, batch)
        _, (avg32, *_) = _forward(m.astype(np.float32), batch)
        assert avg64.dtype == np.float64 and avg32.dtype == np.float32
        assert np.array_equal(avg32, avg64.astype(np.float32))
        counts = np.diff(batch.indptr)
        row_of = np.repeat(np.arange(len(rows)), counts)
        dense = np.bincount(row_of * 8 + batch.indices, 1.0 / counts[row_of], minlength=8 * len(rows))
        assert np.array_equal(avg64, dense.reshape(len(rows), 8))

    def test_adam_ignores_the_type_of_a_float64_learning_rate(self):
        # Under NumPy 2, a np.float64 scalar times a float32 array is float64. From
        # zero parameters the step is the update itself, so its rounding shows.
        m, batch, labels = random_model_and_batch(np.random.default_rng(62))
        m32 = m.astype(np.float32)
        grads, _ = backward(m32, batch, labels)
        stepped = []
        for lr in (1e-3, np.float64(1e-3)):
            model, state = m32.astype(np.float32), OptimizerState.zeros_like(m32)
            for arr in model.arrays().values():
                arr[:] = 0.0
            adam_step(model, grads, state, lr)
            stepped.append(model)
        for name, arr in stepped[0].arrays().items():
            assert np.array_equal(getattr(stepped[1], name), arr), name

    def test_gradients_match_float64_oracle(self):
        rng = np.random.default_rng(63)
        checked = 0
        while checked < 8:
            m, batch, labels = random_model_and_batch(rng, v_max=12, d_max=6, h_max=6, batch_max=8)
            # float32-representable inputs, so both paths start from the same numbers
            m = m.astype(np.float32).astype(np.float64)
            batch.demographics[:] = batch.demographics.astype(np.float32)
            if kink_distance(m, batch) < 1e-3:
                continue  # float32 rounding could move a pre-activation across a ReLU kink
            want, loss64 = backward(m, batch, labels)
            got, loss32 = backward(m.astype(np.float32), batch, labels)
            for name, g in want.arrays().items():
                err = np.max(np.abs(getattr(got, name) - g), initial=0.0)
                assert err <= 1e-4 * np.max(np.abs(g), initial=0.0), name
            assert loss32 == pytest.approx(loss64, rel=1e-4)
            checked += 1

    @pytest.fixture
    def trained(self):
        split = TestAdamAndTraining.toy_separable(40)
        hp = Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, max_epochs=3, patience=3, seed=9)
        eval_fn = lambda s, y: auc(ScoredSet(s, y.astype(np.int64)))
        best, _ = train(init_model(2, hp), *split(30), hp, eval_fn)
        return best, hp, split(30)[2]

    def test_returns_exact_float64_upcast(self, trained):
        best, _, _ = trained
        for name, arr in best.arrays().items():
            assert arr.dtype == np.float64, name
            assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr), name

    def test_saved_model_scores_bit_identically(self, trained, tmp_path):
        best, hp, val = trained
        path = str(tmp_path / "model.bin")
        save_model(best, hp, path)
        loaded, _ = load_model(path)
        assert np.array_equal(score_batch(loaded, val), score_batch(best, val))

    def test_logged_loss_finite_when_outputs_saturate(self):
        # A learning rate this large drives float32 outputs to exactly 0.0 or 1.0.
        split = TestAdamAndTraining.toy_separable(60)
        hp = Hyperparams(
            embedding_dim=4, hidden1=4, hidden2=2, learning_rate=30.0,
            batch_size=16, max_epochs=4, patience=4, seed=5,
        )
        eval_fn = lambda s, y: auc(ScoredSet(s, y.astype(np.int64)))
        _, log = train(init_model(2, hp), *split(40), hp, eval_fn)
        assert log.epochs_run == 4
        assert all(math.isfinite(loss) for loss in log.train_loss)


class TestTransfer:
    def test_identity_on_same_vocab(self):
        vocab = Vocabulary(("dx:ICD10:A", "dx:ICD10:B", "rx:NDC:1"))
        hp = Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, seed=21)
        pre = init_model(len(vocab), hp, vocab.fingerprint())
        out = transfer_init(pre, vocab, vocab, hp)
        for name in pre.arrays():
            assert np.array_equal(getattr(pre, name), getattr(out, name))

    def test_disjoint_vocab_gets_fresh_embeddings(self):
        a = Vocabulary(("dx:ICD10:A", "dx:ICD10:B"))
        b = Vocabulary(("dx:ICD10:C", "dx:ICD10:D"))
        hp = Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, seed=21)
        pre = init_model(len(a), hp, a.fingerprint())
        out = transfer_init(pre, a, b, hp)
        assert not np.array_equal(out.embedding, pre.embedding)
        assert np.abs(out.embedding).max() <= 0.05
        assert np.array_equal(out.w1, pre.w1) and np.array_equal(out.w_out, pre.w_out)
        assert out.vocab_fingerprint == b.fingerprint()

    def test_partial_overlap_copies_shared_rows(self):
        a = Vocabulary(("dx:ICD10:A", "dx:ICD10:B", "dx:ICD10:C"))
        b = Vocabulary(("dx:ICD10:B", "dx:ICD10:C", "dx:ICD10:Z"))
        hp = Hyperparams(embedding_dim=3, hidden1=2, hidden2=2, seed=2)
        pre = init_model(len(a), hp, a.fingerprint())
        out = transfer_init(pre, a, b, hp)
        assert np.array_equal(out.embedding[0], pre.embedding[1])  # B
        assert np.array_equal(out.embedding[1], pre.embedding[2])  # C
        assert not np.array_equal(out.embedding[2], pre.embedding[0])

    def test_restrict_keeps_shared_rows_and_rejects_foreign_codes(self):
        a = Vocabulary(("dx:ICD10:A", "dx:ICD10:B", "dx:ICD10:C"))
        shared = Vocabulary(("dx:ICD10:A", "dx:ICD10:C"))
        hp = Hyperparams(embedding_dim=3, hidden1=2, hidden2=2, seed=2)
        pre = init_model(len(a), hp, a.fingerprint())
        out = restrict_model(pre, a, shared)
        assert np.array_equal(out.embedding, pre.embedding[[0, 2]])
        assert np.array_equal(out.w1, pre.w1) and out.w1 is not pre.w1
        assert out.vocab_fingerprint == shared.fingerprint()
        with pytest.raises(DataError, match="1 codes foreign to the model"):
            restrict_model(pre, a, Vocabulary(("dx:ICD10:A", "dx:ICD10:Z")))

    def test_dimension_mismatch_rejected(self):
        vocab = Vocabulary(("dx:ICD10:A",))
        pre = init_model(1, Hyperparams(embedding_dim=4, hidden1=3, hidden2=2, seed=1))
        with pytest.raises(ConfigError, match="dimension mismatch"):
            transfer_init(pre, vocab, vocab, Hyperparams(embedding_dim=5, hidden1=3, hidden2=2))


class TestSerialization:
    @pytest.fixture
    def saved(self, tmp_path):
        hp = Hyperparams(embedding_dim=5, hidden1=4, hidden2=3, seed=33)
        vocab = Vocabulary(tuple(f"dx:ICD10:C{i}" for i in range(7)))
        m = init_model(7, hp, vocab.fingerprint())
        path = str(tmp_path / "model.bin")
        save_model(m, hp, path)
        return m, hp, vocab, path

    def test_round_trip_bit_exact(self, saved):
        m, hp, _, path = saved
        loaded, hp2 = load_model(path)
        assert hp2 == hp
        assert loaded.vocab_fingerprint == m.vocab_fingerprint
        for name in m.arrays():
            assert np.array_equal(getattr(loaded, name), getattr(m, name))
        probe = FeatureMatrix.stack([fv([0, 3]), fv([], demo=(0.1, 0.0, 0.0, 1.0))])
        assert np.array_equal(score_batch(loaded, probe), score_batch(m, probe))

    def test_truncated_file_rejected(self, saved, tmp_path):
        _, _, _, path = saved
        blob = pathlib.Path(path).read_bytes()
        bad = str(tmp_path / "trunc.bin")
        pathlib.Path(bad).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelCorruptError):
            load_model(bad)

    def test_bit_flip_rejected(self, saved, tmp_path):
        _, _, _, path = saved
        blob = bytearray(pathlib.Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = str(tmp_path / "flip.bin")
        pathlib.Path(bad).write_bytes(bytes(blob))
        with pytest.raises(ModelCorruptError):
            load_model(bad)

    def test_version_mismatch_rejected(self, saved, tmp_path):
        import hashlib

        _, _, _, path = saved
        body = bytearray(pathlib.Path(path).read_bytes()[:-32])
        body[4:8] = (2).to_bytes(4, "little")
        blob = bytes(body) + hashlib.sha256(bytes(body)).digest()
        bad = str(tmp_path / "v2.bin")
        pathlib.Path(bad).write_bytes(blob)
        with pytest.raises(ModelVersionError):
            load_model(bad)

    def test_not_a_model_file(self, tmp_path):
        bad = str(tmp_path / "junk.bin")
        pathlib.Path(bad).write_bytes(b"hello world")
        with pytest.raises(ModelCorruptError):
            load_model(bad)

    def test_fingerprint_guard(self, saved):
        m, _, vocab, _ = saved
        check_fingerprint(m, vocab)  # must not raise
        other = Vocabulary(("dx:ICD10:OTHER",))
        with pytest.raises(FingerprintMismatchError):
            check_fingerprint(m, other)

    def test_fingerprint_refusal_names_both_in_full(self, saved, tmp_path):
        _, _, vocab, path = saved
        good = vocab.fingerprint()
        near = good[:-1] + ("1" if good[-1] == "0" else "0")  # differs in the last hex digit only
        edited = rewrite_header(path, lambda h: h.update(vocab_fingerprint=near), str(tmp_path / "near.bin"))
        m, _ = load_model(edited)
        with pytest.raises(FingerprintMismatchError) as info:
            check_fingerprint(m, vocab)
        assert f"(fingerprint {near} != {good})" in str(info.value)


HEADER_DAMAGE = [
    ("no V", lambda h: h.pop("V"), "header lacks V"),
    (
        "unknown hyperparam",
        lambda h: h["hyperparams"].update(dropout=0.5),
        "unknown hyperparams in header: dropout",
    ),
    ("missing hyperparam", lambda h: h["hyperparams"].pop("seed"), "missing hyperparams in header: seed"),
    ("V not an int", lambda h: h.update(V="7"), "header V='7' is not a positive integer"),
    ("hyperparams a list", lambda h: h.update(hyperparams=[]), "header hyperparams is not a JSON object"),
    (
        "learning rate NaN",
        lambda h: h["hyperparams"].update(learning_rate=float("nan")),
        "header nnet.learning_rate must be positive and finite",
    ),
    (
        "batch size not an int",
        lambda h: h["hyperparams"].update(batch_size=2.5),
        "header hyperparam batch_size=2.5 is not an integer",
    ),
    (
        "embedding_dim != d",
        lambda h: h["hyperparams"].update(embedding_dim=7),
        "header hyperparam embedding_dim=7 != d=5",
    ),
    (
        "embedding wider than the cap",
        lambda h: (h.update(d=5000), h["hyperparams"].update(embedding_dim=5000)),
        "header nnet.embedding_dim must be <= 4096",
    ),
]


@pytest.mark.parametrize("case,edit,message", HEADER_DAMAGE, ids=[c for c, _, _ in HEADER_DAMAGE])
def test_checksummed_bad_header_is_corrupt(tmp_path, case, edit, message):
    hp = Hyperparams(embedding_dim=5, hidden1=4, hidden2=3, seed=33)
    path = str(tmp_path / "model.bin")
    save_model(init_model(7, hp), hp, path)
    bad = rewrite_header(path, edit, str(tmp_path / "bad.bin"))
    with pytest.raises(ModelCorruptError, match=re.escape(f"{bad}: {message}")):
        load_model(bad)
