"""Sparse-input neural classifier with hand-rolled backpropagation.

Architecture: an embedding table over the code vocabulary, a mean pool
over each example's code set (zero vector when the set is empty), the
4-dim demographic vector concatenated onto the pooled embedding, two
ReLU feedforward layers, and a single sigmoid output unit.

Gradients are exact analytic derivatives of the mean binary cross-entropy
over a batch, a `FeatureMatrix` whose rows' code indices strictly increase
(`_averaging_matrix` refuses any other row with a DataError); the mean
pool is a product with the averaging matrix A that `_forward` builds, so
its chain rule is A.T @ d_pooled.
Updates use adaptive moment estimation (decay 0.9/0.999, eps 1e-8).

The forward pass, the gradients and the update compute in the dtype of the
parameters. `train` rounds its input model to float32 once and trains in
float32: parameters, both moments, the averaging matrix, activations and
gradients. It returns the best epoch upcast to float64, which is exact, so
stored and scored models are float64. The logged loss is float64 either way.
Everything is deterministic in the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, DataError, DegenerateCohortError
from .features import DEMOGRAPHICS_DIM, FeatureMatrix, Vocabulary

_MAGIC = b"SMSC"
_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_PARAM_FIELDS = ("embedding", "w1", "b1", "w2", "b2", "w_out", "b_out")


class ModelVersionError(DataError):
    """Model file written by an incompatible format version."""


class ModelCorruptError(DataError):
    """Model file truncated or failing its integrity check."""


class FingerprintMismatchError(DataError):
    """Model parameters bound to a different vocabulary."""


@dataclass
class Hyperparams:
    embedding_dim: int = 300
    hidden1: int = 128
    hidden2: int = 64
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def validate(self) -> None:
        for name in ("embedding_dim", "hidden1", "hidden2", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"hyperparameter {name} must be >= 1")
        if not 0 < self.learning_rate < float("inf"):  # also refuses NaN
            raise ConfigError("learning_rate must be positive and finite")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")


@dataclass
class ModelParams:
    embedding: np.ndarray  # (V, d)
    w1: np.ndarray  # (d + 4, h1)
    b1: np.ndarray  # (h1,)
    w2: np.ndarray  # (h1, h2)
    b2: np.ndarray  # (h2,)
    w_out: np.ndarray  # (h2,)
    b_out: np.ndarray  # (1,)
    vocab_fingerprint: str = ""

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden1(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden2(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_FIELDS}

    def astype(self, dtype) -> "ModelParams":
        """A copy whose arrays are cast to `dtype`."""
        arrays = (a.astype(dtype) for a in self.arrays().values())
        return ModelParams(*arrays, vocab_fingerprint=self.vocab_fingerprint)


@dataclass
class OptimizerState:
    first_moment: ModelParams
    second_moment: ModelParams
    step: int = 0

    @classmethod
    def zeros_like(cls, m: ModelParams) -> "OptimizerState":
        return cls(*(ModelParams(*map(np.zeros_like, m.arrays().values())) for _ in range(2)))


@dataclass
class TrainingLog:
    train_loss: list[float] = field(default_factory=list)
    val_auc: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_val_auc: float = float("-inf")
    epochs_run: int = 0


def init_model(vocab_size: int, hp: Hyperparams, vocab_fingerprint: str = "") -> ModelParams:
    """Fresh parameters: uniform(-0.05, 0.05) embeddings, He-scaled dense
    weights (variance 2/fan_in, ReLU-appropriate), zero biases."""
    if vocab_size < 1:
        raise ConfigError("vocabulary size must be >= 1")
    hp.validate()
    gen = rngmod.stream(hp.seed, "init")
    d, h1, h2 = hp.embedding_dim, hp.hidden1, hp.hidden2
    fan_in = d + DEMOGRAPHICS_DIM
    return ModelParams(
        embedding=gen.uniform(-0.05, 0.05, size=(vocab_size, d)),
        w1=gen.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, h1)),
        b1=np.zeros(h1),
        w2=gen.normal(0.0, np.sqrt(2.0 / h1), size=(h1, h2)),
        b2=np.zeros(h2),
        w_out=gen.normal(0.0, np.sqrt(2.0 / h2), size=h2),
        b_out=np.zeros(1),
        vocab_fingerprint=vocab_fingerprint,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _averaging_matrix(x: FeatureMatrix, vocab_size: int, dtype: np.dtype) -> np.ndarray:
    """The n×V mean-pool matrix of `x` in `dtype`: A[i, c] is 1/k_i at each of row i's
    k_i code indices, and an empty row gives a zero row. The float64 weight rounds once
    into the zeroed matrix. A row whose indices do not strictly increase is refused
    (the `FeatureMatrix` contract). The bounds check comes first: a negative index
    would wrap, and an out-of-range one could make the keys look increasing."""
    bad = x.indices[(x.indices < 0) | (x.indices >= vocab_size)]
    if bad.size:
        raise DataError(f"feature index {int(bad[0])} out of range for V={vocab_size}")
    counts = np.diff(x.indptr)
    rows = np.repeat(np.arange(len(x)), counts)
    keys = rows * vocab_size + x.indices
    unsorted = np.flatnonzero(keys[1:] <= keys[:-1])
    if unsorted.size:
        raise DataError(f"feature row {int(rows[unsorted[0] + 1])} is not sorted and unique")
    avg = np.zeros(len(x) * vocab_size, dtype=dtype)
    avg[keys] = 1.0 / counts[rows]
    return avg.reshape(len(x), vocab_size)


def _forward(m: ModelParams, x: FeatureMatrix):
    """Scores and activations, in the dtype of `m`: a float64 averaging matrix or
    demographics block would promote a float32 model's whole step to float64."""
    dtype = m.embedding.dtype
    avg = _averaging_matrix(x, m.vocab_size, dtype)
    inputs = np.concatenate([avg @ m.embedding, x.demographics], axis=1, dtype=dtype)
    z1 = inputs @ m.w1 + m.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ m.w2 + m.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ m.w_out + m.b_out[0]
    p = _sigmoid(z3)
    return p, (avg, inputs, z1, a1, z2, a2)


def score_batch(m: ModelParams, batch: FeatureMatrix) -> np.ndarray:
    """Scores of the rows of `batch`."""
    p, _ = _forward(m, batch)
    if not np.all(np.isfinite(p)):
        raise DataError("non-finite model output")
    return p


def _batch_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean BCE, in float64 whatever the dtype of `p`: in float32 the upper clip
    rounds to 1.0, and a saturated probability would log an infinite loss."""
    q = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return float(np.mean(-(y * np.log(q) + (1 - y) * np.log1p(-q))))


def backward(m: ModelParams, batch: FeatureMatrix, labels: np.ndarray) -> tuple[ModelParams, float]:
    """Analytic gradients, as ModelParams, of the mean BCE loss over the batch."""
    if not batch:
        raise DataError("backward requires a non-empty batch")
    y = np.asarray(labels, dtype=m.embedding.dtype)
    p, (avg, inputs, z1, a1, z2, a2) = _forward(m, batch)
    n = len(batch)
    loss = _batch_loss(p, y)

    dz3 = (p - y) / n  # d(mean BCE)/dz3 through the sigmoid
    d_w_out = a2.T @ dz3
    d_b_out = np.array([dz3.sum()])
    da2 = np.outer(dz3, m.w_out)
    dz2 = da2 * (z2 > 0.0)
    d_w2 = a1.T @ dz2
    d_b2 = dz2.sum(axis=0)
    da1 = dz2 @ m.w2.T
    dz1 = da1 * (z1 > 0.0)
    d_w1 = inputs.T @ dz1
    d_b1 = dz1.sum(axis=0)
    d_inputs = dz1 @ m.w1.T

    d_embedding = avg.T @ d_inputs[:, : m.embedding_dim]

    return ModelParams(d_embedding, d_w1, d_b1, d_w2, d_b2, d_w_out, d_b_out), loss


def adam_step(m: ModelParams, grads: ModelParams, state: OptimizerState, lr: float) -> None:
    """In-place adaptive-moment update with bias correction, in the dtype of `m`.
    The scalars are Python floats: a NumPy float64 scalar would promote a float32
    update to float64 under NumPy 2."""
    state.step += 1
    t = state.step
    lr = float(lr)
    scale1 = 1.0 - ADAM_BETA1**t
    scale2 = 1.0 - ADAM_BETA2**t
    for name in _PARAM_FIELDS:
        param, g = getattr(m, name), getattr(grads, name)
        mom, vel = getattr(state.first_moment, name), getattr(state.second_moment, name)
        mom *= ADAM_BETA1
        mom += (1.0 - ADAM_BETA1) * g
        vel *= ADAM_BETA2
        vel += (1.0 - ADAM_BETA2) * np.square(g)
        param -= lr * (mom / scale1) / (np.sqrt(vel / scale2) + ADAM_EPS)


def train(
    m: ModelParams,
    train_features: FeatureMatrix,
    train_labels: np.ndarray,
    val_features: FeatureMatrix,
    val_labels: np.ndarray,
    hp: Hyperparams,
    eval_fn,
) -> tuple[ModelParams, TrainingLog]:
    """Minibatch training with early stopping on validation AUC.

    Training runs in float32 on a rounded copy of `m`, which is not mutated.
    The returned model is the best epoch's snapshot, upcast exactly to float64.
    Shuffling is deterministic in (seed, epoch), so a rerun with identical
    inputs reproduces the log bit for bit.
    """
    hp.validate()
    if not train_features or not val_features:
        raise DegenerateCohortError("training and validation sets must be non-empty")
    val_y = np.asarray(val_labels, dtype=np.float64)
    if len(set(val_y.tolist())) < 2:
        raise DegenerateCohortError("validation set is single-class; cannot track AUC")
    train_y = np.asarray(train_labels, dtype=np.float32)

    model = m.astype(np.float32)
    state = OptimizerState.zeros_like(model)
    log = TrainingLog()
    best = model.astype(np.float64)
    since_improvement = 0
    n = len(train_features)
    for epoch in range(1, hp.max_epochs + 1):
        order = rngmod.stream(hp.seed, "shuffle", epoch).permutation(n)
        total_loss = 0.0
        for lo in range(0, n, hp.batch_size):
            sel = order[lo : lo + hp.batch_size]
            grads, loss = backward(model, train_features.rows(sel), train_y[sel])
            adam_step(model, grads, state, hp.learning_rate)
            total_loss += loss * len(sel)
        scores = score_batch(model, val_features)
        auc = float(eval_fn(scores, val_y))
        log.train_loss.append(total_loss / n)
        log.val_auc.append(auc)
        log.epochs_run = epoch
        if auc > log.best_val_auc:
            log.best_val_auc = auc
            log.best_epoch = epoch
            best = model.astype(np.float64)
            since_improvement = 0
        else:
            since_improvement += 1
        if since_improvement >= hp.patience:
            break
    return best, log


def _reseat(
    m: ModelParams,
    vocab: Vocabulary,
    target: Vocabulary,
    fresh_rows: Callable[[int, int], np.ndarray] | None,
) -> ModelParams:
    """Copy of `m` bound to `target`. Embedding rows of codes in both
    vocabularies are copied; the rows of target codes foreign to `vocab`
    come from `fresh_rows(n, d)` in target order, or are a DataError when
    there is no `fresh_rows`. Dense layers are copied verbatim: mean
    pooling keeps their input width independent of V."""
    index = vocab.index
    rows = np.array([index.get(code, -1) for code in target.entries], dtype=np.int64)
    foreign = rows < 0
    n_foreign = int(foreign.sum())
    if n_foreign and fresh_rows is None:
        raise DataError(f"restricted vocabulary has {n_foreign} codes foreign to the model")
    embedding = m.embedding[np.where(foreign, 0, rows)]
    if n_foreign:
        embedding[foreign] = fresh_rows(n_foreign, m.embedding_dim)
    dense = {name: getattr(m, name).copy() for name in _PARAM_FIELDS[1:]}
    return ModelParams(embedding, **dense, vocab_fingerprint=target.fingerprint())


def restrict_model(m: ModelParams, vocab: Vocabulary, shared: Vocabulary) -> ModelParams:
    """Project a model onto a sub-vocabulary: keep the embedding rows of
    shared codes, dense layers unchanged."""
    return _reseat(m, vocab, shared, None)


def check_transfer_dims(pre: ModelParams, hp: Hyperparams) -> None:
    """Refuse to transfer a model whose layer sizes differ from `hp`."""
    if (pre.embedding_dim, pre.hidden1, pre.hidden2) != (hp.embedding_dim, hp.hidden1, hp.hidden2):
        raise ConfigError(
            f"transfer dimension mismatch: pretrained (d={pre.embedding_dim}, "
            f"h1={pre.hidden1}, h2={pre.hidden2}) vs requested "
            f"(d={hp.embedding_dim}, h1={hp.hidden1}, h2={hp.hidden2})"
        )


def transfer_init(
    pre: ModelParams, pre_vocab: Vocabulary, target_vocab: Vocabulary, hp: Hyperparams
) -> ModelParams:
    """Re-seat a trained model onto a new vocabulary; rows for target-only
    codes are freshly initialized like `init_model` does."""
    check_transfer_dims(pre, hp)
    gen = rngmod.stream(hp.seed, "transfer")
    return _reseat(pre, pre_vocab, target_vocab, lambda n, d: gen.uniform(-0.05, 0.05, size=(n, d)))


def check_fingerprint(m: ModelParams, vocab: Vocabulary) -> None:
    """Refuse to score a model against a vocabulary it was not built on,
    or whose header carries no fingerprint to tell."""
    if len(vocab) != m.vocab_size:
        raise FingerprintMismatchError(f"model has V={m.vocab_size} but its vocabulary has {len(vocab)} codes")
    if not m.vocab_fingerprint:
        raise FingerprintMismatchError("model header has an empty vocab_fingerprint")
    if m.vocab_fingerprint != vocab.fingerprint():
        raise FingerprintMismatchError(
            "model was trained against a different vocabulary "
            f"(fingerprint {m.vocab_fingerprint} != {vocab.fingerprint()})"
        )


def save_model(m: ModelParams, hp: Hyperparams, path: str) -> None:
    """Versioned container: magic, format version, JSON header (shapes,
    hyperparams, vocab fingerprint), float64 little-endian arrays in fixed
    order, then a SHA-256 of everything preceding it."""
    header = {
        "format_version": _FORMAT_VERSION,
        "V": m.vocab_size,
        "d": m.embedding_dim,
        "h1": m.hidden1,
        "h2": m.hidden2,
        "hyperparams": asdict(hp),
        "vocab_fingerprint": m.vocab_fingerprint,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _FORMAT_VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for name in _PARAM_FIELDS:
        arr = np.ascontiguousarray(getattr(m, name), dtype="<f8")
        blob += arr.tobytes(order="C")
    blob += hashlib.sha256(bytes(blob)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _expected_shapes(v: int, d: int, h1: int, h2: int) -> dict[str, tuple[int, ...]]:
    return {
        "embedding": (v, d),
        "w1": (d + DEMOGRAPHICS_DIM, h1),
        "b1": (h1,),
        "w2": (h1, h2),
        "b2": (h2,),
        "w_out": (h2,),
        "b_out": (1,),
    }


def _check_header(header: object, path: str) -> Hyperparams:
    """Hyperparams of a model header whose checksum passed; a missing,
    unknown, mistyped or invalid key, or layer sizes that disagree with the
    hyperparams, is a ModelCorruptError."""
    if not isinstance(header, dict):
        raise ModelCorruptError(f"{path}: header is not a JSON object")
    missing = [k for k in ("V", "d", "h1", "h2", "hyperparams", "vocab_fingerprint") if k not in header]
    if missing:
        raise ModelCorruptError(f"{path}: header lacks {', '.join(missing)}")
    for key in ("V", "d", "h1", "h2"):
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ModelCorruptError(f"{path}: header {key}={value!r} is not a positive integer")
    if not isinstance(header["vocab_fingerprint"], str):
        raise ModelCorruptError(f"{path}: header vocab_fingerprint is not a string")
    raw = header["hyperparams"]
    if not isinstance(raw, dict):
        raise ModelCorruptError(f"{path}: header hyperparams is not a JSON object")
    names = {f.name for f in fields(Hyperparams)}
    for what, keys in (("unknown", set(raw) - names), ("missing", names - set(raw))):
        if keys:
            raise ModelCorruptError(f"{path}: {what} hyperparams in header: {', '.join(sorted(keys))}")
    for f in fields(Hyperparams):
        value = raw[f.name]
        want, what = ((int, float), "a number") if f.type == "float" else (int, "an integer")
        if isinstance(value, bool) or not isinstance(value, want):
            raise ModelCorruptError(f"{path}: header hyperparam {f.name}={value!r} is not {what}")
    for key, dim in (("embedding_dim", "d"), ("hidden1", "h1"), ("hidden2", "h2")):
        if raw[key] != header[dim]:
            raise ModelCorruptError(f"{path}: header hyperparam {key}={raw[key]} != {dim}={header[dim]}")
    hp = Hyperparams(**raw)
    try:
        hp.validate()
    except ConfigError as exc:
        raise ModelCorruptError(f"{path}: header {exc}") from None
    return hp


def load_model(path: str) -> tuple[ModelParams, Hyperparams]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 4 + 8 + 32 or blob[: len(_MAGIC)] != _MAGIC:
        raise ModelCorruptError(f"{path}: not a model file")
    digest = blob[-32:]
    body = blob[:-32]
    if hashlib.sha256(body).digest() != digest:
        raise ModelCorruptError(f"{path}: integrity check failed (truncated or corrupted)")
    offset = len(_MAGIC)
    (version,) = struct.unpack_from("<I", body, offset)
    offset += 4
    if version != _FORMAT_VERSION:
        raise ModelVersionError(f"{path}: format version {version}, expected {_FORMAT_VERSION}")
    (header_len,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    try:
        header = json.loads(body[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelCorruptError(f"{path}: unreadable header") from exc
    offset += header_len
    hp = _check_header(header, path)
    shapes = _expected_shapes(header["V"], header["d"], header["h1"], header["h2"])
    arrays: dict[str, np.ndarray] = {}
    for name in _PARAM_FIELDS:
        shape = shapes[name]
        count = math.prod(shape)  # Python ints: a crafted header must not wrap
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise ModelCorruptError(f"{path}: parameter block {name} truncated")
        arrays[name] = (
            np.frombuffer(body, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += nbytes
    if offset != len(body):
        raise ModelCorruptError(f"{path}: {len(body) - offset} trailing bytes")
    model = ModelParams(**arrays, vocab_fingerprint=header["vocab_fingerprint"])
    if not all(np.all(np.isfinite(a)) for a in arrays.values()):
        raise ModelCorruptError(f"{path}: non-finite parameter values")
    return model, hp
