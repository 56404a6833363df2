"""Finite-difference machinery shared by the unit and acceptance suites,
and model-file header surgery for the load tests."""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from smiscreen.features import FeatureMatrix
from smiscreen.nnet import Hyperparams, _batch_loss, _forward, backward, init_model


def feature_matrix(rows, demographics):
    """FeatureMatrix whose row i holds the indices rows[i], as given, and demographics[i]."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([i for r in rows for i in r], dtype=np.int64)
    return FeatureMatrix(indptr, indices, np.array(demographics, dtype=np.float64).reshape(len(rows), 4))


def row_views(x):
    """Each row's indices as a view into x.indices, so a shuffle of one reorders the row."""
    return [x.indices[lo:hi] for lo, hi in zip(x.indptr, x.indptr[1:])]


def random_model_and_batch(rng, v_max=8, d_max=4, h_max=4, batch_max=4):
    hp = Hyperparams(
        embedding_dim=int(rng.integers(1, d_max + 1)),
        hidden1=int(rng.integers(1, h_max + 1)),
        hidden2=int(rng.integers(1, h_max + 1)),
        seed=int(rng.integers(0, 2**31)),
    )
    v = int(rng.integers(1, v_max + 1))
    m = init_model(v, hp)
    # perturb away from the tiny init so activations are far from ReLU kinks
    for arr in m.arrays().values():
        arr += rng.normal(scale=0.5, size=arr.shape)
    rows, demographics = [], []
    for _ in range(int(rng.integers(1, batch_max + 1))):
        k = int(rng.integers(0, min(v, 4) + 1))
        rows.append(np.sort(rng.choice(v, size=k, replace=False)))
        demographics.append(rng.random(4))
    labels = rng.integers(0, 2, size=len(rows)).astype(np.float64)
    return m, feature_matrix(rows, demographics), labels


def kink_distance(m, batch):
    """Smallest |pre-activation|; tiny values would let the finite
    difference straddle a ReLU kink."""
    _, (_, _, z1, _, z2, _) = _forward(m, batch)
    return min(np.abs(z1).min(), np.abs(z2).min())


def finite_difference_check(m, batch, labels, h=1e-5):
    """Max relative error of analytic gradients vs central differences."""
    grads, _ = backward(m, batch, labels)
    worst = 0.0
    for name, arr in m.arrays().items():
        g = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            p1, _ = _forward(m, batch)
            arr[ix] = orig - h
            p2, _ = _forward(m, batch)
            arr[ix] = orig
            numeric = (_batch_loss(p1, labels) - _batch_loss(p2, labels)) / (2 * h)
            denom = max(abs(numeric), abs(g[ix]), 1e-5)
            worst = max(worst, abs(numeric - g[ix]) / denom)
    return worst


def rewrite_header(path, edit, out):
    """Copy of a model file with `edit` applied to its JSON header and the
    checksum recomputed, so only the header check can catch the damage."""
    blob = pathlib.Path(path).read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = blob[:8] + len(text).to_bytes(8, "little") + text + blob[16 + header_len : -32]
    pathlib.Path(out).write_bytes(body + hashlib.sha256(body).digest())
    return out
