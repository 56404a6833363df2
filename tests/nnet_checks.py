"""Finite-difference machinery shared by the unit and acceptance suites,
and model-file header surgery for the load tests."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from smiscreen.features import FeatureVector
from smiscreen.nnet import Hyperparams, _batch_loss, _forward_batch, backward, init_model


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
    batch = []
    for _ in range(int(rng.integers(1, batch_max + 1))):
        k = int(rng.integers(0, min(v, 4) + 1))
        idx = rng.choice(v, size=k, replace=False).astype(np.int64)
        batch.append(FeatureVector(np.sort(idx), rng.random(4)))
    labels = rng.integers(0, 2, size=len(batch)).astype(np.float64)
    return m, batch, labels


def kink_distance(m, batch):
    """Smallest |pre-activation|; tiny values would let the finite
    difference straddle a ReLU kink."""
    _, (_, z1, _, z2, _) = _forward_batch(m, batch)
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
            p1, _ = _forward_batch(m, batch)
            arr[ix] = orig - h
            p2, _ = _forward_batch(m, batch)
            arr[ix] = orig
            numeric = (_batch_loss(p1, labels) - _batch_loss(p2, labels)) / (2 * h)
            denom = max(abs(numeric), abs(g[ix]), 1e-5)
            worst = max(worst, abs(numeric - g[ix]) / denom)
    return worst


def rewrite_header(path, edit, out):
    """Copy of a model file with `edit` applied to its JSON header and the
    checksum recomputed, so only the header check can catch the damage."""
    blob = open(path, "rb").read()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = blob[:8] + len(text).to_bytes(8, "little") + text + blob[16 + header_len : -32]
    open(out, "wb").write(body + hashlib.sha256(body).digest())
    return out
