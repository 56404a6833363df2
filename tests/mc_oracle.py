"""Vectorized Monte-Carlo replica of the population generator's onset
distribution. Shares only the config-level pool/activation definitions with
the generator; the per-person sampling chain is re-implemented here in
chunked array form, so disagreement flags a drift in either implementation.
"""

from __future__ import annotations

import datetime

import numpy as np

from smiscreen.synth import (
    AGE_AT_START_RANGE,
    AGE_COEF,
    CANDIDATE_MIN_FRAC,
    DX_FRACTION,
    GENDER_COEF,
    GENDER_PROBS,
    LINK_STEEPNESS,
    MEAN_ACTIVE_DX,
    MEAN_ACTIVE_RX,
    SPAN_DAYS_RANGE,
    TILT,
    SynthConfig,
    _frequency_order,
    activation_probs,
    code_pools,
    dx_frequency_damp,
)


def _distinct_weight_sum(gen, active_mask, counts, n_picks, weights):
    """Sum of weights over the distinct codes hit by uniform picks from
    each draw's active set."""
    n_draws, n_codes = active_mask.shape
    rows, cols = np.nonzero(active_mask)
    row_start = np.searchsorted(rows, np.arange(n_draws))
    draw_ids = np.repeat(np.arange(n_draws), n_picks)
    out = np.zeros(n_draws)
    if draw_ids.size == 0:
        return out
    u = gen.random(draw_ids.size)
    local = (u * counts[draw_ids]).astype(np.int64)
    codes = cols[row_start[draw_ids] + local]
    unique_keys = np.unique(draw_ids * n_codes + codes)
    np.add.at(out, unique_keys // n_codes, weights[unique_keys % n_codes])
    return out


def mc_prevalence(cfg: SynthConfig, n_draws: int, seed: int, chunk: int = 50_000) -> float:
    """Expected SMI onset fraction under the generator's own distributions."""
    pools = code_pools(cfg)
    tilt = TILT[cfg.source]
    n_dx, n_rx = len(pools.dx_all), len(pools.rx)
    pi_dx = activation_probs(
        n_dx, _frequency_order(n_dx, cfg.source, "dx"), tilt, MEAN_ACTIVE_DX, dx_frequency_damp(pools)
    )
    pi_rx = activation_probs(n_rx, _frequency_order(n_rx, cfg.source, "rx"), tilt, MEAN_ACTIVE_RX)
    w_dx = np.array([cfg.risk_weights.get(code, 0.0) for _, code in pools.dx_all])
    w_rx = np.array([cfg.risk_weights.get(code, 0.0) for code in pools.rx])
    gender_coef = np.array([GENDER_COEF[g] for g in ("F", "M", "U")])

    cal_start = datetime.date(cfg.year_min, 1, 1)
    cal_end = datetime.date(cfg.year_max, 12, 31)
    total_days = (cal_end - cal_start).days
    max_span = min(SPAN_DAYS_RANGE[1], total_days + 1)
    min_span = min(SPAN_DAYS_RANGE[0], max_span - 1)

    gen = np.random.default_rng(seed)
    onsets = 0
    remaining = n_draws
    while remaining > 0:
        b = min(chunk, remaining)
        remaining -= b
        span = gen.integers(min_span, max_span, size=b)
        years = span / 365.25
        age = gen.integers(*AGE_AT_START_RANGE, size=b)
        gender = gen.choice(3, size=b, p=GENDER_PROBS)

        active_dx = gen.random((b, n_dx)) < pi_dx
        none_dx = ~active_dx.any(axis=1)
        active_dx[none_dx, int(np.argmax(pi_dx))] = True
        active_rx = gen.random((b, n_rx)) < pi_rx
        none_rx = ~active_rx.any(axis=1)
        active_rx[none_rx, int(np.argmax(pi_rx))] = True
        c_dx = active_dx.sum(axis=1)
        c_rx = active_rx.sum(axis=1)

        n_events = gen.poisson(cfg.event_rate * years)
        candidate = gen.integers((CANDIDATE_MIN_FRAC * span).astype(np.int64), span + 1)
        q = candidate / (span + 1.0)
        # per event: P(dx & pre-candidate) = DX_FRACTION*q etc.; the joint
        # counts are multinomial, decomposed into two binomials
        n_pre_dx = gen.binomial(n_events, DX_FRACTION * q)
        p_rx_given_rest = (1.0 - DX_FRACTION) * q / (1.0 - DX_FRACTION * q)
        n_pre_rx = gen.binomial(n_events - n_pre_dx, p_rx_given_rest)

        logit = cfg.base_logit + AGE_COEF * (age + candidate / 365.25) / 100.0
        logit = logit + gender_coef[gender]
        logit += _distinct_weight_sum(gen, active_dx, c_dx, n_pre_dx, w_dx)
        logit += _distinct_weight_sum(gen, active_rx, c_rx, n_pre_rx, w_rx)

        z = LINK_STEEPNESS * logit
        p_annual = cfg.smi_annual_rate_cap / (1.0 + np.exp(-z))
        p_onset = 1.0 - (1.0 - p_annual) ** years
        onsets += int((gen.random(b) < p_onset).sum())
    return onsets / n_draws
