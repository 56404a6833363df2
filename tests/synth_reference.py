"""The per-person synth loop that `synth.generate_population` replaced: one
person at a time, every derived value in Python or small arrays, and the
gender drawn by `Generator.choice`. Tests compare the array passes with it."""

from __future__ import annotations

import datetime

import numpy as np

from smiscreen import rng as rngmod
from smiscreen.datamodel import GENDERS, SOURCES, Code, CodeTable, Dataset, Persons
from smiscreen.dates import civil_from_days, days_from_civil
from smiscreen.synth import (
    AGE_AT_START_RANGE, AGE_COEF, CANDIDATE_MIN_FRAC, DX_FRACTION, GENDER_COEF, GENDER_PROBS, LINK_STEEPNESS,
    MEAN_ACTIVE_DX, MEAN_ACTIVE_RX, SMI_EXTRA_EVENT_MEAN, SPAN_DAYS_RANGE, TILT, GroundTruth, SynthConfig,
    _frequency_order, _sigmoid_scalar, activation_probs, code_pools, dx_frequency_damp,
)


def reference_population(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    cfg.validate()
    pools = code_pools(cfg)
    tilt = TILT[cfg.source]
    n_dx, n_rx = len(pools.dx_all), len(pools.rx)
    pi_dx = activation_probs(
        n_dx, _frequency_order(n_dx, cfg.source, "dx"), tilt, MEAN_ACTIVE_DX, dx_frequency_damp(pools)
    )
    pi_rx = activation_probs(n_rx, _frequency_order(n_rx, cfg.source, "rx"), tilt, MEAN_ACTIVE_RX)
    cal_start, cal_end = days_from_civil((cfg.year_min, cfg.year_max), (1, 12), (1, 31)).tolist()
    total_days = cal_end - cal_start
    max_span = min(SPAN_DAYS_RANGE[1], total_days + 1)
    min_span = min(SPAN_DAYS_RANGE[0], max_span - 1)
    codes = CodeTable(
        [Code("DX", system, code) for system, code in pools.dx_all]
        + [Code("RX", "NDC", code) for code in pools.rx]
        + [Code("DX", system, code) for system, code in pools.smi]
    )
    code_text = [c.code for c in codes.entries]
    rx_base, smi_base = n_dx, n_dx + n_rx

    prefix = "c" if cfg.source == "CLAIMS" else "e"
    ids, person_columns, person_parts, day_parts, code_parts = [], [], [], [], []
    logits: dict[str, float] = {}
    onsets: dict[str, datetime.date | None] = {}
    for i in range(cfg.n_persons):
        pid = f"{prefix}{i:06d}"
        gen = rngmod.stream(cfg.seed, "person", pid)
        span = int(gen.integers(min_span, max_span))
        day0 = cal_start + int(gen.integers(0, total_days - span + 1))
        age_at_start = int(gen.integers(*AGE_AT_START_RANGE))
        gender_pos = int(gen.choice(3, p=GENDER_PROBS))
        active_dx = np.flatnonzero(gen.random(n_dx) < pi_dx)
        if active_dx.size == 0:
            active_dx = np.array([int(np.argmax(pi_dx))])
        active_rx = np.flatnonzero(gen.random(n_rx) < pi_rx)
        if active_rx.size == 0:
            active_rx = np.array([int(np.argmax(pi_rx))])
        span_years = span / 365.25
        n_events = int(gen.poisson(cfg.event_rate * span_years))
        offsets = gen.integers(0, span + 1, size=n_events)
        is_dx = gen.random(n_events) < DX_FRACTION
        n_dx_events = int(is_dx.sum())
        dx_picks = active_dx[gen.integers(0, active_dx.size, size=n_dx_events)]
        rx_picks = active_rx[gen.integers(0, active_rx.size, size=n_events - n_dx_events)]
        candidate_offset = int(gen.integers(int(CANDIDATE_MIN_FRAC * span), span + 1))
        u_onset = float(gen.random())

        event_codes = np.empty(n_events, dtype=np.int64)
        event_codes[is_dx] = dx_picks
        event_codes[~is_dx] = rx_base + rx_picks
        pre_onset_codes = {code_text[c] for c in event_codes[offsets < candidate_offset].tolist()}
        logit = cfg.base_logit + AGE_COEF * (age_at_start + candidate_offset / 365.25) / 100.0
        logit += GENDER_COEF[GENDERS[gender_pos]]
        for code in sorted(pre_onset_codes):
            logit += cfg.risk_weights.get(code, 0.0)
        p_annual = cfg.smi_annual_rate_cap * _sigmoid_scalar(LINK_STEEPNESS * logit)
        p_onset = 1.0 - (1.0 - p_annual) ** span_years

        day_parts.append(day0 + offsets)
        code_parts.append(event_codes)
        n_person_events = n_events
        onset_date = None
        if u_onset < p_onset:
            onset_date = datetime.date.fromordinal(day0 + candidate_offset)
            n_smi = 1 + int(gen.poisson(SMI_EXTRA_EVENT_MEAN))
            smi_offsets = [candidate_offset]
            if n_smi > 1:
                smi_offsets += [int(x) for x in gen.integers(candidate_offset, span + 1, size=n_smi - 1)]
            smi_picks = gen.integers(0, len(pools.smi), size=len(smi_offsets))
            day_parts.append(day0 + np.array(smi_offsets, dtype=np.int64))
            code_parts.append(smi_base + smi_picks)
            n_person_events += len(smi_offsets)
        person_parts.append(np.full(n_person_events, i))
        ids.append(pid)
        person_columns.append((age_at_start, gender_pos, day0, day0 + span))
        logits[pid] = logit
        onsets[pid] = onset_date

    age, gender_pos, start, end = np.array(person_columns, dtype=np.int64).reshape(-1, 4).T
    source = np.full(len(ids), SOURCES.index(cfg.source), dtype=np.int64)
    persons = Persons(ids, civil_from_days(start)[0] - age, gender_pos, start, end, source)
    dataset = Dataset(
        persons, cfg.source, np.concatenate(person_parts), np.concatenate(day_parts), np.concatenate(code_parts), codes
    )
    return dataset, GroundTruth(logits, onsets)
