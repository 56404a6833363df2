"""Seeded synthetic populations with known SMI ground truth.

Stands in for the restricted claims/EHR warehouses so the whole pipeline
is verifiable. Each person gets an enrollment span, demographics, a set
of persistently active conditions (codes that recur across their whole
record, like chronic diagnoses and refilled medications), a stream of
coded events drawn from those active codes, and a latent risk logit

    base_logit + sum of risk_weights over distinct pre-onset codes
               + age and gender terms,

from which SMI onset is drawn (annual onset probability = rate cap times
the logistic of the latent logit, compounded over the enrollment span).
SMI-mapped diagnosis codes are emitted at or after onset, never before.
Because active codes recur, any 12-month observation window exposes most
of a person's profile, which is what makes windowed features learnable.

Source shift between CLAIMS-like and EHR-like outputs comes from partially
disjoint code pools, different event rates, and different code-frequency
tilts. All randomness is keyed by hash(seed, person_id), so generation is
person-parallel and bit-reproducible regardless of scheduling.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .datamodel import (
    BIRTH_YEARS, DECIMAL, GENDERS, SOURCES, Code, CodeTable, Dataset, Persons, _date, read_table, table_rows,
    write_table,
)
from .dates import civil_from_days, days_from_civil
from .errors import ConfigError, DataError
from .phecode import (
    TAG_AXIS1, TAG_PSYCH, TAG_SMI, TAG_SUBSTANCE, PhecodeMap, code_tags, load_default_map, phecode_tags
)

DX_FRACTION = 0.78  # remaining events are medication fills
MAX_EVENT_RATE = 1000  # events per person-year, about three a day
AGE_COEF = 0.5  # applied to age/100 at the candidate onset date
GENDER_COEF = {"F": 0.0, "M": 0.15, "U": 0.0}
GENDER_PROBS = (0.48, 0.48, 0.04)
AGE_AT_START_RANGE = (12, 50)  # uniform integer years, upper exclusive
SPAN_DAYS_RANGE = (540, 2161)  # 18..72 months, upper exclusive
TILT = {"CLAIMS": 0.55, "EHR": 0.40}
SMI_EXTRA_EVENT_MEAN = 0.7  # extra SMI-coded events after the onset one

# how many pool codes carry planted risk weight in the default config
FILLER_SIGNAL, FILLER_PROTECTIVE = 30, 20
RX_SIGNAL, RX_PROTECTIVE = 12, 6
SPECIFIC_SIGNAL = 15

# keeps first-substance-diagnosis indexing from swallowing the population
SUBSTANCE_FREQ_DAMP = 0.45

# mean number of persistently active codes per person, and the cap on any
# single code's activation probability
MEAN_ACTIVE_DX = 7.0
MEAN_ACTIVE_RX = 3.0
ACTIVATION_CAP = 0.35

# candidate onset dates are drawn from the later part of enrollment so a
# case's record has accumulated before its gap and window are carved out
CANDIDATE_MIN_FRAC = 0.45

# steepness of the onset link: annual rate = cap * sigmoid(steepness * logit)
LINK_STEEPNESS = 2.0

_SPECIFIC_PREFIX = {"CLAIMS": "CSP", "EHR": "ESP"}
GROUND_TRUTH_HEADER = ["person_id", "latent_logit", "onset_date"]


@dataclass
class VocabConfig:
    n_shared_dx: int = 180  # includes the mapped psychiatric/chronic codes
    n_specific_dx: int = 60  # per-source synthetic dx codes
    n_rx: int = 80  # shared medication codes


@dataclass
class SynthConfig:
    n_persons: int
    source: str
    vocab: VocabConfig = field(default_factory=VocabConfig)
    risk_weights: dict[str, float] = field(default_factory=dict)
    base_logit: float = -4.9
    smi_annual_rate_cap: float = 0.25
    event_rate: float = 9.0  # mean events per person-year
    year_range: tuple[int, int] = (2008, 2019)
    seed: int = 42

    def validate(self) -> None:
        """Refuse values the generator cannot use, naming their config keys."""
        if self.n_persons < 1:
            raise ConfigError("synth.n_persons must be >= 1")
        if self.source not in ("CLAIMS", "EHR"):
            raise ConfigError(f"synth.source: unknown source {self.source!r}")
        if not 0 < self.event_rate <= MAX_EVENT_RATE:
            raise ConfigError(f"synth.event_rate must be in (0, {MAX_EVENT_RATE}] events per person-year")
        if not 0.0 < self.smi_annual_rate_cap < 1.0:
            raise ConfigError("synth.rate_cap must be in (0, 1)")
        years = "synth.year_min, synth.year_max: need"
        # birth year = enrollment start year - AGE_AT_START_RANGE, and persons.csv must load it back
        lo, hi = BIRTH_YEARS[0] + AGE_AT_START_RANGE[1] - 1, BIRTH_YEARS[1] + AGE_AT_START_RANGE[0]
        if not lo <= self.year_range[0] <= self.year_range[1] <= hi:
            raise ConfigError(f"{years} {lo} <= year_min <= year_max <= {hi} for loadable birth years, "
                              f"got {self.year_range}")
        mapped = len(_mapped_base_codes(load_default_map()))
        if self.vocab.n_shared_dx < mapped:
            raise ConfigError(f"synth.n_shared_dx must be >= {mapped} to hold the mapped code pool")
        if self.vocab.n_specific_dx < 0:
            raise ConfigError("synth.n_specific_dx must be >= 0")
        if self.vocab.n_rx < 1:
            raise ConfigError("synth.n_rx must be >= 1")

    @classmethod
    def default(cls, source: str, n_persons: int, seed: int = 42) -> "SynthConfig":
        """Config with planted signal: positive weights on axis I codes, a
        disjoint block of non-psychiatric codes, some medications, and a
        block of source-specific codes (the part cross-source transfer
        cannot carry over)."""
        cfg = cls(
            n_persons=n_persons,
            source=source,
            seed=seed,
            event_rate=9.0 if source == "CLAIMS" else 10.5,
        )
        cfg.risk_weights = default_risk_weights(cfg)
        return cfg


@dataclass
class GroundTruth:
    latent_logit: dict[str, float]
    onset_date: dict[str, datetime.date | None]

    def labels(self) -> dict[str, int]:
        return {pid: int(d is not None) for pid, d in self.onset_date.items()}


@dataclass(frozen=True, eq=False)
class CodePools:
    """Code universe for one source; (system, code) pairs for diagnoses."""

    smi: tuple[tuple[str, str], ...]
    dx_shared: tuple[tuple[str, str], ...]  # identical across sources
    dx_specific: tuple[tuple[str, str], ...]
    rx: tuple[str, ...]  # shared across sources
    dx_tags: np.ndarray  # phecode TAG_* bits of each dx_all code

    @property
    def dx_all(self) -> tuple[tuple[str, str], ...]:
        return self.dx_shared + self.dx_specific


def _mapped_base_codes(m: PhecodeMap) -> list[tuple[str, str]]:
    """Every mapped ICD code that is not SMI-defining (safe pre-onset)."""
    return sorted(k for k, v in m.entries.items() if not phecode_tags(v) & TAG_SMI)


def code_pools(cfg: SynthConfig) -> CodePools:
    m = load_default_map()
    mapped = _mapped_base_codes(m)
    n_filler = cfg.vocab.n_shared_dx - len(mapped)
    filler = [("ICD10", f"SYN{i:04d}") for i in range(n_filler)]
    prefix = _SPECIFIC_PREFIX[cfg.source]
    specific = [("ICD10", f"{prefix}{i:04d}") for i in range(cfg.vocab.n_specific_dx)]
    rx = tuple(f"{50000 + i:05d}-{i % 97:02d}" for i in range(cfg.vocab.n_rx))
    return CodePools(
        smi=tuple(sorted(k for k, v in m.entries.items() if phecode_tags(v) & TAG_SMI)),
        dx_shared=tuple(mapped + filler),
        dx_specific=tuple(specific),
        rx=rx,
        dx_tags=code_tags(m, [Code("DX", *k) for k in mapped + filler + specific]),
    )


def default_risk_weights(cfg: SynthConfig) -> dict[str, float]:
    """Planted signal: axis I and other psychiatric codes raise risk (so
    the benchmarks work), a disjoint block of non-psychiatric filler codes
    and some medications raise it further (visible to the model only), and
    source-specific codes carry the part cross-source transfer loses."""
    pools = code_pools(cfg)
    weights: dict[str, float] = {}
    for (_, code), tags in zip(pools.dx_shared, pools.dx_tags):
        if tags & TAG_AXIS1:
            weights[code] = 0.90
        elif tags & TAG_SUBSTANCE:
            weights[code] = 0.55  # tobacco rows; 316/317 already hit via axis1
        elif tags & TAG_PSYCH:
            weights[code] = 0.50
    filler = [code for system, code in pools.dx_shared if code.startswith("SYN")]
    for code in filler[:FILLER_SIGNAL]:
        weights[code] = 1.40
    for code in filler[FILLER_SIGNAL : FILLER_SIGNAL + FILLER_PROTECTIVE]:
        weights[code] = -0.70
    for code in pools.rx[:RX_SIGNAL]:
        weights[code] = 0.80
    for code in pools.rx[RX_SIGNAL : RX_SIGNAL + RX_PROTECTIVE]:
        weights[code] = -0.40
    for _, code in pools.dx_specific[:SPECIFIC_SIGNAL]:
        weights[code] = 1.10
    return weights


def _frequency_order(n: int, source: str, what: str) -> np.ndarray:
    """Rank permutation giving each source its own code-frequency profile.

    Salted by source only (not the run seed), so two seeds of the same
    source share a frequency structure while CLAIMS and EHR differ."""
    return rngmod.stream("synth-pool-order", source, what).permutation(n)


def activation_probs(
    n: int, order: np.ndarray, tilt: float, mean_active: float, damp: np.ndarray | None = None
) -> np.ndarray:
    """Per-code probability of being persistently active for a person.

    Rank-tilted so each source has common and rare codes; scaled to put
    roughly `mean_active` codes on an average person, with a hard cap so
    no single code saturates.
    """
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(1, n + 1)
    w = ranks**-tilt
    if damp is not None:
        w = w * damp
    return np.minimum(w * (mean_active / w.sum()), ACTIVATION_CAP)


def dx_frequency_damp(pools: CodePools) -> np.ndarray:
    """Per-code activation multipliers for the dx pool."""
    return np.where(pools.dx_tags & TAG_SUBSTANCE, SUBSTANCE_FREQ_DAMP, 1.0)


def _sigmoid_scalar(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def generate_population(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Deterministic population draw; see the module docstring for the
    generative mechanism. Validates the config before touching anything."""
    cfg.validate()
    pools = code_pools(cfg)
    tilt = TILT[cfg.source]
    n_dx = len(pools.dx_all)
    n_rx = len(pools.rx)
    pi_dx = activation_probs(
        n_dx, _frequency_order(n_dx, cfg.source, "dx"), tilt, MEAN_ACTIVE_DX, dx_frequency_damp(pools)
    )
    pi_rx = activation_probs(
        n_rx, _frequency_order(n_rx, cfg.source, "rx"), tilt, MEAN_ACTIVE_RX
    )

    cal_start, cal_end = days_from_civil(cfg.year_range, (1, 12), (1, 31)).tolist()
    total_days = cal_end - cal_start
    max_span = min(SPAN_DAYS_RANGE[1], total_days + 1)
    min_span = min(SPAN_DAYS_RANGE[0], max_span - 1)

    # code ids: the dx pool, then the rx pool, then the SMI codes
    codes = CodeTable(
        [Code("DX", system, code) for system, code in pools.dx_all]
        + [Code("RX", "NDC", code) for code in pools.rx]
        + [Code("DX", system, code) for system, code in pools.smi]
    )
    code_text = [c.code for c in codes.entries]
    rx_base = n_dx
    smi_base = n_dx + n_rx

    prefix = "c" if cfg.source == "CLAIMS" else "e"
    ids: list[str] = []
    person_columns: list[tuple[int, int, int, int]] = []  # age at start, gender, enrollment ordinals
    person_parts: list[np.ndarray] = []
    day_parts: list[np.ndarray] = []
    code_parts: list[np.ndarray] = []
    logits: dict[str, float] = {}
    onsets: dict[str, datetime.date | None] = {}

    for i in range(cfg.n_persons):
        pid = f"{prefix}{i:06d}"
        gen = rngmod.stream(cfg.seed, "person", pid)

        span = int(gen.integers(min_span, max_span))
        start_offset = int(gen.integers(0, total_days - span + 1))
        day0 = cal_start + start_offset
        age_at_start = int(gen.integers(*AGE_AT_START_RANGE))
        gender_pos = int(gen.choice(3, p=GENDER_PROBS))
        gender = GENDERS[gender_pos]

        # persistently active codes; guarantee at least one per kind
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

        # the j-th dx (rx) event takes the j-th dx (rx) pick
        event_codes = np.empty(n_events, dtype=np.int64)
        event_codes[is_dx] = dx_picks
        event_codes[~is_dx] = rx_base + rx_picks
        pre_onset_codes = {code_text[c] for c in event_codes[offsets < candidate_offset].tolist()}

        logit = cfg.base_logit + AGE_COEF * (age_at_start + candidate_offset / 365.25) / 100.0
        logit += GENDER_COEF[gender]
        # sorted: a set's order follows the per-process string hash seed
        for code in sorted(pre_onset_codes):
            logit += cfg.risk_weights.get(code, 0.0)
        p_annual = cfg.smi_annual_rate_cap * _sigmoid_scalar(LINK_STEEPNESS * logit)
        p_onset = 1.0 - (1.0 - p_annual) ** span_years

        day_parts.append(day0 + offsets)
        code_parts.append(event_codes)
        n_person_events = n_events
        onset_date: datetime.date | None = None
        if u_onset < p_onset:
            onset_date = datetime.date.fromordinal(day0 + candidate_offset)
            n_smi = 1 + int(gen.poisson(SMI_EXTRA_EVENT_MEAN))
            smi_offsets = [candidate_offset]
            if n_smi > 1:
                smi_offsets += [
                    int(x) for x in gen.integers(candidate_offset, span + 1, size=n_smi - 1)
                ]
            smi_picks = gen.integers(0, len(pools.smi), size=len(smi_offsets))
            day_parts.append(day0 + np.array(smi_offsets, dtype=np.int64))
            code_parts.append(smi_base + smi_picks)
            n_person_events += len(smi_offsets)
        person_parts.append(np.full(n_person_events, i))

        ids.append(pid)
        person_columns.append((age_at_start, gender_pos, day0, day0 + span))
        logits[pid] = logit
        onsets[pid] = onset_date

    # valid by construction: `SynthConfig.validate` keeps every birth year loadable
    age, gender_pos, start, end = np.array(person_columns, dtype=np.int64).reshape(-1, 4).T
    source = np.full(len(ids), SOURCES.index(cfg.source), dtype=np.int64)
    persons = Persons(ids, civil_from_days(start)[0] - age, gender_pos, start, end, source)
    dataset = Dataset(
        persons,
        cfg.source,
        np.concatenate(person_parts),
        np.concatenate(day_parts),
        np.concatenate(code_parts),
        codes,
    )
    return dataset, GroundTruth(logits, onsets)


def ground_truth_auc(gt: GroundTruth, labels: dict[str, int]) -> float:
    """Rank AUC of the true latent logits against realized labels; the
    latent logit is the score an oracle would use, so this upper-bounds a
    trained model's expected test AUC."""
    from .evaluation import ScoredSet, auc

    pids = sorted(labels)
    if not pids:
        raise DataError("ground_truth_auc: empty label set")
    scores = np.array([gt.latent_logit[pid] for pid in pids])
    y = np.array([labels[pid] for pid in pids])
    return auc(ScoredSet(scores, y))


def write_ground_truth(gt: GroundTruth, path: str) -> None:
    """ground_truth.csv: person_id,latent_logit,onset_date (empty if none)."""
    rows = (
        [pid, repr(gt.latent_logit[pid]), gt.onset_date.get(pid) or ""] for pid in sorted(gt.latent_logit)
    )
    write_table(path, "ground_truth.csv", GROUND_TRUTH_HEADER, rows)


def load_ground_truth(path: str) -> GroundTruth:
    logits: dict[str, float] = {}
    onsets: dict[str, datetime.date | None] = {}
    for block in read_table(path, "ground_truth.csv", GROUND_TRUTH_HEADER):
        for line, pid, logit_raw, onset_raw in table_rows(block, 3):
            where = f"{path}:{line}"
            if pid in logits:
                raise DataError(f"{where}: duplicate person_id {pid!r}")
            try:
                logit = float(logit_raw)
            except ValueError:
                logit = None
            if logit is not None and not math.isfinite(logit):
                raise DataError(f"{where}: non-finite latent_logit {logit_raw!r}")
            if logit is None or not DECIMAL.fullmatch(logit_raw):
                raise DataError(f"{where}: unparseable latent_logit {logit_raw!r}")
            logits[pid] = logit
            onsets[pid] = onset = _date(onset_raw) if onset_raw else None
            if onset_raw and onset is None:
                raise DataError(f"{where}: unparseable date {onset_raw!r}")
    return GroundTruth(logits, onsets)
