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

Generation runs over chunks of CHUNK_PERSONS persons, in two parts:
  per person    the draws, kept as one record per person. Each person's
                Generator makes the same calls in the same order, with the
                same bounds and sizes: the golden hashes and the ground-truth
                AUC pin every draw.
  array passes  everything derived from the draws: event codes from the
                active-set picks, event dates, the person columns, and each
                person's distinct pre-onset code texts, whose risk weights one
                ordered `np.add.at` adds in code-text order, as a loop would.
The onset link then runs per person in Python floats (`math.exp`, `**`),
since a vector exp may round differently and flip an onset, and a person
with an onset continues their own stream for their SMI events.
"""

from __future__ import annotations

import bisect
import datetime
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .datamodel import BIRTH_YEARS, GENDERS, SOURCES, Code, CodeTable, Dataset, Persons, distinct, write_table
from .dates import civil_from_days, days_from_civil
from .errors import ConfigError, DataError
from .phecode import (
    TAG_AXIS1, TAG_PSYCH, TAG_SMI, TAG_SUBSTANCE, PhecodeMap, code_tags, load_default_map, phecode_tags
)

DX_FRACTION = 0.78  # remaining events are medication fills
MAX_EVENT_RATE = 1000  # events per person-year, about three a day
MAX_POOL_CODES = 1_000_000  # per code pool; ICD-10-CM has about 70k codes
AGE_COEF = 0.5  # applied to age/100 at the candidate onset date
GENDER_COEF = {"F": 0.0, "M": 0.15, "U": 0.0}
GENDER_PROBS = (0.48, 0.48, 0.04)
GENDER_COEF_BY_POS = np.array([GENDER_COEF[g] for g in GENDERS])
GENDER_CDF = (np.cumsum(GENDER_PROBS) / np.cumsum(GENDER_PROBS)[-1]).tolist()  # normalised as `choice` does
AGE_AT_START_RANGE = (12, 50)  # uniform integer years, upper exclusive
SPAN_DAYS_RANGE = (540, 2161)  # 18..72 months, upper exclusive
TILT = {"CLAIMS": 0.55, "EHR": 0.40}
SMI_EXTRA_EVENT_MEAN = 0.7  # extra SMI-coded events after the onset one
CHUNK_PERSONS = 1024  # persons drawn before the array passes over their draws

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
        if self.source not in SOURCES:
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
        if not mapped <= self.vocab.n_shared_dx <= MAX_POOL_CODES:
            raise ConfigError(f"synth.n_shared_dx must be in [{mapped}, {MAX_POOL_CODES}] to hold the mapped code pool")
        if not 0 <= self.vocab.n_specific_dx <= MAX_POOL_CODES:
            raise ConfigError(f"synth.n_specific_dx must be in [0, {MAX_POOL_CODES}]")
        if not 1 <= self.vocab.n_rx <= MAX_POOL_CODES:
            raise ConfigError(f"synth.n_rx must be in [1, {MAX_POOL_CODES}]")

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


def draw_gender(gen: np.random.Generator) -> int:
    """A gender position, drawn as `gen.choice(3, p=GENDER_PROBS)` draws it
    (one `random()`, then the first cdf bin above it) without its checks."""
    return bisect.bisect_right(GENDER_CDF, gen.random())


class _Space(NamedTuple):
    """What every person's draws and derived columns read."""

    pi_dx: np.ndarray  # activation probabilities
    pi_rx: np.ndarray
    fallback_dx: np.ndarray  # the one active code of a person who draws none
    fallback_rx: np.ndarray
    cal_start: int  # date ordinal of the calendar's first day
    total_days: int
    spans: tuple[int, int]  # enrollment span bounds, upper exclusive
    rx_base: int  # code id of the first rx code; dx codes come first
    smi_base: int  # and of the first SMI code, after the rx codes
    n_smi: int
    text_rank: np.ndarray  # each code id's rank among the distinct code texts
    weight: np.ndarray  # the risk weight of each code text, by rank


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
    texts = sorted({c.code for c in codes.entries})
    rank = {text: r for r, text in enumerate(texts)}
    space = _Space(
        pi_dx=pi_dx, pi_rx=pi_rx,
        fallback_dx=np.array([int(np.argmax(pi_dx))]), fallback_rx=np.array([int(np.argmax(pi_rx))]),
        cal_start=cal_start, total_days=total_days, spans=(min_span, max_span),
        rx_base=n_dx, smi_base=n_dx + n_rx, n_smi=len(pools.smi),
        text_rank=np.array([rank[c.code] for c in codes.entries]),
        weight=np.array([cfg.risk_weights.get(text, 0.0) for text in texts]),
    )

    chunks = [
        _chunk(cfg, space, first, min(first + CHUNK_PERSONS, cfg.n_persons))
        for first in range(0, cfg.n_persons, CHUNK_PERSONS)
    ]
    ids, logits, onsets, columns = zip(*chunks)
    del chunks
    ids, logits, onsets = (list(itertools.chain.from_iterable(part)) for part in (ids, logits, onsets))
    age, gender_pos, start, end, pos, day, code = map(np.concatenate, zip(*columns))
    del columns
    # valid by construction: `SynthConfig.validate` keeps every birth year loadable
    source = np.full(len(ids), SOURCES.index(cfg.source), dtype=np.int64)
    persons = Persons(ids, civil_from_days(start)[0] - age, gender_pos, start, end, source)
    dataset = Dataset(persons, cfg.source, pos, day, code, codes)
    return dataset, GroundTruth(dict(zip(ids, logits)), dict(zip(ids, onsets)))


def _chunk(cfg: SynthConfig, s: _Space, first: int, stop: int) -> tuple[list, list, list, tuple]:
    """Persons first..stop-1: their ids, latent logits and onset dates, and
    the columns of their age at start, gender position and enrollment
    ordinals, then of their events as int32 person positions, date ordinals
    and code ids (the chunk's SMI events after the others).

    The draws run person by person, each from its own stream, in a fixed
    order; everything derived from them runs as array passes over the
    chunk. Only a person with an onset draws again, after the passes."""
    prefix = "c" if cfg.source == "CLAIMS" else "e"
    ids = [f"{prefix}{i:06d}" for i in range(first, stop)]
    gens = [rngmod.stream(cfg.seed, "person", pid) for pid in ids]
    n_dx, n_rx = s.pi_dx.size, s.pi_rx.size
    draws = []
    for gen in gens:
        span = int(gen.integers(*s.spans))
        start_offset = int(gen.integers(0, s.total_days - span + 1))
        age = int(gen.integers(*AGE_AT_START_RANGE))
        gender = draw_gender(gen)
        # persistently active codes; guarantee at least one per kind
        dx_codes = (gen.random(n_dx) < s.pi_dx).nonzero()[0]
        if not dx_codes.size:
            dx_codes = s.fallback_dx
        rx_codes = (gen.random(n_rx) < s.pi_rx).nonzero()[0]
        if not rx_codes.size:
            rx_codes = s.fallback_rx
        n_events = int(gen.poisson(cfg.event_rate * (span / 365.25)))
        offsets = gen.integers(0, span + 1, size=n_events)
        dx = gen.random(n_events) < DX_FRACTION
        n_dx_events = int(np.count_nonzero(dx))  # a NumPy int size costs `integers` more
        dx_picks = gen.integers(0, dx_codes.size, size=n_dx_events)
        rx_picks = gen.integers(0, rx_codes.size, size=n_events - n_dx_events)
        candidate = int(gen.integers(int(CANDIDATE_MIN_FRAC * span), span + 1))
        draws.append(((span, start_offset, age, gender, candidate), gen.random(), dx_codes, rx_codes,
                      offsets, dx, dx_picks, rx_picks))
    scalars, u_onset, active_dx, active_rx, offsets, is_dx, dx_picks, rx_picks = zip(*draws)

    span, start_offset, age, gender, candidate = np.array(scalars, dtype=np.int64).T
    day0 = s.cal_start + start_offset
    person = np.repeat(np.arange(stop - first), [o.size for o in offsets])
    offset = np.concatenate(offsets)
    dx = np.concatenate(is_dx)
    # the j-th dx (rx) event of a person takes their j-th dx (rx) pick
    code = np.empty(offset.size, dtype=np.int64)
    code[dx] = _picked(active_dx, dx_picks, person[dx])
    code[~dx] = s.rx_base + _picked(active_rx, rx_picks, person[~dx])

    logit = cfg.base_logit + AGE_COEF * (age + candidate / 365.25) / 100.0
    logit += GENDER_COEF_BY_POS[gender]
    # each person's distinct pre-onset code texts, their weights added one at a time in
    # text order by the unbuffered `add.at` (a set's order follows the string hash seed)
    pre = offset < candidate[person]
    n_texts = s.weight.size
    who, text = np.divmod(distinct(person[pre] * n_texts + s.text_rank[code[pre]]), n_texts)
    np.add.at(logit, who, s.weight[text])

    # the onset link in Python floats: a vector exp may round differently
    cap = cfg.smi_annual_rate_cap
    logits = logit.tolist()
    onsets: list[datetime.date | None] = [None] * len(ids)
    smi_person: list[int] = []
    smi_offset: list[int] = []
    smi_pick: list[int] = []
    for j, (z, days, c, u) in enumerate(zip(logits, span.tolist(), candidate.tolist(), u_onset)):
        p_annual = cap * _sigmoid_scalar(LINK_STEEPNESS * z)
        if u < 1.0 - (1.0 - p_annual) ** (days / 365.25):
            onsets[j] = datetime.date.fromordinal(int(day0[j]) + c)
            gen = gens[j]
            n_smi = 1 + int(gen.poisson(SMI_EXTRA_EVENT_MEAN))
            smi_person += [j] * n_smi
            smi_offset.append(c)
            if n_smi > 1:
                smi_offset += gen.integers(c, days + 1, size=n_smi - 1).tolist()
            smi_pick += gen.integers(0, s.n_smi, size=n_smi).tolist()
    del gens

    person = np.concatenate([person, np.array(smi_person, dtype=np.int64)])
    offset = np.concatenate([offset, np.array(smi_offset, dtype=np.int64)])
    code = np.concatenate([code, s.smi_base + np.array(smi_pick, dtype=np.int64)])
    events = (first + person, day0[person] + offset, code)
    columns = (age, gender, day0, day0 + span, *(col.astype(np.int32) for col in events))
    return ids, logits, onsets, columns


def _picked(active: tuple[np.ndarray, ...], picks: tuple[np.ndarray, ...], owner: np.ndarray) -> np.ndarray:
    """The codes picked: person p's picks index active[p], and `owner`
    names the person of each pick in order."""
    size = np.array([a.size for a in active])
    return np.concatenate(active)[(np.cumsum(size) - size)[owner] + np.concatenate(picks)]


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
