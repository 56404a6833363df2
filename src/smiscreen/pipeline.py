"""End-to-end orchestration: config, deterministic splits, run modes.

Splitting is by match group, not by individual: a case and its matched
controls always land in the same split, otherwise near-duplicate windows
would leak across the train/test boundary. The vocabulary is built from
the training split only, and the decision threshold is chosen on the
validation split, so nothing downstream of TRAIN/VAL ever sees test data.

Every mode except `synth` and `cohort` starts from `prepare` (cohort,
split, per-split labels). The training modes add `fit` (train-split
vocabulary, features, training from `init(vocab)`): scratch `init_model`
for `train`, `transfer_init` from a pretrained or base model for
`two-step` and `use-case`. Featurization is a few array passes per
split, so the `threads` setting is accepted and has no effect.

Every run writes its artifacts under one output directory: cohort.csv,
vocabulary.txt, model.bin, report.json, report.csv, manifest.json. Reruns
with the same config and seed are byte-identical except for the manifest
and report timestamps.
"""

from __future__ import annotations

import contextlib
import datetime as _datetime
import json
import math
import operator
import os
import re
from collections.abc import Callable, Collection
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from . import rng as rngmod
from .cohort import (
    ALL_AGE,
    COHORT_KINDS,
    SUBSTANCE,
    Cohort,
    CohortBuildStats,
    build_cohort,
    prevalence,
    write_cohort,
)
from .datamodel import SOURCES, Dataset, distinct, write_events, write_persons
from .errors import ConfigError, DataError, DegenerateCohortError
from .evaluation import (
    EvalReport,
    ScoredSet,
    auc,
    benchmark_predictions,
    evaluate_benchmark,
    evaluate_model,
    read_report_json,
    write_report_csv,
    write_report_json,
)
from .features import (
    FeatureMatrix,
    Vocabulary,
    build_vocabulary,
    featurize_split,
    intersect_vocabularies,
    load_vocabulary,
    write_vocabulary,
)
from .nnet import (
    Hyperparams,
    ModelParams,
    TrainingLog,
    check_fingerprint,
    check_transfer_dims,
    init_model,
    load_model,
    restrict_model,
    save_model,
    score_batch,
    train,
    transfer_init,
)
from .phecode import PhecodeMap, load_default_map, parse_phecode_map
from .synth import SynthConfig, default_risk_weights, generate_population, write_ground_truth

try:  # optional; when absent, BLAS pinning relies on the *_NUM_THREADS variables
    from threadpoolctl import threadpool_limits
except ImportError:
    threadpool_limits = None

# The BLAS thread-count variables as this process started with them, which
# is when NumPy's BLAS read them; None for an unset one.
BLAS_THREAD_ENV = {
    name: os.environ.get(name)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
}

TRAIN, VAL, TEST = "TRAIN", "VAL", "TEST"
SPLITS = (TRAIN, VAL, TEST)

MODEL_FILE = "model.bin"
VOCAB_FILE = "vocabulary.txt"


@contextlib.contextmanager
def stage(name: str):
    """Tag propagated errors with the pipeline stage that raised them."""
    try:
        yield
    except (ConfigError, DataError, DegenerateCohortError) as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _limit_blas_threads():
    """Pin BLAS pools to one thread while training so numeric results do
    not depend on the host's core count; a no-op without threadpoolctl,
    when only BLAS_THREAD_ENV can have pinned them."""
    return threadpool_limits(limits=1) if threadpool_limits else contextlib.nullcontext()


@dataclass
class SplitFractions:
    train: float = 0.60
    val: float = 0.10
    test: float = 0.30

    def validate(self) -> None:
        parts = {f"split.{name}": getattr(self, name) for name in ("train", "val", "test")}
        for key, value in parts.items():
            if not 0 < value < 1:  # also refuses NaN
                raise ConfigError(f"{key} must lie in (0, 1), got {value}")
        if abs(sum(parts.values()) - 1.0) > 1e-9:
            raise ConfigError(f"{' + '.join(parts)} must sum to 1, got {sum(parts.values())}")


@dataclass
class SplitAssignment:
    by_group: dict[str, str]  # match_group -> TRAIN/VAL/TEST

    def split_examples(self, cohort: Cohort) -> dict[str, Cohort]:
        """The sub-cohort of each split, in cohort order."""
        groups, group_at = np.unique(cohort.group, return_inverse=True)
        split_of = np.array([SPLITS.index(self.by_group[cohort.ids[g]]) for g in groups.tolist()])
        return {name: cohort[split_of[group_at] == j] for j, name in enumerate(SPLITS)}


def split_cohort(cohort: Cohort, fractions: SplitFractions, seed: int) -> SplitAssignment:
    """Shuffle match groups and partition by largest-remainder rounding."""
    fractions.validate()
    if not cohort:
        raise DegenerateCohortError("cannot split an empty cohort")
    groups = [cohort.ids[g] for g in distinct(cohort.group).tolist()]  # rows ascend as ids do
    order = rngmod.stream(seed, "split").permutation(len(groups))
    shuffled = [groups[i] for i in order]
    n = len(groups)
    fracs = (fractions.train, fractions.val, fractions.test)
    sizes = [int(f * n) for f in fracs]
    remainders = [f * n - s for f, s in zip(fracs, sizes)]
    for _ in range(n - sum(sizes)):
        i = max(range(3), key=lambda j: (remainders[j], -j))
        sizes[i] += 1
        remainders[i] = -1.0
    names = [name for name, size in zip(SPLITS, sizes) for _ in range(size)]
    assignment = SplitAssignment(dict(zip(shuffled, names)))
    splits = assignment.split_examples(cohort)
    for name in SPLITS:
        if set(distinct(splits[name].label).tolist()) != {0, 1}:
            raise DegenerateCohortError(
                f"{name} split is single-class or empty "
                f"(cohort prevalence {prevalence(cohort):.4f}); "
                "try a different seed or a larger cohort"
            )
    return assignment


# A decimal number in ASCII: an optional minus, digits with an optional
# fraction, an optional exponent; every finite float's repr matches. float()
# alone also takes "1_0", " 1.5", "+1", "nan" and non-ASCII digits.
DECIMAL = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _finite_float(text: str) -> float:
    """float(text) of an ASCII decimal (see `DECIMAL`), refusing NaN and
    +-inf: every comparison with NaN is False, so range checks downstream
    would let it through."""
    value = float(text) if DECIMAL.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _ascii_int(text: str) -> int:
    """int(text) of an optional minus and ASCII digits only: int() alone
    also takes "1_0", "+5" and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _one_of(choices: Collection[str]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {sorted(choices)}")
        return text

    return parse


# Every config key: the parser of its text value, then the dotted RunConfig
# attribute it sets. `from_mapping` parses through this table and `flat`
# echoes it into manifest.json.
CONFIG_KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    "data.persons": (str, "persons_path"),
    "data.events": (str, "events_path"),
    "data.phecode_map": (str, "phecode_map_path"),
    "pretrain.persons": (str, "pretrain_persons_path"),
    "pretrain.events": (str, "pretrain_events_path"),
    "out": (str, "out_dir"),
    "cohort.kind": (_one_of(COHORT_KINDS), "cohort_kind"),
    "cohort.controls_per_case": (_ascii_int, "controls_per_case"),
    "split.train": (_finite_float, "fractions.train"),
    "split.val": (_finite_float, "fractions.val"),
    "split.test": (_finite_float, "fractions.test"),
    "nnet.embedding_dim": (_ascii_int, "hp.embedding_dim"),
    "nnet.hidden1": (_ascii_int, "hp.hidden1"),
    "nnet.hidden2": (_ascii_int, "hp.hidden2"),
    "nnet.learning_rate": (_finite_float, "hp.learning_rate"),
    "nnet.batch_size": (_ascii_int, "hp.batch_size"),
    "nnet.max_epochs": (_ascii_int, "hp.max_epochs"),
    "nnet.patience": (_ascii_int, "hp.patience"),
    "synth.n_persons": (_ascii_int, "synth.n_persons"),
    "synth.source": (_one_of(SOURCES), "synth.source"),
    "synth.event_rate": (_finite_float, "synth.event_rate"),
    "synth.base_logit": (_finite_float, "synth.base_logit"),
    "synth.rate_cap": (_finite_float, "synth.smi_annual_rate_cap"),
    "synth.n_shared_dx": (_ascii_int, "synth.vocab.n_shared_dx"),
    "synth.n_specific_dx": (_ascii_int, "synth.vocab.n_specific_dx"),
    "synth.n_rx": (_ascii_int, "synth.vocab.n_rx"),
    "synth.year_min": (_ascii_int, "synth.year_min"),
    "synth.year_max": (_ascii_int, "synth.year_max"),
    "seed": (_ascii_int, "seed"),
    "threads": (_ascii_int, "threads"),
}


@dataclass
class RunConfig:
    persons_path: str = ""
    events_path: str = ""
    phecode_map_path: str = ""  # empty -> packaged default
    pretrain_persons_path: str = ""
    pretrain_events_path: str = ""
    out_dir: str = "out"
    cohort_kind: str = ALL_AGE
    controls_per_case: int = 10
    fractions: SplitFractions = field(default_factory=SplitFractions)
    hp: Hyperparams = field(default_factory=Hyperparams)
    seed: int = 42
    threads: int = 1
    synth: SynthConfig | None = None

    @classmethod
    def from_file(cls, path: str | None, overrides: dict[str, str] | None = None) -> "RunConfig":
        flat = parse_config_file(path) if path else {}
        return cls.from_mapping({**flat, **(overrides or {})})

    @classmethod
    def from_mapping(cls, flat: dict[str, str]) -> "RunConfig":
        cfg = cls()
        if any(key.startswith("synth.") for key in flat):
            # None marks the fields that must be given or get a per-source default
            cfg.synth = SynthConfig(n_persons=None, source=None, event_rate=None)
        for key, text in flat.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            parse, path = CONFIG_KEYS[key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: bad value {text!r}") from exc
            owner, _, name = path.rpartition(".")
            setattr(operator.attrgetter(owner)(cfg) if owner else cfg, name, value)
        cfg.hp.seed = cfg.seed
        if (synth := cfg.synth) is not None:
            if synth.n_persons is None or synth.source is None:
                raise ConfigError("synth runs need synth.n_persons and synth.source")
            if synth.event_rate is None:  # the CLI's EHR rate differs from SynthConfig's
                synth.event_rate = 6.5 if synth.source == "EHR" else SynthConfig.event_rate
            synth.seed = cfg.seed
            synth.validate()
            synth.risk_weights = default_risk_weights(synth)
        if not cfg.out_dir:
            raise ConfigError("out must name a directory, got ''")
        cfg.fractions.validate()
        cfg.hp.validate()
        if cfg.threads < 1:
            raise ConfigError("threads must be >= 1")
        if cfg.controls_per_case < 0:
            raise ConfigError("cohort.controls_per_case must be >= 0")
        return cfg

    def flat(self) -> dict[str, object]:
        """The config echoed into manifest.json: every key, with an empty
        phecode map shown as <packaged>, plus `nnet.seed`; the pretrain.*
        keys only when set and the synth.* keys only when synth is."""
        out: dict[str, object] = {"nnet.seed": self.hp.seed}
        for key, (_, path) in CONFIG_KEYS.items():
            if key.startswith("synth.") and self.synth is None:
                continue
            value = operator.attrgetter(path)(self)
            if key.startswith("pretrain.") and not value:
                continue
            out[key] = (value or "<packaged>") if path == "phecode_map_path" else value
        return out


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value config; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
                key, _, value = text.partition("=")
                key = key.strip()
                if key in out:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                out[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def version_string() -> str:
    return f"smiscreen-{__version__}"


def _timestamp() -> str:
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat()


def load_inputs(cfg: RunConfig) -> tuple[Dataset, PhecodeMap]:
    with stage("load"):
        if not cfg.persons_path or not cfg.events_path:
            raise ConfigError("data.persons and data.events are required")
        dataset = Dataset.from_files(cfg.persons_path, cfg.events_path)
        path = cfg.phecode_map_path
        return dataset, parse_phecode_map(path) if path else load_default_map()


def _write_manifest(cfg: RunConfig, mode: str, counts: dict[str, object], out_dir: str) -> None:
    manifest = {
        "mode": mode,
        "config": cfg.flat(),
        "seed": cfg.seed,
        "version": version_string(),
        "counts": counts,
        "timestamp": _timestamp(),
        "blas_pinned": threadpool_limits is not None or all(v == "1" for v in BLAS_THREAD_ENV.values()),
        "blas_thread_env": BLAS_THREAD_ENV,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class Prepared:
    """A cohort and its splits: what every run mode starts from."""

    dataset: Dataset
    phemap: PhecodeMap
    cohort: Cohort
    stats: CohortBuildStats
    splits: dict[str, Cohort]
    labels: dict[str, np.ndarray]

    def counts(self) -> dict[str, object]:
        return _cohort_counts(self.dataset, self.cohort, self.stats, self.splits)


@dataclass
class FittedSource(Prepared):
    """A prepared cohort plus its train-split vocabulary, features and model."""

    vocab: Vocabulary
    features: dict[str, FeatureMatrix]
    model: ModelParams
    log: TrainingLog


def prepare(cfg: RunConfig, dataset: Dataset, phemap: PhecodeMap) -> Prepared:
    """Cohort -> match-group split -> per-split labels."""
    with stage("cohort"):
        cohort, stats = build_cohort(dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case)
    with stage("split"):
        splits = split_cohort(cohort, cfg.fractions, cfg.seed).split_examples(cohort)
    labels = {name: splits[name].label.astype(np.float64) for name in SPLITS}
    return Prepared(dataset, phemap, cohort, stats, splits, labels)


def _featurize(
    prepared: Prepared, vocab: Vocabulary, names: tuple[str, ...]
) -> dict[str, FeatureMatrix]:
    return {name: featurize_split(prepared.splits[name], prepared.dataset, vocab) for name in names}


def _auc_eval(scores: np.ndarray, labels: np.ndarray) -> float:
    return auc(ScoredSet(scores, labels.astype(np.int64)))


def fit(
    cfg: RunConfig, prepared: Prepared, init: Callable[[Vocabulary], ModelParams]
) -> FittedSource:
    """Train-split vocabulary -> features -> train from `init(vocab)`."""
    with stage("features"):
        vocab = build_vocabulary(prepared.splits[TRAIN], prepared.dataset)
        features = _featurize(prepared, vocab, SPLITS)
    labels = prepared.labels
    with stage("train"):
        model0 = init(vocab)
        with _limit_blas_threads():
            model, log = train(
                model0, features[TRAIN], labels[TRAIN], features[VAL], labels[VAL], cfg.hp, _auc_eval
            )
    return FittedSource(**vars(prepared), vocab=vocab, features=features, model=model, log=log)


def fit_source(cfg: RunConfig, dataset: Dataset, phemap: PhecodeMap) -> FittedSource:
    """Cohort -> split -> train-split vocabulary -> train from scratch."""
    return fit(
        cfg,
        prepare(cfg, dataset, phemap),
        lambda vocab: init_model(len(vocab), cfg.hp, vocab.fingerprint()),
    )


def _benchmark_reports(prepared: Prepared) -> list[EvalReport]:
    """BENCH1/BENCH2 on the test split; substance cohorts drop substance
    codes from the trigger sets."""
    kind, d = prepared.cohort.kind, prepared.dataset
    preds = benchmark_predictions(prepared.splits[TEST], d, prepared.phemap, kind == SUBSTANCE)
    return [
        evaluate_benchmark(p, prepared.labels[TEST], method=method, dataset=d.source, cohort_kind=kind)
        for method, p in preds.items()
    ]


def _model_report(
    prepared: Prepared, model: ModelParams, features: dict[str, FeatureMatrix], method: str
) -> EvalReport:
    """Threshold on VAL, metrics on TEST."""
    with _limit_blas_threads():
        val_scores = score_batch(model, features[VAL])
        test_scores = score_batch(model, features[TEST])
    return evaluate_model(
        ScoredSet(val_scores, prepared.labels[VAL].astype(np.int64)),
        ScoredSet(test_scores, prepared.labels[TEST].astype(np.int64)),
        method=method,
        dataset=prepared.dataset.source,
        cohort_kind=prepared.cohort.kind,
    )


def _cohort_counts(
    dataset: Dataset, cohort: Cohort, stats: CohortBuildStats, splits: dict | None = None
) -> dict[str, object]:
    """The cohort's filter chain for manifest.json, the same in every mode
    that builds a cohort; `split_sizes` only when the cohort was split."""
    cases = int(cohort.label.sum())
    counts = {
        "persons": len(dataset.persons),
        **asdict(stats),
        "cases_retained": cases,
        "controls": len(cohort) - cases,
        "examples": len(cohort),
        "prevalence": prevalence(cohort),
    }
    if splits is not None:
        counts["split_sizes"] = {name: len(splits[name]) for name in SPLITS}
    return counts


def _counts(fitted: FittedSource) -> dict[str, object]:
    return {**fitted.counts(), "vocabulary": len(fitted.vocab), **asdict(fitted.log)}


def _emit(
    cfg: RunConfig,
    mode: str,
    counts: dict[str, object],
    *,
    cohort: Cohort | None = None,
    vocab: Vocabulary | None = None,
    model: ModelParams | None = None,
    reports: list[EvalReport] | None = None,
) -> None:
    """Write the given artifacts, then manifest.json, under cfg.out_dir."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    if cohort is not None:
        write_cohort(cohort, os.path.join(out, "cohort.csv"))
    if vocab is not None:
        write_vocabulary(vocab, os.path.join(out, VOCAB_FILE))
    if model is not None:
        save_model(model, cfg.hp, os.path.join(out, MODEL_FILE))
    if reports is not None:
        json_path, version = os.path.join(out, "report.json"), version_string()
        write_report_json(reports, json_path, seed=cfg.seed, version=version, timestamp=_timestamp())
        write_report_csv(reports, os.path.join(out, "report.csv"))
    _write_manifest(cfg, mode, counts, out)


def _report_fitted(
    cfg: RunConfig, fitted: FittedSource, mode: str, method: str = "MODEL", benchmarks: bool = True
) -> list[EvalReport]:
    """Evaluate a fitted model (plus the benchmarks) and write every artifact."""
    with stage("evaluate"):
        reports = [_model_report(fitted, fitted.model, fitted.features, method)]
        if benchmarks:
            reports.extend(_benchmark_reports(fitted))
    _emit(cfg, mode, _counts(fitted), cohort=fitted.cohort, vocab=fitted.vocab,
          model=fitted.model, reports=reports)
    return reports


def run_synth(cfg: RunConfig) -> dict[str, str]:
    """Generate a population and write persons/events/ground-truth CSVs."""
    if cfg.synth is None:
        raise ConfigError("synth mode needs synth.* config keys")
    with stage("synth"):
        dataset, truth = generate_population(cfg.synth)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    paths = {
        "persons": os.path.join(out, "persons.csv"),
        "events": os.path.join(out, "events.csv"),
        "ground_truth": os.path.join(out, "ground_truth.csv"),
    }
    write_persons(dataset.persons, paths["persons"])
    write_events(dataset, paths["events"])
    write_ground_truth(truth, paths["ground_truth"])
    n_onsets = sum(1 for v in truth.onset_date.values() if v is not None)
    _emit(cfg, "synth", {"persons": len(dataset.persons), "events": dataset.n_events, "onsets": n_onsets})
    return paths


def run_cohort(cfg: RunConfig) -> Cohort:
    """Build and write the configured cohort without splitting or training:
    a valid cohort may be too small for two-class splits."""
    dataset, phemap = load_inputs(cfg)
    with stage("cohort"):
        cohort, stats = build_cohort(dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case)
    _emit(cfg, "cohort", _cohort_counts(dataset, cohort, stats), cohort=cohort)
    return cohort


def run_single_source(cfg: RunConfig) -> list[EvalReport]:
    """Train and evaluate one source: model row plus both benchmark rows."""
    dataset, phemap = load_inputs(cfg)
    return _report_fitted(cfg, fit_source(cfg, dataset, phemap), "train")


def run_bench(cfg: RunConfig) -> list[EvalReport]:
    """Benchmarks only, on the test split of the configured cohort."""
    prepared = prepare(cfg, *load_inputs(cfg))
    with stage("evaluate"):
        reports = _benchmark_reports(prepared)
    _emit(cfg, "bench", prepared.counts(), cohort=prepared.cohort, reports=reports)
    return reports


def load_model_dir(model_dir: str) -> tuple[ModelParams, Hyperparams, Vocabulary]:
    if not model_dir:
        raise ConfigError("--model-dir must name a directory, got ''")
    with stage("load-model"):
        model, hp = load_model(os.path.join(model_dir, MODEL_FILE))
        vocab = load_vocabulary(os.path.join(model_dir, VOCAB_FILE))
        try:
            check_fingerprint(model, vocab)
        except DataError as exc:  # the two files disagree: name their directory
            raise type(exc)(f"{model_dir}: {exc}") from None
    return model, hp, vocab


def run_cross_eval(cfg: RunConfig, model_dir: str) -> list[EvalReport]:
    """Score a foreign dataset with a trained model, restricted to the
    overlap of the two vocabularies. Only VAL and TEST are featurized."""
    model, model_hp, model_vocab = load_model_dir(model_dir)
    prepared = prepare(cfg, *load_inputs(cfg))
    with stage("features"):
        target_vocab = build_vocabulary(prepared.splits[TRAIN], prepared.dataset)
        shared = intersect_vocabularies(model_vocab, target_vocab)
        restricted = restrict_model(model, model_vocab, shared)
        features = _featurize(prepared, shared, (VAL, TEST))
    with stage("evaluate"):
        reports = [_model_report(prepared, restricted, features, "MODEL")]
    counts = {
        **prepared.counts(),
        "model_vocabulary": len(model_vocab),
        "target_vocabulary": len(target_vocab),
        "shared_vocabulary": len(shared),
        "model_hyperparams": asdict(model_hp),
    }
    _emit(cfg, "cross-eval", counts, cohort=prepared.cohort, vocab=shared, reports=reports)
    return reports


def run_two_step(cfg: RunConfig) -> list[EvalReport]:
    """Pretrain on one source, transfer the parameters, fine-tune and
    evaluate on the target source."""
    if not cfg.pretrain_persons_path or not cfg.pretrain_events_path:
        raise ConfigError("two-step mode needs pretrain.persons and pretrain.events")
    pre_cfg = replace(
        cfg, persons_path=cfg.pretrain_persons_path, events_path=cfg.pretrain_events_path
    )
    pretrained = fit_source(pre_cfg, *load_inputs(pre_cfg))
    prepared = prepare(cfg, *load_inputs(cfg))
    fitted = fit(cfg, prepared, partial(transfer_init, pretrained.model, pretrained.vocab, hp=cfg.hp))
    return _report_fitted(cfg, fitted, "two-step", method="TWO_STEP", benchmarks=False)


def run_use_case(cfg: RunConfig, model_dir: str) -> list[EvalReport]:
    """Fine-tune a trained base model on a use-case cohort and evaluate it
    against both benchmarks. A base model whose layer sizes differ from the
    configured ones is rejected before the data is read."""
    if cfg.cohort_kind == ALL_AGE:
        raise ConfigError("use-case mode needs cohort.kind=AGE18 or SUBSTANCE")
    base_model, _, base_vocab = load_model_dir(model_dir)
    check_transfer_dims(base_model, cfg.hp)
    prepared = prepare(cfg, *load_inputs(cfg))
    fitted = fit(cfg, prepared, partial(transfer_init, base_model, base_vocab, hp=cfg.hp))
    return _report_fitted(cfg, fitted, "use-case")


def run_report_merge(inputs: list[str], out_dir: str) -> str:
    """Combine one or more report.json files into a single report.csv."""
    rows = [row for path in inputs for row in read_report_json(path)]
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "report.csv")
    write_report_csv(rows, out_path)
    return out_path
