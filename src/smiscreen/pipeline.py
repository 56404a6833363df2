"""End-to-end orchestration: config, deterministic splits, run modes.

Splitting is by match group, not by individual: a case and its matched
controls always land in the same split, otherwise near-duplicate windows
would leak across the train/test boundary. The vocabulary is built from
the training split only, and the decision threshold is chosen on the
validation split, so nothing downstream of TRAIN/VAL ever sees test data.

Every run writes its artifacts under one output directory: cohort.csv,
vocabulary.txt, model.bin, report.json, report.csv, manifest.json. Reruns
with the same config and seed are byte-identical except for the manifest
and report timestamps.
"""

from __future__ import annotations

import contextlib
import datetime as _datetime
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from . import rng as rngmod
from .cohort import (
    ALL_AGE,
    SUBSTANCE,
    CohortBuildStats,
    CohortExample,
    build_cohort,
    prevalence,
    write_cohort,
)
from .datamodel import Dataset, validate_dataset, write_events, write_persons
from .errors import ConfigError, DataError, DegenerateCohortError
from .evaluation import (
    EvalReport,
    ScoredSet,
    auc,
    benchmark1,
    benchmark2,
    evaluate_benchmark,
    evaluate_model,
    write_report_csv,
    write_report_json,
)
from .features import (
    FeatureVector,
    Vocabulary,
    build_vocabulary,
    featurize,
    intersect_vocabularies,
    load_vocabulary,
    write_vocabulary,
)
from .nnet import (
    Hyperparams,
    ModelParams,
    TrainingLog,
    check_fingerprint,
    init_model,
    load_model,
    save_model,
    score_batch,
    train,
    transfer_init,
)
from .phecode import PhecodeMap, load_default_map, parse_phecode_map
from .synth import SynthConfig, VocabConfig, default_risk_weights, generate_population, write_ground_truth

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
    not depend on the host's core count."""
    try:
        from threadpoolctl import threadpool_limits

        return threadpool_limits(limits=1)
    except ImportError:
        return contextlib.nullcontext()


def parallel_map(fn, items, threads: int):
    """Order-preserving map; results are independent of `threads`."""
    if threads <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass
class SplitFractions:
    train: float = 0.60
    val: float = 0.10
    test: float = 0.30

    def validate(self) -> None:
        parts = (self.train, self.val, self.test)
        if any(f <= 0 for f in parts):
            raise ConfigError("split fractions must be positive")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(parts)}")


@dataclass
class SplitAssignment:
    by_group: dict[str, str]  # match_group -> TRAIN/VAL/TEST

    def split_examples(self, examples: list[CohortExample]) -> dict[str, list[CohortExample]]:
        out: dict[str, list[CohortExample]] = {name: [] for name in SPLITS}
        for ex in examples:
            out[self.by_group[ex.match_group]].append(ex)
        return out


def split_cohort(
    examples: list[CohortExample], fractions: SplitFractions, seed: int
) -> SplitAssignment:
    """Shuffle match groups and partition by largest-remainder rounding."""
    fractions.validate()
    if not examples:
        raise DegenerateCohortError("cannot split an empty cohort")
    groups = sorted({ex.match_group for ex in examples})
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
    by_group: dict[str, str] = {}
    cursor = 0
    for name, size in zip(SPLITS, sizes):
        for g in shuffled[cursor : cursor + size]:
            by_group[g] = name
        cursor += size
    assignment = SplitAssignment(by_group)
    splits = assignment.split_examples(examples)
    for name in SPLITS:
        labels = {ex.label for ex in splits[name]}
        if labels != {0, 1}:
            raise DegenerateCohortError(
                f"{name} split is single-class or empty "
                f"(cohort prevalence {prevalence(examples):.4f}); "
                "try a different seed or a larger cohort"
            )
    return assignment


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
        flat: dict[str, str] = {}
        if path:
            flat.update(parse_config_file(path))
        if overrides:
            flat.update(overrides)
        return cls.from_mapping(flat)

    @classmethod
    def from_mapping(cls, flat: dict[str, str]) -> "RunConfig":
        cfg = cls()
        known = {
            "data.persons": ("persons_path", str),
            "data.events": ("events_path", str),
            "data.phecode_map": ("phecode_map_path", str),
            "pretrain.persons": ("pretrain_persons_path", str),
            "pretrain.events": ("pretrain_events_path", str),
            "out": ("out_dir", str),
            "cohort.kind": ("cohort_kind", str),
            "cohort.controls_per_case": ("controls_per_case", int),
            "seed": ("seed", int),
            "threads": ("threads", int),
        }
        split_keys = {"split.train": "train", "split.val": "val", "split.test": "test"}
        nnet_keys = {
            "nnet.embedding_dim": ("embedding_dim", int),
            "nnet.hidden1": ("hidden1", int),
            "nnet.hidden2": ("hidden2", int),
            "nnet.learning_rate": ("learning_rate", float),
            "nnet.batch_size": ("batch_size", int),
            "nnet.max_epochs": ("max_epochs", int),
            "nnet.patience": ("patience", int),
        }
        synth_keys = {
            "synth.n_persons": int,
            "synth.source": str,
            "synth.event_rate": float,
            "synth.base_logit": float,
            "synth.rate_cap": float,
            "synth.n_shared_dx": int,
            "synth.n_specific_dx": int,
            "synth.n_rx": int,
            "synth.year_min": int,
            "synth.year_max": int,
        }
        synth_raw: dict[str, str] = {}
        for key, value in flat.items():
            try:
                if key in known:
                    attr, typ = known[key]
                    setattr(cfg, attr, typ(value))
                elif key in split_keys:
                    setattr(cfg.fractions, split_keys[key], float(value))
                elif key in nnet_keys:
                    attr, typ = nnet_keys[key]
                    setattr(cfg.hp, attr, typ(value))
                elif key in synth_keys:
                    synth_keys[key](value)  # type check now, apply below
                    synth_raw[key] = value
                else:
                    raise ConfigError(f"unknown config key {key!r}")
            except ValueError as exc:
                raise ConfigError(f"config key {key}: bad value {value!r}") from exc
        if synth_raw:
            cfg.synth = _build_synth_config(synth_raw, cfg.seed)
        cfg.hp.seed = cfg.seed
        cfg.fractions.validate()
        cfg.hp.validate()
        if cfg.threads < 1:
            raise ConfigError("threads must be >= 1")
        if cfg.controls_per_case < 0:
            raise ConfigError("cohort.controls_per_case must be >= 0")
        return cfg

    def flat(self) -> dict[str, object]:
        out: dict[str, object] = {
            "data.persons": self.persons_path,
            "data.events": self.events_path,
            "data.phecode_map": self.phecode_map_path or "<packaged>",
            "out": self.out_dir,
            "cohort.kind": self.cohort_kind,
            "cohort.controls_per_case": self.controls_per_case,
            "split.train": self.fractions.train,
            "split.val": self.fractions.val,
            "split.test": self.fractions.test,
            "seed": self.seed,
            "threads": self.threads,
        }
        if self.pretrain_persons_path:
            out["pretrain.persons"] = self.pretrain_persons_path
            out["pretrain.events"] = self.pretrain_events_path
        for key, value in asdict(self.hp).items():
            out[f"nnet.{key}"] = value
        if self.synth is not None:
            out["synth.n_persons"] = self.synth.n_persons
            out["synth.source"] = self.synth.source
            out["synth.event_rate"] = self.synth.event_rate
            out["synth.base_logit"] = self.synth.base_logit
            out["synth.rate_cap"] = self.synth.smi_annual_rate_cap
            out["synth.year_min"] = self.synth.year_range[0]
            out["synth.year_max"] = self.synth.year_range[1]
            out["synth.n_shared_dx"] = self.synth.vocab.n_shared_dx
            out["synth.n_specific_dx"] = self.synth.vocab.n_specific_dx
            out["synth.n_rx"] = self.synth.vocab.n_rx
        return out


def _build_synth_config(raw: dict[str, str], seed: int) -> SynthConfig:
    if "synth.n_persons" not in raw or "synth.source" not in raw:
        raise ConfigError("synth runs need synth.n_persons and synth.source")
    vocab = VocabConfig(
        n_shared_dx=int(raw.get("synth.n_shared_dx", VocabConfig.n_shared_dx)),
        n_specific_dx=int(raw.get("synth.n_specific_dx", VocabConfig.n_specific_dx)),
        n_rx=int(raw.get("synth.n_rx", VocabConfig.n_rx)),
    )
    cfg = SynthConfig(
        n_persons=int(raw["synth.n_persons"]),
        source=raw["synth.source"],
        vocab=vocab,
        seed=seed,
    )
    if "synth.event_rate" in raw:
        cfg.event_rate = float(raw["synth.event_rate"])
    elif cfg.source == "EHR":
        cfg.event_rate = 6.5
    if "synth.base_logit" in raw:
        cfg.base_logit = float(raw["synth.base_logit"])
    if "synth.rate_cap" in raw:
        cfg.smi_annual_rate_cap = float(raw["synth.rate_cap"])
    if "synth.year_min" in raw or "synth.year_max" in raw:
        cfg.year_range = (
            int(raw.get("synth.year_min", cfg.year_range[0])),
            int(raw.get("synth.year_max", cfg.year_range[1])),
        )
    cfg.risk_weights = default_risk_weights(cfg)
    return cfg


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
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def version_string() -> str:
    return f"smiscreen-{__version__}"


def _timestamp() -> str:
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat()


def load_phecode_map(cfg: RunConfig) -> PhecodeMap:
    if cfg.phecode_map_path:
        return parse_phecode_map(cfg.phecode_map_path)
    return load_default_map()


def load_inputs(cfg: RunConfig) -> tuple[Dataset, PhecodeMap]:
    with stage("load"):
        if not cfg.persons_path or not cfg.events_path:
            raise ConfigError("data.persons and data.events are required")
        try:
            dataset = Dataset.from_files(cfg.persons_path, cfg.events_path)
        except OSError as exc:
            raise DataError(f"cannot read input: {exc}") from exc
        report = validate_dataset(dataset)
        if not report.ok:
            raise DataError(
                f"dataset failed validation with {len(report.violations)} violations; "
                f"first: {report.violations[0]}"
            )
        return dataset, load_phecode_map(cfg)


def _write_manifest(cfg: RunConfig, mode: str, counts: dict[str, object], out_dir: str) -> None:
    manifest = {
        "mode": mode,
        "config": cfg.flat(),
        "seed": cfg.seed,
        "version": version_string(),
        "counts": counts,
        "timestamp": _timestamp(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_reports(cfg: RunConfig, reports: list[EvalReport], out_dir: str) -> None:
    write_report_json(
        reports,
        os.path.join(out_dir, "report.json"),
        seed=cfg.seed,
        version=version_string(),
        timestamp=_timestamp(),
    )
    write_report_csv(reports, os.path.join(out_dir, "report.csv"))


@dataclass
class FittedSource:
    """Everything produced by cohort building plus training on one dataset."""

    dataset: Dataset
    phemap: PhecodeMap
    examples: list[CohortExample]
    stats: CohortBuildStats
    splits: dict[str, list[CohortExample]]
    vocab: Vocabulary
    features: dict[str, list[FeatureVector]]
    labels: dict[str, np.ndarray]
    model: ModelParams
    log: TrainingLog


def _featurize_split(
    splits: dict[str, list[CohortExample]], d: Dataset, vocab: Vocabulary, threads: int
) -> tuple[dict[str, list[FeatureVector]], dict[str, np.ndarray]]:
    features = {
        name: parallel_map(lambda ex: featurize(ex, d, vocab), splits[name], threads)
        for name in SPLITS
    }
    labels = {
        name: np.array([ex.label for ex in splits[name]], dtype=np.float64) for name in SPLITS
    }
    return features, labels


def _auc_eval(scores: np.ndarray, labels: np.ndarray) -> float:
    return auc(ScoredSet(scores, labels.astype(np.int64)))


def fit_source(cfg: RunConfig, dataset: Dataset, phemap: PhecodeMap) -> FittedSource:
    """Cohort -> split -> train-split vocabulary -> train from scratch."""
    with stage("cohort"):
        examples, stats = build_cohort(
            dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case
        )
    with stage("split"):
        assignment = split_cohort(examples, cfg.fractions, cfg.seed)
        splits = assignment.split_examples(examples)
    with stage("features"):
        vocab = build_vocabulary(splits[TRAIN], dataset)
        features, labels = _featurize_split(splits, dataset, vocab, cfg.threads)
    with stage("train"):
        model0 = init_model(len(vocab), cfg.hp, vocab.fingerprint())
        with _limit_blas_threads():
            model, log = train(
                model0,
                features[TRAIN],
                labels[TRAIN],
                features[VAL],
                labels[VAL],
                cfg.hp,
                _auc_eval,
            )
    return FittedSource(
        dataset, phemap, examples, stats, splits, vocab, features, labels, model, log
    )


def _benchmark_reports(
    fitted: FittedSource, dataset_tag: str, exclude_substance: bool
) -> list[EvalReport]:
    test_examples = fitted.splits[TEST]
    labels = fitted.labels[TEST]
    reports = []
    for method, fn in (("BENCH1", benchmark1), ("BENCH2", benchmark2)):
        preds = np.array(
            [fn(ex, fitted.dataset, fitted.phemap, exclude_substance) for ex in test_examples],
            dtype=np.float64,
        )
        reports.append(
            evaluate_benchmark(
                preds, labels, method=method, dataset=dataset_tag, cohort_kind=fitted.examples[0].cohort_kind
            )
        )
    return reports


def _model_report(
    fitted: FittedSource, method: str, dataset_tag: str
) -> EvalReport:
    with _limit_blas_threads():
        val_scores = score_batch(fitted.model, fitted.features[VAL])
        test_scores = score_batch(fitted.model, fitted.features[TEST])
    return evaluate_model(
        ScoredSet(val_scores, fitted.labels[VAL].astype(np.int64)),
        ScoredSet(test_scores, fitted.labels[TEST].astype(np.int64)),
        method=method,
        dataset=dataset_tag,
        cohort_kind=fitted.examples[0].cohort_kind,
    )


def _counts(fitted: FittedSource) -> dict[str, object]:
    return {
        "persons": len(fitted.dataset.persons),
        "cases_found": fitted.stats.n_cases_found,
        "cases_excluded_use_case": fitted.stats.n_cases_excluded,
        "case_windows_dropped": fitted.stats.n_windows_dropped,
        "cases_retained": fitted.stats.n_cases_retained,
        "cases_without_controls": fitted.stats.n_cases_without_controls,
        "controls": fitted.stats.n_controls,
        "examples": len(fitted.examples),
        "prevalence": prevalence(fitted.examples),
        "split_sizes": {name: len(fitted.splits[name]) for name in SPLITS},
        "vocabulary": len(fitted.vocab),
        "epochs_run": fitted.log.epochs_run,
        "best_epoch": fitted.log.best_epoch,
        "best_val_auc": fitted.log.best_val_auc,
    }


def _emit_fitted(cfg: RunConfig, fitted: FittedSource, reports: list[EvalReport], mode: str) -> None:
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    write_cohort(fitted.examples, os.path.join(out, "cohort.csv"))
    write_vocabulary(fitted.vocab, os.path.join(out, VOCAB_FILE))
    save_model(fitted.model, cfg.hp, os.path.join(out, MODEL_FILE))
    _write_reports(cfg, reports, out)
    _write_manifest(cfg, mode, _counts(fitted), out)


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
    _write_manifest(
        cfg,
        "synth",
        {"persons": len(dataset.persons), "events": dataset.n_events, "onsets": n_onsets},
        out,
    )
    return paths


def run_cohort(cfg: RunConfig) -> list[CohortExample]:
    """Build and write the configured cohort without training anything."""
    dataset, phemap = load_inputs(cfg)
    with stage("cohort"):
        examples, stats = build_cohort(
            dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case
        )
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_cohort(examples, os.path.join(cfg.out_dir, "cohort.csv"))
    _write_manifest(
        cfg,
        "cohort",
        {
            "persons": len(dataset.persons),
            "examples": len(examples),
            "cases": stats.n_cases_retained,
            "controls": stats.n_controls,
            "prevalence": prevalence(examples),
        },
        cfg.out_dir,
    )
    return examples


def run_single_source(cfg: RunConfig) -> list[EvalReport]:
    """Train and evaluate one source: model row plus both benchmark rows."""
    dataset, phemap = load_inputs(cfg)
    fitted = fit_source(cfg, dataset, phemap)
    tag = dataset.source
    flag = cfg.cohort_kind == SUBSTANCE
    with stage("evaluate"):
        reports = [_model_report(fitted, "MODEL", tag)]
        reports.extend(_benchmark_reports(fitted, tag, flag))
    _emit_fitted(cfg, fitted, reports, "train")
    return reports


def run_bench(cfg: RunConfig) -> list[EvalReport]:
    """Benchmarks only, on the test split of the configured cohort."""
    dataset, phemap = load_inputs(cfg)
    with stage("cohort"):
        examples, stats = build_cohort(
            dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case
        )
    with stage("split"):
        splits = split_cohort(examples, cfg.fractions, cfg.seed).split_examples(examples)
    flag = cfg.cohort_kind == SUBSTANCE
    labels = np.array([ex.label for ex in splits[TEST]], dtype=np.float64)
    reports = []
    with stage("evaluate"):
        for method, fn in (("BENCH1", benchmark1), ("BENCH2", benchmark2)):
            preds = np.array(
                [fn(ex, dataset, phemap, flag) for ex in splits[TEST]], dtype=np.float64
            )
            reports.append(
                evaluate_benchmark(
                    preds, labels, method=method, dataset=dataset.source, cohort_kind=cfg.cohort_kind
                )
            )
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_cohort(examples, os.path.join(cfg.out_dir, "cohort.csv"))
    _write_reports(cfg, reports, cfg.out_dir)
    _write_manifest(
        cfg,
        "bench",
        {"examples": len(examples), "cases": stats.n_cases_retained, "prevalence": prevalence(examples)},
        cfg.out_dir,
    )
    return reports


def load_model_dir(model_dir: str) -> tuple[ModelParams, Hyperparams, Vocabulary]:
    with stage("load-model"):
        model, hp = load_model(os.path.join(model_dir, MODEL_FILE))
        vocab = load_vocabulary(os.path.join(model_dir, VOCAB_FILE))
        check_fingerprint(model, vocab)
    return model, hp, vocab


def restrict_model(model: ModelParams, vocab: Vocabulary, shared: Vocabulary) -> ModelParams:
    """Project a model onto a sub-vocabulary: keep the embedding rows of
    shared codes, dense layers unchanged."""
    index = vocab.index
    missing = [c for c in shared.entries if c not in index]
    if missing:
        raise DataError(f"restricted vocabulary has {len(missing)} codes foreign to the model")
    rows = np.array([index[c] for c in shared.entries], dtype=np.int64)
    return ModelParams(
        embedding=model.embedding[rows].copy(),
        w1=model.w1.copy(),
        b1=model.b1.copy(),
        w2=model.w2.copy(),
        b2=model.b2.copy(),
        w_out=model.w_out.copy(),
        b_out=model.b_out.copy(),
        vocab_fingerprint=shared.fingerprint(),
    )


def run_cross_eval(cfg: RunConfig, model_dir: str) -> list[EvalReport]:
    """Score a foreign dataset with a trained model, restricted to the
    overlap of the two vocabularies."""
    model, model_hp, model_vocab = load_model_dir(model_dir)
    dataset, phemap = load_inputs(cfg)
    with stage("cohort"):
        examples, stats = build_cohort(
            dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case
        )
    with stage("split"):
        splits = split_cohort(examples, cfg.fractions, cfg.seed).split_examples(examples)
    with stage("features"):
        target_vocab = build_vocabulary(splits[TRAIN], dataset)
        shared = intersect_vocabularies(model_vocab, target_vocab)
        restricted = restrict_model(model, model_vocab, shared)
        feats = {
            name: parallel_map(lambda ex: featurize(ex, dataset, shared), splits[name], cfg.threads)
            for name in (VAL, TEST)
        }
    with stage("evaluate"), _limit_blas_threads():
        val = ScoredSet(
            score_batch(restricted, feats[VAL]),
            np.array([ex.label for ex in splits[VAL]], dtype=np.int64),
        )
        test = ScoredSet(
            score_batch(restricted, feats[TEST]),
            np.array([ex.label for ex in splits[TEST]], dtype=np.int64),
        )
        report = evaluate_model(val, test, method="MODEL", dataset=dataset.source, cohort_kind=cfg.cohort_kind)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_cohort(examples, os.path.join(cfg.out_dir, "cohort.csv"))
    write_vocabulary(shared, os.path.join(cfg.out_dir, VOCAB_FILE))
    _write_reports(cfg, [report], cfg.out_dir)
    _write_manifest(
        cfg,
        "cross-eval",
        {
            "examples": len(examples),
            "cases": stats.n_cases_retained,
            "model_vocabulary": len(model_vocab),
            "target_vocabulary": len(target_vocab),
            "shared_vocabulary": len(shared),
            "model_hyperparams": asdict(model_hp),
        },
        cfg.out_dir,
    )
    return [report]


def run_two_step(cfg: RunConfig) -> list[EvalReport]:
    """Pretrain on one source, transfer the parameters, fine-tune and
    evaluate on the target source."""
    if not cfg.pretrain_persons_path or not cfg.pretrain_events_path:
        raise ConfigError("two-step mode needs pretrain.persons and pretrain.events")
    pre_cfg = replace(
        cfg, persons_path=cfg.pretrain_persons_path, events_path=cfg.pretrain_events_path
    )
    pre_dataset, pre_map = load_inputs(pre_cfg)
    pretrained = fit_source(pre_cfg, pre_dataset, pre_map)

    dataset, phemap = load_inputs(cfg)
    with stage("cohort"):
        examples, stats = build_cohort(
            dataset, phemap, cfg.cohort_kind, cfg.seed, k=cfg.controls_per_case
        )
    with stage("split"):
        assignment = split_cohort(examples, cfg.fractions, cfg.seed)
        splits = assignment.split_examples(examples)
    with stage("features"):
        vocab = build_vocabulary(splits[TRAIN], dataset)
        features, labels = _featurize_split(splits, dataset, vocab, cfg.threads)
    with stage("train"):
        seeded = transfer_init(pretrained.model, pretrained.vocab, vocab, cfg.hp)
        with _limit_blas_threads():
            model, log = train(
                seeded, features[TRAIN], labels[TRAIN], features[VAL], labels[VAL], cfg.hp, _auc_eval
            )
    fitted = FittedSource(
        dataset, phemap, examples, stats, splits, vocab, features, labels, model, log
    )
    with stage("evaluate"):
        reports = [_model_report(fitted, "TWO_STEP", dataset.source)]
    _emit_fitted(cfg, fitted, reports, "two-step")
    return reports


def run_use_case(cfg: RunConfig, model_dir: str) -> list[EvalReport]:
    """Fine-tune a trained base model on a use-case cohort and evaluate it
    against both benchmarks (substance runs drop substance codes from the
    benchmark trigger sets)."""
    if cfg.cohort_kind == ALL_AGE:
        raise ConfigError("use-case mode needs cohort.kind=AGE18 or SUBSTANCE")
    base_model, base_hp, base_vocab = load_model_dir(model_dir)
    if (base_hp.embedding_dim, base_hp.hidden1, base_hp.hidden2) != (
        cfg.hp.embedding_dim,
        cfg.hp.hidden1,
        cfg.hp.hidden2,
    ):
        raise ConfigError("use-case hyperparams must match the base model's layer sizes")
    dataset, phemap = load_inputs(cfg)
    with stage("cohort"):
        examples, stats = build_cohort(dataset, phemap, cfg.cohort_kind, cfg.seed)
    with stage("split"):
        assignment = split_cohort(examples, cfg.fractions, cfg.seed)
        splits = assignment.split_examples(examples)
    with stage("features"):
        vocab = build_vocabulary(splits[TRAIN], dataset)
        features, labels = _featurize_split(splits, dataset, vocab, cfg.threads)
    with stage("train"):
        seeded = transfer_init(base_model, base_vocab, vocab, cfg.hp)
        with _limit_blas_threads():
            model, log = train(
                seeded, features[TRAIN], labels[TRAIN], features[VAL], labels[VAL], cfg.hp, _auc_eval
            )
    fitted = FittedSource(
        dataset, phemap, examples, stats, splits, vocab, features, labels, model, log
    )
    flag = cfg.cohort_kind == SUBSTANCE
    with stage("evaluate"):
        reports = [_model_report(fitted, "MODEL", dataset.source)]
        reports.extend(_benchmark_reports(fitted, dataset.source, flag))
    _emit_fitted(cfg, fitted, reports, "use-case")
    return reports


def run_report_merge(inputs: list[str], out_dir: str) -> str:
    """Combine one or more report.json files into a single report.csv."""
    rows: list[EvalReport] = []
    for path in inputs:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read report {path}: {exc}") from exc
        for row in payload.get("reports", []):
            rows.append(
                EvalReport(
                    method=row["method"],
                    dataset=row["dataset"],
                    cohort_kind=row["cohort"],
                    auc=row["auc"],
                    threshold=row["threshold"],
                    sensitivity=row["sensitivity"],
                    specificity=row["specificity"],
                    prevalence=row["prevalence"],
                    n_pos=row["n_pos"],
                    n_neg=row["n_neg"],
                )
            )
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "report.csv")
    write_report_csv(rows, out_path)
    return out_path
