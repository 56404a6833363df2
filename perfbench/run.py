#!/usr/bin/env python3
"""Benchmark of the smiscreen command-line pipeline.

    python3 perfbench/run.py --workload train-claims --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42

Each run builds its inputs from the seed with `smiscreen synth` (the
set-up), then runs the workload's timed subcommand as a child process,
again and again for `--seconds`, each time into a fresh output directory,
and checks every run's outputs. The program is run from this checkout's
`src/` with no installation step.

--trace 0 reports the end-to-end metrics of the untraced child runs.
--trace 1 reports per-layer metrics from traced runs of the same command
(see layertrace.py) and checks that their outputs are byte-identical to
an untraced run's.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Everything else (per-run samples, artifact hashes, span tables, the
environment) goes to `.perfbench/results/` in the checkout. See README.md
beside this file for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUPS = 3  # set-ups per trace-0 run; setup_s is their median
MIN_TRACED = 2  # traced runs per trace-1 run, at least
MAX_RUNS = 200
CHILD_TIMEOUT_S = 150.0
ARTIFACTS = ("cohort.csv", "vocabulary.txt", "model.bin", "report.csv")
REPORT_METHODS = ["MODEL", "BENCH1", "BENCH2"]
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    persons: int  # size of the CLAIMS population the timed command reads
    command: str  # the timed smiscreen subcommand
    config: dict[str, str]  # extra config keys of the timed command
    auc_floor: float  # a MODEL test AUC below this fails the run
    base_persons: int = 0  # > 0: set-up also trains a base model on its own population


# Epochs are pinned (max_epochs = patience) so that every seed trains for
# the same number of epochs; with early stopping the count varies 8-16
# between seeds and the run time with it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-claims",
            why="README walkthrough: ALL_AGE cohort with control matching, then training; "
            "the network, matching and CSV load share the time",
            persons=10_000,
            command="train",
            config={"nnet.max_epochs": "8", "nnet.patience": "8"},
            auc_floor=0.60,
        ),
        Workload(
            name="usecase-substance",
            why="fine-tunes a saved base model on the SUBSTANCE cohort: CSV load and "
            "validation dominate and control matching is bypassed",
            persons=16_000,
            command="use-case",
            config={
                "cohort.kind": "SUBSTANCE",
                "split.train": "0.34",
                "split.val": "0.33",
                "split.test": "0.33",
                "nnet.max_epochs": "10",
                "nnet.patience": "10",
            },
            auc_floor=0.0,
            base_persons=1_200,
        ),
    )
}
BASE_MODEL_CONFIG = {"nnet.max_epochs": "2", "nnet.patience": "2"}

END_TO_END = {  # name: (unit, better)
    "wall_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


# ---------------------------------------------------------------- children


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    log: Path

    def tail(self, lines: int = 5) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return " | ".join(text[-lines:])


def _child_env() -> dict[str, str]:
    """The program runs from src/ with one BLAS thread (what its own
    threadpoolctl pinning would do, when that package is installed)."""
    env = dict(os.environ)
    for name in THREAD_ENV:
        env.setdefault(name, "1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(args: list[str], log: Path) -> Child:
    """Run `python3 <args>` from the checkout root; wall time and this
    child's own peak RSS (os.wait4 reports the reaped child only)."""
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_child_env(), stdout=out, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 has reaped the child; recording its code stops Popen waiting again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def cli_args(*args: str) -> list[str]:
    return ["-m", "smiscreen.cli", *args]


def traced_args(spans: Path, *args: str) -> list[str]:
    return [str(HERE / "layertrace.py"), str(spans), "--", *args]


def write_config(path: Path, values: dict[str, object]) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def rel(path: Path) -> str:
    """Checkout-relative path, so configs and manifests name no host path."""
    return os.path.relpath(path, ROOT)


# ------------------------------------------------------------------ checks


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row][1:]


def check_synth(pop: Path) -> tuple[list[str], dict]:
    """The synth manifest's counts must equal the CSV row counts."""
    counts = json.loads((pop / "manifest.json").read_text(encoding="utf-8"))["counts"]
    truth = csv_rows(pop / "ground_truth.csv")
    seen = {
        "persons": len(csv_rows(pop / "persons.csv")),
        "events": len(csv_rows(pop / "events.csv")),
        "onsets": sum(1 for row in truth if row[2]),
    }
    problems = [f"synth manifest {k}={counts.get(k)} but CSV has {v}" for k, v in seen.items() if counts.get(k) != v]
    if len(truth) != seen["persons"]:
        problems.append(f"ground_truth.csv has {len(truth)} rows for {seen['persons']} persons")
    return problems, counts


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    """Every file under `directory` with its size and modification time."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            st = path.stat()
            out[rel(path)] = (st.st_size, st.st_mtime_ns)
    return out


# Not compared between set-ups: manifests and JSON reports carry the
# output path and a timestamp. ground_truth.csv is no input of any timed
# command, and its latent logits differ in the last digits from process to
# process (synth sums risk weights over a set of strings, whose iteration
# order follows the per-process string hash seed).
UNCOMPARED = ("manifest.json", "report.json", "ground_truth.csv")


def tree_hashes(directory: Path) -> dict[str, str]:
    """Hashes of the program's outputs in the subdirectories of `directory`
    (the configs and logs beside them name the directory)."""
    return {
        str(p.relative_to(directory)): sha256(p)
        for p in sorted(directory.glob("*/**/*"))
        if p.is_file() and p.name not in UNCOMPARED
    }


def output_hashes(out: Path) -> dict[str, str]:
    hashes = {name: sha256(out / name) for name in ARTIFACTS}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.pop("timestamp", None)
    hashes["report.json"] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return hashes


def check_outputs(w: Workload, out: Path) -> tuple[list[str], dict[str, str], float | None]:
    """Problems found in one run's output directory, its artifact hashes
    and its MODEL test AUC."""
    missing = [n for n in (*ARTIFACTS, "report.json", "manifest.json") if not (out / n).is_file()]
    if missing:
        return [f"missing outputs {missing}"], {}, None
    problems = []
    rows = csv_rows(out / "report.csv")
    methods = [row[0] for row in rows]
    if methods != REPORT_METHODS:
        problems.append(f"report.csv rows {methods}, expected {REPORT_METHODS}")
    model_auc = None
    try:
        model_auc = float(rows[methods.index("MODEL")][3])
    except (ValueError, IndexError):
        problems.append("report.csv has no numeric MODEL auc")
    if model_auc is not None and not w.auc_floor <= model_auc <= 1.0:
        problems.append(f"MODEL test AUC {model_auc:.6f} outside [{w.auc_floor}, 1]")
    return problems, output_hashes(out), model_auc


def check_inputs(before: dict, root: Path) -> tuple[list[str], list[str]]:
    """Compare the input tree with its set-up snapshot. Files the program
    added are reported and removed, so that no later run can read a cache
    an earlier one wrote; changed or missing inputs are problems."""
    after = snapshot(root)
    left = sorted(set(after) - set(before))
    for name in left:
        (ROOT / name).unlink()
    problems = [f"input {n} changed or removed" for n in before if after.get(n) != before[n]]
    return problems, left


# ------------------------------------------------------------------ set-up


@dataclass
class Inputs:
    root: Path  # everything the timed command reads lives under here
    pop: Path
    base: Path | None
    persons: int
    events: int
    snapshot: dict[str, tuple[int, int]]


def _must(child: Child, what: str) -> None:
    if child.code != 0:
        raise BenchError(f"{what} exited {child.code}: {child.tail()}")


def setup(w: Workload, seed: int, dest: Path, spans: Path | None = None) -> tuple[float, Inputs]:
    """Generate the workload's inputs under `dest` and return the wall
    time it took. With `spans`, the population synth runs traced."""
    dest.mkdir(parents=True)
    start = time.perf_counter()
    pop = dest / "pop"
    cfg = write_config(dest / "synth.cfg", {"synth.n_persons": w.persons, "synth.source": "CLAIMS", "seed": seed})
    args = ("synth", "--config", rel(cfg), "--out", rel(pop))
    _must(run_child(traced_args(spans, *args) if spans else cli_args(*args), dest / "synth.log"), "synth")
    base = None
    if w.base_persons:
        base_pop, base = dest / "base_pop", dest / "base"
        cfg = write_config(
            dest / "base_synth.cfg",
            {"synth.n_persons": w.base_persons, "synth.source": "CLAIMS", "seed": seed + 1},
        )
        child = run_child(cli_args("synth", "--config", rel(cfg), "--out", rel(base_pop)), dest / "base_synth.log")
        _must(child, "base-model synth")
        cfg = write_config(
            dest / "base_train.cfg",
            {
                "data.persons": rel(base_pop / "persons.csv"),
                "data.events": rel(base_pop / "events.csv"),
                "seed": seed + 1,
                **BASE_MODEL_CONFIG,
            },
        )
        child = run_child(cli_args("train", "--config", rel(cfg), "--out", rel(base)), dest / "base_train.log")
        _must(child, "base-model train")
    elapsed = time.perf_counter() - start
    problems, counts = check_synth(pop)
    if problems:
        raise BenchError("; ".join(problems))
    return elapsed, Inputs(dest, pop, base, counts["persons"], counts["events"], snapshot(dest))


# ------------------------------------------------------------- timed runs


@dataclass
class RunRecord:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    problems: list[str]
    left_files: list[str]
    hashes: dict[str, str]
    model_auc: float | None
    layers: dict[str, float] | None = None
    span_table: dict | None = None


class Session:
    """The timed runs of one workload on one set of inputs. Every run gets
    a fresh output directory and must reproduce the first run's artifacts
    byte for byte, traced or not."""

    def __init__(self, w: Workload, seed: int, inputs: Inputs, work: Path):
        self.w, self.inputs, self.work = w, inputs, work
        self.out = work / "out"
        self.records: list[RunRecord] = []
        self.reference: dict[str, str] | None = None
        cfg = write_config(
            work / "run.cfg",
            {
                "data.persons": rel(inputs.pop / "persons.csv"),
                "data.events": rel(inputs.pop / "events.csv"),
                "seed": seed,
                **w.config,
            },
        )
        self.args = [w.command, "--config", rel(cfg), "--out", rel(self.out)]
        if inputs.base is not None:
            self.args += ["--model-dir", rel(inputs.base)]

    def run_once(self, traced: bool) -> RunRecord:
        n = len(self.records)
        shutil.rmtree(self.out, ignore_errors=True)
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        args = traced_args(spans, *self.args) if traced else cli_args(*self.args)
        child = run_child(args, self.work / f"run{n}.log")
        problems: list[str] = []
        hashes: dict[str, str] = {}
        model_auc = None
        if child.code != 0:
            problems.append(f"exit {child.code}: {child.tail()}")
        else:
            problems, hashes, model_auc = check_outputs(self.w, self.out)
        if hashes:
            self.reference = self.reference or hashes
            differ = sorted(k for k in hashes if hashes[k] != self.reference[k])
            if differ:
                problems.append(f"outputs differ from the first run's: {differ}")
        record = RunRecord(traced, child.wall_s, child.peak_rss_mb, problems, [], hashes, model_auc)
        if traced and not problems:
            trace = Trace(json.loads(spans.read_text(encoding="utf-8")))
            problems += [f"span {s} never ran" for s in layertrace.REQUIRED if not trace.named(s)]
            problems += trace.nests()
            record.layers = layer_metrics(trace, self.out, self.inputs, model_auc)
            record.span_table = trace.table()
            record.span_table["missing"] = trace.payload["missing"]
        input_problems, record.left_files = check_inputs(self.inputs.snapshot, self.inputs.root)
        problems += input_problems
        self.records.append(record)
        if problems:
            print(f"[{self.w.name}] run {n} failed: {'; '.join(problems)}", file=sys.stderr)
        if record.left_files:
            print(f"[{self.w.name}] run {n} left files beside its inputs: {record.left_files}", file=sys.stderr)
        return record

    def loop(self, traced: bool, seconds: float, minimum: int) -> list[RunRecord]:
        """Repeat the timed command for about `seconds`: start another run
        while it would end, at its typical length, less than half a run
        past the deadline."""
        done: list[RunRecord] = []
        start = time.perf_counter()
        while len(done) < MAX_RUNS:
            done.append(self.run_once(traced))
            typical = statistics.median(r.wall_s for r in self.records)
            if len(done) >= minimum and time.perf_counter() - start + typical / 2 > seconds:
                break
        return done


# ----------------------------------------------------------- layer metrics

PER_LAYER = {  # name: (unit, better)
    "synth.generate_s": ("s", "lower"),
    "synth.persons_per_s": ("1/s", "higher"),
    "datamodel.write_s": ("s", "lower"),
    "datamodel.load_persons_s": ("s", "lower"),
    "datamodel.load_events_s": ("s", "lower"),
    "datamodel.index_s": ("s", "lower"),
    "datamodel.validate_s": ("s", "lower"),
    "datamodel.load_events_per_s": ("1/s", "higher"),
    "datamodel.load_rss_mb": ("MB", "lower"),
    "cohort.build_s": ("s", "lower"),
    "cohort.find_cases_s": ("s", "lower"),
    "cohort.find_cases_calls": ("count", "lower"),
    "rng.stable_seed_calls": ("count", "lower"),
    "pipeline.split_s": ("s", "lower"),
    "features.vocab_s": ("s", "lower"),
    "features.featurize_s": ("s", "lower"),
    "features.featurize_calls": ("count", "lower"),
    "nnet.train_s": ("s", "lower"),
    "nnet.step_backward_ms": ("ms", "lower"),
    "nnet.step_backward_p90_ms": ("ms", "lower"),
    "nnet.step_adam_ms": ("ms", "lower"),
    "nnet.val_score_s": ("s", "lower"),
    "nnet.train_examples_per_s": ("1/s", "higher"),
    "nnet.rss_mb": ("MB", "lower"),
    "nnet.best_val_auc": ("auc", "higher"),
    "evaluation.test_auc": ("auc", "higher"),
    "evaluation.benchmark_s": ("s", "lower"),
    "evaluation.benchmark_calls": ("count", "lower"),
    "evaluation.score_s": ("s", "lower"),
    "evaluation.metrics_s": ("s", "lower"),
    "pipeline.emit_s": ("s", "lower"),
    "pipeline.glue_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
}

# Figures that exist on one workload only, or that no optimisation should
# move. They are printed and kept in the results file, not reported as
# per-layer metrics (every run must report every one of those).
EXTRA_LAYER = {
    "cohort.use_case_ids_s": ("s", "lower"),
    "cohort.case_windows_s": ("s", "lower"),
    "cohort.match_s": ("s", "lower"),
    "cohort.match_fill": ("ratio", "higher"),
    "nnet.load_model_s": ("s", "lower"),
    "nnet.transfer_init_s": ("s", "lower"),
    "cohort.examples": ("count", "same"),
    "features.vocab_size": ("count", "same"),
    "nnet.epochs": ("count", "same"),
    "nnet.steps": ("count", "same"),
    "trace.total_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Spans that run a whole subcommand; their direct children are the
# top-level layer calls, and their own time is pipeline glue.
ENTRY_SPANS = (layertrace.ROOT, "pipeline.run_synth", "pipeline.run_single_source", "pipeline.run_use_case")
EMIT_SPANS = (
    "cohort.write_cohort",
    "features.write_vocabulary",
    "nnet.save_model",
    "evaluation.write_report_json",
    "evaluation.write_report_csv",
    "pipeline.write_manifest",
)


class Trace:
    """The spans of one traced process (see layertrace.py)."""

    def __init__(self, payload: dict):
        self.payload = payload
        self.spans = payload["spans"]  # [id, name, start, end, parent, peak_rss_mb]
        self.by_id = {s[0]: s for s in self.spans}

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == name]

    def under(self, span: list, name: str) -> bool:
        parent = span[4]
        while parent is not None:
            if self.by_id[parent][1] == name:
                return True
            parent = self.by_id[parent][4]
        return False

    def total(self, *names: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[1] in names)

    def peak_rss_after(self, name: str) -> float:
        return max((s[5] for s in self.named(name) if s[5] is not None), default=0.0)

    def glue(self) -> float:
        """Time in the entry-point spans outside every top-level layer call."""
        entries = {s[0] for s in self.spans if s[1] in ENTRY_SPANS}
        layers = sum(s[3] - s[2] for s in self.spans if s[1] not in ENTRY_SPANS and s[4] in entries)
        return self.total(layertrace.ROOT) - layers

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total and self time per span name. Self time is a span's
        duration minus its children's."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + s[3] - s[2]
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[3] - s[2]
            row["self_s"] += s[3] - s[2] - child_time.get(s[0], 0.0)
        return out

    def nests(self) -> list[str]:
        """Problems: spans that do not lie inside the span that called them."""
        bad = []
        for s in self.spans:
            parent = self.by_id.get(s[4]) if s[4] is not None else None
            if s[3] < s[2]:
                bad.append(f"span {s[1]}#{s[0]} ends before it starts")
            elif s[4] is not None and (parent is None or not parent[2] <= s[2] <= s[3] <= parent[3]):
                bad.append(f"span {s[1]}#{s[0]} is not inside its parent")
        return bad


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(run: Trace, out: Path, inputs: Inputs, model_auc: float | None) -> dict[str, float]:
    """Per-layer figures of one traced run of the timed command."""
    counts = json.loads((out / "manifest.json").read_text(encoding="utf-8")).get("counts", {})
    under_train = lambda name: [s for s in run.named(name) if run.under(s, "nnet.train")]  # noqa: E731
    backward = [1000.0 * (s[3] - s[2]) for s in under_train("nnet.backward")]
    adam = [1000.0 * (s[3] - s[2]) for s in under_train("nnet.adam_step")]
    val_score = sum(s[3] - s[2] for s in under_train("nnet.score_batch"))
    load_persons = run.total("datamodel.load_persons")
    load_events = run.total("datamodel.load_events")
    train_s = run.total("nnet.train")
    train_n = counts.get("split_sizes", {}).get("TRAIN", 0)
    retained = counts.get("cases_retained", 0)
    m = {
        "datamodel.load_persons_s": load_persons,
        "datamodel.load_events_s": load_events,
        "datamodel.index_s": run.total("datamodel.from_files") - load_persons - load_events,
        "datamodel.validate_s": run.total("datamodel.validate_dataset"),
        "datamodel.load_events_per_s": inputs.events / load_events if load_events else 0.0,
        "datamodel.load_rss_mb": run.peak_rss_after("datamodel.validate_dataset"),
        "cohort.build_s": run.total("cohort.build_cohort"),
        "cohort.find_cases_s": run.total("cohort.find_cases"),
        "cohort.find_cases_calls": run.calls("cohort.find_cases"),
        "rng.stable_seed_calls": run.payload["counts"].get("rng.stable_seed", 0),
        "pipeline.split_s": run.total("pipeline.split_cohort"),
        "features.vocab_s": run.total("features.build_vocabulary"),
        "features.featurize_s": run.total("features.featurize"),
        "features.featurize_calls": run.calls("features.featurize"),
        "nnet.train_s": train_s,
        "nnet.step_backward_ms": statistics.median(backward) if backward else 0.0,
        "nnet.step_backward_p90_ms": _p90(backward),
        "nnet.step_adam_ms": statistics.median(adam) if adam else 0.0,
        "nnet.val_score_s": val_score,
        "nnet.train_examples_per_s": train_n * counts.get("epochs_run", 0) / train_s if train_s else 0.0,
        "nnet.rss_mb": run.peak_rss_after("nnet.train"),
        "nnet.best_val_auc": counts.get("best_val_auc", 0.0),
        "evaluation.test_auc": model_auc if model_auc is not None else 0.0,
        "evaluation.benchmark_s": run.total("evaluation.benchmark1", "evaluation.benchmark2"),
        "evaluation.benchmark_calls": run.calls("evaluation.benchmark1", "evaluation.benchmark2"),
        "evaluation.score_s": run.total("nnet.score_batch") - val_score,
        "evaluation.metrics_s": run.total("evaluation.evaluate_model", "evaluation.evaluate_benchmark"),
        "pipeline.emit_s": run.total(*EMIT_SPANS),
        "pipeline.glue_s": run.glue(),
        "cohort.use_case_ids_s": run.total("cohort.use_case_person_ids"),
        "cohort.case_windows_s": run.total("cohort.build_case_windows"),
        "cohort.match_s": run.total("cohort.match_controls"),
        "nnet.load_model_s": run.total("nnet.load_model"),
        "nnet.transfer_init_s": run.total("nnet.transfer_init"),
        "cohort.examples": counts.get("examples", 0),
        "features.vocab_size": counts.get("vocabulary", 0),
        "nnet.epochs": counts.get("epochs_run", 0),
        "nnet.steps": len(adam),
        "trace.total_s": run.total(layertrace.ROOT),
    }
    if run.calls("cohort.match_controls") and retained:
        m["cohort.match_fill"] = counts.get("controls", 0) / (10 * retained)
    return m


# -------------------------------------------------------------------- runs


def environment() -> dict:
    """Host facts that can change timings or bits; recorded, not gated."""
    info: dict = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: _child_env()[k] for k in THREAD_ENV},
    }
    probe = (
        "import importlib.util, json, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version'),"
        " 'threadpoolctl': importlib.util.find_spec('threadpoolctl') is not None}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=_child_env())
    try:
        info.update(json.loads(done.stdout))
    except ValueError:
        info["numpy_probe_error"] = done.stderr.strip()[-500:]
    return info


def bench_untraced(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Trace 0: untraced timed runs, interleaved with the set-ups. The
    host's speed drifts over tens of seconds, so spreading the timed runs
    over the whole benchmark run makes their median steadier."""
    setup_times, trees, records = [], [], []
    session = None
    for i in range(SETUPS):
        elapsed, made = setup(w, seed, work / f"setup{i}")
        setup_times.append(elapsed)
        trees.append(tree_hashes(made.root))
        if session is None:
            session = Session(w, seed, made, work)
        else:
            shutil.rmtree(made.root)
        records += session.loop(traced=False, seconds=seconds / SETUPS, minimum=1)
    inputs = session.inputs
    problems = [] if all(t == trees[0] for t in trees) else ["set-ups are not byte-identical"]
    good = [r for r in records if not r.problems]
    samples = {"wall_s": [r.wall_s for r in good], "peak_rss_mb": [r.peak_rss_mb for r in good], "setup_s": setup_times}
    metrics = {}
    if good:
        wall = statistics.median(samples["wall_s"])
        metrics = {
            "wall_s": wall,
            "events_per_s": inputs.events / wall,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "setup_s": statistics.median(setup_times),
        }
        samples["events_per_s"] = [inputs.events / x for x in samples["wall_s"]]
    return {
        "units": END_TO_END,
        "metrics": metrics,
        "samples": samples,
        "records": records,
        "problems": problems,
        "inputs": {"persons": inputs.persons, "events": inputs.events, "files": trees[0]},
        "artifacts": session.reference,
    }


def bench_traced(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Trace 1: one traced set-up, one untraced reference run, then traced
    runs whose outputs must match the reference byte for byte."""
    start = time.perf_counter()
    setup_spans = work / "setup_spans.json"
    _, inputs = setup(w, seed, work / "setup", spans=setup_spans)
    synth_layers = setup_layer_metrics(Trace(json.loads(setup_spans.read_text(encoding="utf-8"))), inputs.persons)
    startup = []
    for i in range(3):
        child = run_child(["-c", "import smiscreen.cli"], work / f"startup{i}.log")
        _must(child, "import smiscreen.cli")
        startup.append(child.wall_s)
    cli_startup = statistics.median(startup)
    session = Session(w, seed, inputs, work)
    reference = session.run_once(traced=False)
    remaining = seconds - (time.perf_counter() - start)
    records = [reference] + session.loop(traced=True, seconds=remaining, minimum=MIN_TRACED)
    per_run = [r.layers for r in records if r.traced and r.layers and not r.problems]
    metrics = {}
    if per_run and not reference.problems:
        keys = [k for k in {**PER_LAYER, **EXTRA_LAYER} if all(k in m for m in per_run)]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in keys}
        metrics.update(synth_layers, **{"cli.startup_s": cli_startup})
        untraced_work = reference.wall_s - cli_startup
        metrics["trace.overhead_frac"] = metrics["trace.total_s"] / untraced_work - 1.0
    return {
        "units": {**PER_LAYER, **EXTRA_LAYER},
        "metrics": metrics,
        "samples": {k: [m[k] for m in per_run] for k in metrics if all(k in m for m in per_run)},
        "records": records,
        "problems": [],
        "inputs": {"persons": inputs.persons, "events": inputs.events},
        "artifacts": session.reference,
        "cli_startup_s": startup,
        "untraced_wall_s": reference.wall_s,
    }


def setup_layer_metrics(trace: Trace, persons: int) -> dict[str, float]:
    gen = trace.total("synth.generate_population")
    return {
        "synth.generate_s": gen,
        "synth.persons_per_s": persons / gen if gen else 0.0,
        "datamodel.write_s": trace.total("datamodel.write_persons", "datamodel.write_events"),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = STATE / f"work-{os.getpid()}-{w.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = (bench_traced if trace else bench_untraced)(w, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = result["records"]
    failed = sum(1 for r in records if r.problems)
    result.update(
        workload=w.name,
        seed=seed,
        trace=trace,
        attempted=len(records),
        failed=failed,
        correct=failed == 0 and not result["problems"] and bool(result["metrics"]),
    )
    return result


def print_table(result: dict) -> None:
    print(
        f"{result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
        f"{result['attempted']} timed runs, {result['failed']} failed, "
        f"{result['inputs']['persons']} persons, {result['inputs']['events']} events"
    )
    units = result["units"]
    for name, value in result["metrics"].items():
        unit, better = units[name]
        values = result["samples"].get(name, [value])
        spread = f"min {min(values):.6g} max {max(values):.6g}" if len(values) > 1 else ""
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={len(values):<3d} {better:6s} {spread}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def save_result(result: dict) -> Path:
    path = STATE / "results" / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in result.items() if k != "records"}
    payload["runs"] = [vars(r) for r in result["records"]]
    payload["environment"] = environment()
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    return path


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _raise_exit)
    if not (SRC / "smiscreen" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {rel(SRC / 'smiscreen')} is missing", file=sys.stderr)
        return 2
    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    results = []
    try:
        for w in chosen:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace))
            print_table(result)
            print(f"  details: {rel(save_result(result))}")
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): {"value": value, "unit": r["units"][name][0]}
            for r in results
            for name, value in r["metrics"].items()
            if name in END_TO_END or name in PER_LAYER
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
