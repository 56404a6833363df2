"""Span tracing of the smiscreen layers from outside the program.

Each public layer function is replaced, in every ``smiscreen.*`` module
namespace that holds it, by a wrapper that records one span: name, start,
end and the span that was open when it was called. Callers look module
globals up at call time, so calls inside the package (``train`` ->
``backward``, ``build_all_age_cohort`` -> ``find_cases``) are caught too.
``rng.stable_seed`` gets a call counter only.

Spans stay in memory and are written out once, when the run ends.

Run as a program, this file executes one traced CLI invocation:

    python3 perfbench/layertrace.py SPANS.json -- train --config run.cfg --out out/

and exits with the CLI's own exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
import uuid

# (module, attribute, span name). A dotted attribute names a method.
TARGETS = (
    ("pipeline", "run_synth", "pipeline.run_synth"),
    ("pipeline", "run_single_source", "pipeline.run_single_source"),
    ("pipeline", "run_use_case", "pipeline.run_use_case"),
    ("synth", "generate_population", "synth.generate_population"),
    ("synth", "write_ground_truth", "synth.write_ground_truth"),
    ("datamodel", "write_persons", "datamodel.write_persons"),
    ("datamodel", "write_events", "datamodel.write_events"),
    ("datamodel", "Dataset.from_files", "datamodel.from_files"),
    ("datamodel", "load_persons", "datamodel.load_persons"),
    ("datamodel", "load_events", "datamodel.load_events"),
    ("datamodel", "validate_dataset", "datamodel.validate_dataset"),
    ("cohort", "build_cohort", "cohort.build_cohort"),
    ("cohort", "find_cases", "cohort.find_cases"),
    ("cohort", "use_case_person_ids", "cohort.use_case_person_ids"),
    ("cohort", "build_case_windows", "cohort.build_case_windows"),
    ("cohort", "match_controls", "cohort.match_controls"),
    ("cohort", "write_cohort", "cohort.write_cohort"),
    ("pipeline", "split_cohort", "pipeline.split_cohort"),
    ("features", "build_vocabulary", "features.build_vocabulary"),
    ("features", "featurize", "features.featurize"),
    ("features", "write_vocabulary", "features.write_vocabulary"),
    ("nnet", "train", "nnet.train"),
    ("nnet", "backward", "nnet.backward"),
    ("nnet", "adam_step", "nnet.adam_step"),
    ("nnet", "score_batch", "nnet.score_batch"),
    ("nnet", "save_model", "nnet.save_model"),
    ("nnet", "load_model", "nnet.load_model"),
    ("nnet", "transfer_init", "nnet.transfer_init"),
    ("evaluation", "benchmark1", "evaluation.benchmark1"),
    ("evaluation", "benchmark2", "evaluation.benchmark2"),
    ("evaluation", "evaluate_model", "evaluation.evaluate_model"),
    ("evaluation", "evaluate_benchmark", "evaluation.evaluate_benchmark"),
    ("evaluation", "write_report_json", "evaluation.write_report_json"),
    ("evaluation", "write_report_csv", "evaluation.write_report_csv"),
    ("pipeline", "_write_manifest", "pipeline.write_manifest"),
)

# Counted, not timed: called hundreds of thousands of times per run.
COUNTED = (("rng", "stable_seed", "rng.stable_seed"),)

# The top-level stages. If one of these can no longer be found the trace
# would be meaningless, so installing fails instead of reporting it missing.
REQUIRED = (
    "datamodel.from_files",
    "cohort.build_cohort",
    "nnet.train",
    "evaluation.evaluate_model",
)

# Spans that also record the process's peak RSS when they end.
RSS_AT_END = frozenset({"datamodel.validate_dataset", "nnet.train"})

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []  # [id, name, start, end, parent, peak_rss_mb]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        rss = name in RSS_AT_END
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), name, clock(), 0.0, stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(record[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
                if rss:
                    record[5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str, exit_code: int) -> None:
        payload = {
            "run_id": self.run_id,
            "exit_code": exit_code,
            "missing": self.missing,
            "counts": self.counts,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _resolve(module, attr: str):
    """(owner, attribute name, raw attribute) or None when it is gone."""
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if raw is None:
        return None
    return owner, leaf, raw


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "smiscreen" and not name.startswith("smiscreen."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target that still exists; record the others as missing."""
    importlib.import_module("smiscreen.cli")
    for module_name, attr, name in TARGETS + COUNTED:
        module = importlib.import_module(f"smiscreen.{module_name}")
        found = _resolve(module, attr)
        make = tracer.counter if (module_name, attr, name) in COUNTED else tracer.span
        if found is None:
            if name in REQUIRED:
                raise RuntimeError(f"required trace target smiscreen.{module_name}.{attr} is gone")
            tracer.missing.append(name)
            continue
        owner, leaf, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, leaf, type(raw)(make(name, raw.__func__)))
        elif isinstance(owner, type):
            setattr(owner, leaf, make(name, raw))
        else:
            _replace_everywhere(raw, make(name, raw))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layertrace.py SPANS.json -- <smiscreen arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from smiscreen import cli

    code = 1
    try:
        code = tracer.span(ROOT, cli.main)(cli_args)
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
