#!/usr/bin/env python3
"""Self-test of the benchmark at the 1,200-person determinism-fixture size.

    python3 perfbench/selftest.py

Runs every workload once with tracing on, on a 1,200-person population,
and checks that each expected span fired, that spans nest, that traced
outputs are byte-identical to the untraced run's and that every per-layer
metric is reported. The use-case workload needs a larger population: at
1,200 persons its SUBSTANCE cohort has too few cases to fill three splits.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 42
PERSONS = {"train-claims": 1_200, "usecase-substance": 6_000}

COMMON = {
    "cli.main",
    "datamodel.from_files",
    "datamodel.load_persons",
    "datamodel.load_events",
    "datamodel.validate_dataset",
    "cohort.build_cohort",
    "cohort.find_cases",
    "pipeline.split_cohort",
    "features.build_vocabulary",
    "features.featurize",
    "nnet.train",
    "nnet.backward",
    "nnet.adam_step",
    "nnet.score_batch",
    "evaluation.benchmark1",
    "evaluation.benchmark2",
    "evaluation.evaluate_model",
    "evaluation.evaluate_benchmark",
    *run.EMIT_SPANS,
}
EXPECTED = {
    "train-claims": COMMON
    | {
        "pipeline.run_single_source",
        "cohort.use_case_person_ids",
        "cohort.build_case_windows",
        "cohort.match_controls",
    },
    "usecase-substance": COMMON | {"pipeline.run_use_case", "nnet.load_model", "nnet.transfer_init"},
}


def check_workload(name: str) -> list[str]:
    # No AUC floor: 1,200 persons carry too little signal to learn from.
    w = dataclasses.replace(run.WORKLOADS[name], persons=PERSONS[name], auc_floor=0.0)
    try:
        result = run.run_workload(w, SEED, seconds=0.0, trace=True)
    except run.BenchError as exc:
        return [str(exc)]
    problems = [
        f"{'traced' if r.traced else 'untraced'} run: {p}" for r in result["records"] for p in r.problems
    ]
    problems += result["problems"]
    traced = [r for r in result["records"] if r.traced]
    if not traced:
        problems.append("no traced run")
    for r in traced:
        table = r.span_table or {}
        if table.get("missing"):
            problems.append(f"trace targets missing: {table['missing']}")
        absent = sorted(EXPECTED[name] - set(table))
        if absent:
            problems.append(f"spans that never fired: {absent}")
    absent_metrics = sorted(set(run.PER_LAYER) - set(result["metrics"]))
    if absent_metrics:
        problems.append(f"per-layer metrics not reported: {absent_metrics}")
    if not result["correct"]:
        problems.append("result not correct")
    return problems


def main() -> int:
    failed = False
    for name in run.WORKLOADS:
        problems = check_workload(name)
        for p in problems:
            print(f"FAIL {name}: {p}")
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
