"""Command-line entry point.

    smiscreen <subcommand> [--config FILE] [--seed N] [--out DIR] [--threads N]

Subcommands: synth, cohort, train, cross-eval, two-step, use-case, bench,
report. Config files are flat key=value (e.g. split.train=0.6,
nnet.embedding_dim=300); --seed/--out/--threads override the file.

Exit codes: 0 success, 2 config error, 3 data error or a file that cannot
be read or written, 4 degenerate cohort or single-class split.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import ConfigError, DataError, DegenerateCohortError


# flag -> help text; each overrides the config key of its name, through that key's parser
FLAGS = {
    "seed": "global seed (overrides config)",
    "out": "output directory (overrides config)",
    "threads": "accepted so existing configs run; has no effect",
}

# subcommand -> (help text, run mode) for those that print report rows; the run mode is
# looked up in `pipeline` on each run, so a wrapper set there (as by perfbench) is called
REPORTS = {
    "train": ("train and evaluate a single-source model with benchmarks", "run_single_source"),
    "two-step": ("pretrain on pretrain.* data, fine-tune and evaluate on data.*", "run_two_step"),
    "bench": ("evaluate the rule-based benchmarks only", "run_bench"),
    "cross-eval": ("score data.* with a model trained elsewhere", "run_cross_eval"),
    "use-case": ("fine-tune a base model on an AGE18 or SUBSTANCE cohort", "run_use_case"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smiscreen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("synth", "generate a synthetic population (persons/events/ground_truth CSVs)"),
        ("cohort", "build and write the configured cohort"),
        *((name, help_text) for name, (help_text, _) in REPORTS.items()),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for flag, flag_help in FLAGS.items():
            p.add_argument(f"--{flag}", help=flag_help)
        if name in ("cross-eval", "use-case"):
            p.add_argument("--model-dir", required=True, help="directory holding model.bin and vocabulary.txt")

    p = sub.add_parser("report", help="merge report.json files into one report.csv")
    p.add_argument("inputs", nargs="+", help="report.json paths")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _config_from_args(args: argparse.Namespace) -> pipeline.RunConfig:
    """The config file with the flags given laid over it, as unparsed text, so a
    flag's value passes the same key parser as the file's."""
    overrides = {key: text for key in FLAGS if (text := getattr(args, key)) is not None}
    return pipeline.RunConfig.from_file(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            out_dir = pipeline.RunConfig.from_mapping({"out": args.out}).out_dir  # refuses an empty --out as the others do
            print(f"wrote {pipeline.run_report_merge(args.inputs, out_dir)}")
            return 0
        cfg = _config_from_args(args)
        if args.command == "synth":
            paths = pipeline.run_synth(cfg)
            print(f"wrote {paths['persons']}, {paths['events']}, {paths['ground_truth']}")
        elif args.command == "cohort":
            cohort = pipeline.run_cohort(cfg)
            print(f"wrote {len(cohort)} cohort rows to {cfg.out_dir}/cohort.csv")
        else:
            run = getattr(pipeline, REPORTS[args.command][1])
            _print_reports(run(cfg, args.model_dir) if "model_dir" in args else run(cfg))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # names the file: missing input, unwritable --out, ...
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except DegenerateCohortError as exc:
        print(f"degenerate cohort: {exc}", file=sys.stderr)
        return 4


def _print_reports(reports) -> None:
    for r in reports:
        auc_text = "NA" if r.auc is None else f"{r.auc:.3f}"
        print(
            f"{r.method:9s} {r.dataset:8s} {r.cohort_kind:9s} "
            f"auc={auc_text} sens={r.sensitivity:.3f} spec={r.specificity:.3f} "
            f"prev={r.prevalence:.4f} (n={r.n_pos}+/{r.n_neg}-)"
        )


if __name__ == "__main__":
    sys.exit(main())
