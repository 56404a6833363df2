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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", help="global seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--threads", help="accepted so existing configs run; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smiscreen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("synth", "generate a synthetic population (persons/events/ground_truth CSVs)"),
        ("cohort", "build and write the configured cohort"),
        ("train", "train and evaluate a single-source model with benchmarks"),
        ("two-step", "pretrain on pretrain.* data, fine-tune and evaluate on data.*"),
        ("bench", "evaluate the rule-based benchmarks only"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("cross-eval", help="score data.* with a model trained elsewhere")
    _add_common(p)
    p.add_argument("--model-dir", required=True, help="directory holding model.bin and vocabulary.txt")

    p = sub.add_parser("use-case", help="fine-tune a base model on an AGE18 or SUBSTANCE cohort")
    _add_common(p)
    p.add_argument("--model-dir", required=True, help="directory holding model.bin and vocabulary.txt")

    p = sub.add_parser("report", help="merge report.json files into one report.csv")
    p.add_argument("inputs", nargs="+", help="report.json paths")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _config_from_args(args: argparse.Namespace) -> pipeline.RunConfig:
    """The config file with the flags given laid over it, as unparsed text, so a
    flag's value passes the same key parser as the file's."""
    flags = {"seed": args.seed, "out": args.out, "threads": args.threads}
    overrides = {key: text for key, text in flags.items() if text is not None}
    return pipeline.RunConfig.from_file(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            out_path = pipeline.run_report_merge(args.inputs, args.out)
            print(f"wrote {out_path}")
            return 0
        cfg = _config_from_args(args)
        if args.command == "synth":
            paths = pipeline.run_synth(cfg)
            print(f"wrote {paths['persons']}, {paths['events']}, {paths['ground_truth']}")
        elif args.command == "cohort":
            cohort = pipeline.run_cohort(cfg)
            print(f"wrote {len(cohort)} cohort rows to {cfg.out_dir}/cohort.csv")
        elif args.command == "train":
            reports = pipeline.run_single_source(cfg)
            _print_reports(reports)
        elif args.command == "cross-eval":
            reports = pipeline.run_cross_eval(cfg, args.model_dir)
            _print_reports(reports)
        elif args.command == "two-step":
            reports = pipeline.run_two_step(cfg)
            _print_reports(reports)
        elif args.command == "use-case":
            reports = pipeline.run_use_case(cfg, args.model_dir)
            _print_reports(reports)
        elif args.command == "bench":
            reports = pipeline.run_bench(cfg)
            _print_reports(reports)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
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
