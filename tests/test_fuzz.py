"""Seeded input fuzzing through the CLI: every mutated input ends in exit
code 0, 2, 3 or 4, never in an escaped exception, and a failing exit names
the file or the config key at fault.

A small population is synthesized and trained on once. Each case then
mutates one input that the program reads: persons.csv, events.csv, a
phecode map, vocabulary.txt, report.json, a config value, or a model
header (re-checksummed, so only the header checks can catch it). The
mutations are a flipped bit; an inserted comma, quote, carriage return,
invalid UTF-8 byte or non-ASCII digit; truncation; a repeated line; and an
impossible date. Cases, their seed and count are fixed. Config values
start small (40 persons, layers of 6, 4 and 3), and no mutation adds an
ASCII digit to a value (a flipped bit can only change one), so no case
asks for a large allocation.

Run as a script, it prints one line per case (the case, its exit code and
its message, with the work directory shown as <root>), so two source trees
can be compared case by case:

    python tests/test_fuzz.py --src path/to/src > cases.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

SEED = 20261019
CASES_PER_FILE = 27  # three of each mutation

MUTATIONS = ("flip", "comma", "quote", "cr", "utf8", "digit", "truncate", "repeat", "date")
INSERTS = {"comma": b",", "quote": b'"', "cr": b"\r", "utf8": b"\xff"}
DIGITS = ("٣", "２", "৪")  # Arabic-Indic 3, full-width 2, Bengali 4
BAD_DATES = (b"2013-02-30", b"2013-13-01", b"2012-00-10", b"2011-04-31")
DATE = re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2}")

TINY_NNET = {"nnet.embedding_dim": "6", "nnet.hidden1": "4", "nnet.hidden2": "3", "nnet.max_epochs": "2"}
# every config key a synth run reads, n_persons and source first so that a
# truncation further down drops only keys with defaults
SYNTH_CONFIG = {
    "synth.n_persons": "40", "synth.source": "CLAIMS", "seed": "7", "threads": "1",
    "synth.event_rate": "4.5", "synth.base_logit": "-3.5", "synth.rate_cap": "0.3",
    "synth.n_shared_dx": "150", "synth.n_specific_dx": "10", "synth.n_rx": "20",
    "synth.year_min": "2004", "synth.year_max": "2012", "split.train": "0.6", "split.val": "0.1",
    "split.test": "0.3", "nnet.learning_rate": "0.001", "nnet.batch_size": "32", "nnet.patience": "2",
    "cohort.kind": "ALL_AGE", "cohort.controls_per_case": "3", **TINY_NNET,
}


def mutate(data: bytes, kind: str, rng: random.Random, lo: int = 0, hi: int | None = None) -> bytes:
    """`data` with one mutation of `kind` at a position drawn from [lo, hi)."""
    hi = len(data) if hi is None else hi
    at = rng.randrange(lo, max(hi, lo + 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1 :] if data else data
    if kind in INSERTS or kind == "digit":
        text = INSERTS.get(kind) or rng.choice(DIGITS).encode()
        return data[:at] + text + data[at:]
    if kind == "truncate":
        return data[:at]
    if kind == "repeat":
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        line = data[start:] + b"\n" if end < 0 else data[start : end + 1]
        return data[:start] + line + data[start:]
    dates = [m for m in DATE.finditer(data) if lo <= m.start() < hi]
    if not dates:  # no date to spoil: a flipped bit instead
        return mutate(data, "flip", rng, lo, hi)
    m = rng.choice(dates)
    return data[: m.start()] + rng.choice(BAD_DATES) + data[m.end() :]


def _run_cli(argv: list[str]) -> tuple[object, str]:
    from smiscreen.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # an escaped exception is what this file looks for
            return "EXC", f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def _config(path: Path, mapping: dict[str, str]) -> str:
    path.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()), encoding="utf-8")
    return str(path)


def _rechecksum(model: bytes, header: bytes) -> bytes:
    """`model` (a model.bin) with its JSON header replaced by `header`, its
    length and checksum recomputed."""
    old = int.from_bytes(model[8:16], "little")
    body = model[:8] + len(header).to_bytes(8, "little") + header + model[16 + old : -32]
    return body + hashlib.sha256(body).digest()


def build_workspace(root: Path) -> dict[str, Path]:
    """A synthesized population, the packaged phecode map and a trained
    model directory under `root`."""
    from importlib import resources

    synth = _config(root / "synth.cfg", {"synth.n_persons": "400", "synth.source": "CLAIMS", "seed": "42"})
    code, message = _run_cli(["synth", "--config", synth, "--out", str(root / "data")])
    assert code == 0, message
    files = {
        "persons.csv": root / "data" / "persons.csv",
        "events.csv": root / "data" / "events.csv",
        "phecode_map.csv": root / "phecode_map.csv",
    }
    files["phecode_map.csv"].write_bytes((resources.files("smiscreen.data") / "phecode_map.csv").read_bytes())
    data = {"data.persons": files["persons.csv"], "data.events": files["events.csv"],
            "data.phecode_map": files["phecode_map.csv"], "seed": "42", **TINY_NNET}
    code, message = _run_cli(["train", "--config", _config(root / "train.cfg", data), "--out", str(root / "train")])
    assert code == 0, message
    for name in ("model.bin", "vocabulary.txt", "report.json"):
        files[name] = root / "train" / name
    return files


def cases(files: dict[str, Path]) -> list[tuple[str, str, str, bytes]]:
    """(target, case name, key it names, mutated bytes) of every case, in a
    fixed order drawn from SEED; the key is the config key of a config case
    and "" for the others."""
    rng = random.Random(SEED)
    out = []
    for target in ("persons.csv", "events.csv", "phecode_map.csv", "vocabulary.txt", "report.json", "model.bin",
                   "config"):
        for i in range(CASES_PER_FILE):
            kind = MUTATIONS[i % len(MUTATIONS)]
            key, lo, hi = "", 0, None
            if target == "config":
                data = "".join(f"{k}={v}\n" for k, v in SYNTH_CONFIG.items()).encode()
                key = rng.choice(list(SYNTH_CONFIG))
                lo = data.index(f"{key}=".encode()) + len(key) + 1
                hi = data.index(b"\n", lo)
            elif target == "model.bin":
                model = files["model.bin"].read_bytes()
                data = model[16 : 16 + int.from_bytes(model[8:16], "little")]
            else:
                data = files[target].read_bytes()
            mutated = mutate(data, kind, rng, lo, hi)
            if target == "model.bin":
                mutated = _rechecksum(model, mutated)
            out.append((target, f"{target}:{kind}#{i}", key, mutated))
    return out


def run_case(root: Path, files: dict[str, Path], target: str, key: str, mutated: bytes) -> tuple:
    """(exit code, message, the names a failing message may hold) of one case."""
    work = root / "case"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = str(work / "out")
    if target == "config":
        path = work / "run.cfg"
        path.write_bytes(mutated)
        # a value checked with others may be named by its section or its last part
        return (*_run_cli(["synth", "--config", str(path), "--out", out]), (str(path), key, *key.split(".")))
    path = work / target
    path.write_bytes(mutated)
    if target == "report.json":
        return (*_run_cli(["report", str(path), "--out", out]), (str(path),))
    if target in ("vocabulary.txt", "model.bin"):
        other = "model.bin" if target == "vocabulary.txt" else "vocabulary.txt"
        shutil.copy(files[other], work / other)
        cfg = _config(work / "c.cfg", {"data.persons": files["persons.csv"], "data.events": files["events.csv"],
                                        "seed": "42", **TINY_NNET})
        # a model that disagrees with its vocabulary may name the directory
        return (*_run_cli(["cross-eval", "--config", cfg, "--out", out, "--model-dir", str(work)]),
                (str(path), f"{work}: "))
    table = {"persons.csv": "data.persons", "events.csv": "data.events", "phecode_map.csv": "data.phecode_map"}
    data = {"data.persons": files["persons.csv"], "data.events": files["events.csv"], "seed": "42",
            table[target]: path}
    return (*_run_cli(["cohort", "--config", _config(work / "c.cfg", data), "--out", out]), (str(path),))


def run_all(root: Path) -> list[tuple[str, object, str, bool]]:
    """(case, exit code, message, whether the message names its file or
    key) of every case; the work directory shows as <root>."""
    files = build_workspace(root)
    results = []
    for target, case, key, mutated in cases(files):
        code, message, culprits = run_case(root, files, target, key, mutated)
        named = any(name in message for name in culprits)
        results.append((case, code, message.replace(str(root), "<root>"), named))
    return results


def test_mutated_inputs_exit_cleanly_and_name_the_culprit(tmp_path):
    results = run_all(tmp_path)
    assert len(results) == 7 * CASES_PER_FILE
    bad = [r for r in results if r[1] not in (0, 2, 3, 4) or (r[1] != 0 and not r[3])]
    assert not bad, "\n".join(map(repr, bad))
    assert any(r[1] == 0 for r in results) and any(r[1] == 3 for r in results)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="source tree to import smiscreen from (default: the installed one)")
    args = parser.parse_args()
    if args.src:
        sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        for case, code, message, named in run_all(Path(tmp)):
            print(f"{case}\t{code}\t{message.replace(chr(10), ' | ')}" + ("" if named or code == 0 else "\tUNNAMED"))
