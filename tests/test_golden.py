"""Golden artifacts: seeded CLI runs must reproduce these exact bytes.

Two runs are pinned, each in a child process with every BLAS pool held to
one thread:

* `train`: a 1,200-person CLAIMS population (seed 42), two epochs.
* `use-case`: the SUBSTANCE cohort of a 6,000-person population (seed 42),
  fine-tuned from the `train` run's model. At 1,200 persons the SUBSTANCE
  splits hold no cases, so this run needs the larger population.

A change that alters any of these bytes must say which bits changed and
why, and update the hashes in the same change.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ARTIFACTS = ("cohort.csv", "vocabulary.txt", "report.csv", "model.bin")

GOLDEN = {
    "train": {
        "cohort.csv": "e30c6bc676479b547c651639a07e0dc2bfe7f0a5490881172b8b88bbfc8fc40a",
        "vocabulary.txt": "a54ec65c3b1c40873b0804bd185b2b5f163cd414c590f264db4382eb99812499",
        "report.csv": "2c6a5f4d56bfc11ae094b32ce7b3a12534ac001742c29c6a4e229b831ce021ca",
        "model.bin": "8d8374260a62132af1c9e758ceef19427d670b82670a75f1a52ada5b0b967e1b",
    },
    "use-case": {
        "cohort.csv": "5b6d9c5912c8df09822d6c23745631e50e0307c1eebd6b41b34886110be52925",
        "vocabulary.txt": "85fd2953de90aba3956f44991e05a3d53abe10651921d50cb51a02696604ff36",
        "report.csv": "d3bfde776e7a7dffb24ebba6b956968b61bf5c554ff1578392c92af3490d54c6",
        "model.bin": "8a47ef540326a88ef8d09bedf06a2c289dd1bf0f81f41e705ccee641e5e128bb",
    },
}


def _cli(*args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update({name: "1" for name in THREAD_ENV})
    done = subprocess.run(
        [sys.executable, "-m", "smiscreen.cli", *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def _config(path: Path, values: dict[str, object]) -> str:
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def _synth(root: Path, name: str, persons: int) -> Path:
    out = root / name
    cfg = _config(root / f"{name}.cfg", {"synth.n_persons": persons, "synth.source": "CLAIMS", "seed": 42})
    _cli("synth", "--config", cfg, "--out", str(out))
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    small = _synth(root, "pop1200", 1200)
    train_out = root / "train"
    cfg = _config(
        root / "train.cfg",
        {
            "data.persons": small / "persons.csv",
            "data.events": small / "events.csv",
            "seed": 42,
            "nnet.max_epochs": 2,
            "nnet.patience": 2,
        },
    )
    _cli("train", "--config", cfg, "--out", str(train_out))
    large = _synth(root, "pop6000", 6000)
    use_out = root / "use-case"
    cfg = _config(
        root / "use-case.cfg",
        {
            "data.persons": large / "persons.csv",
            "data.events": large / "events.csv",
            "seed": 42,
            "cohort.kind": "SUBSTANCE",
            "split.train": 0.34,
            "split.val": 0.33,
            "split.test": 0.33,
            "nnet.max_epochs": 10,
            "nnet.patience": 10,
        },
    )
    _cli("use-case", "--config", cfg, "--out", str(use_out), "--model-dir", str(train_out))
    return {"train": train_out, "use-case": use_out}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(runs, run):
    got = {
        name: hashlib.sha256((runs[run] / name).read_bytes()).hexdigest() for name in ARTIFACTS
    }
    assert got == GOLDEN[run]
