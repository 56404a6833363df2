"""Golden artifacts: seeded CLI runs must reproduce these exact bytes.

Every subcommand that writes a population, model or cohort artifact is
pinned, each in a child process with every BLAS pool held to one thread:

* `synth`: the persons, events and ground truth of a 1,200-person CLAIMS
  population (seed 42).
* `synth-ehr`: the same files for a 1,200-person EHR population (seed 42).
* `synth-edge`: the same files for 300 EHR persons (seed 7) with one rx
  code, half an event per person-year and base logit 1.0. About two thirds
  of its persons draw no active rx code and take the fallback one, 25 have
  no event and 186 have an onset.
* `train`: that population, two epochs.
* `cohort` and `bench`: the same population and seed.
* `cohort-age18`: the AGE18 cohort of the same population.
* `cross-eval`: a 1,200-person EHR population (seed 42) scored with the
  `train` run's model.
* `two-step`: pretrained on the EHR population, fine-tuned on the CLAIMS
  one, two epochs each.
* `use-case`: the SUBSTANCE cohort of a 6,000-person population (seed 42),
  fine-tuned from the `train` run's model. At 1,200 persons the SUBSTANCE
  splits hold no cases, so this run needs the larger population.

Each run pins exactly the artifacts it writes; the others must be absent.

A change that alters any of these bytes must say which bits changed and
why, and update the hashes in the same change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ARTIFACTS = (
    "persons.csv", "events.csv", "ground_truth.csv", "cohort.csv", "vocabulary.txt", "report.csv", "model.bin",
)

GOLDEN = {
    "synth": {
        "persons.csv": "88b14cf0e1b6ea2d8e75b9ceeec0dbc5440e4cc511edbd60c17d04672c6978af",
        "events.csv": "806cfa8d1a13452efc0da4ec4b1cf17a8ed9a8a84289523c7f8a8ccf5920f6b6",
        "ground_truth.csv": "35dcd4f2afa72c70893067fe77f9572ccbb482fac21b2fe222dd962bc229996d",
    },
    "synth-ehr": {
        "persons.csv": "e8833fe5c978f85bb791cb4ad59bf54e7ab2b1cd6ab3aea88658c11802f1c285",
        "events.csv": "91bf8a2249246b379653c256640fa617146ea1f7b7b247d333d3d7db1274eac1",
        "ground_truth.csv": "f06930e9ff601f0b2a216fa1f90bbdf8548fa8adf14d8a0d86ae134b6f657011",
    },
    "synth-edge": {
        "persons.csv": "8fe724cc32798c216077e4d886f231b869af1752457cd925fbad4a7f359e40c3",
        "events.csv": "052881ace780f718e63f534a9de4ae749b0516b5138acf0b97932d431455eb3b",
        "ground_truth.csv": "8b38d2fc31f80ad022fcaf24ebe7ef9a5b2b4458cc422569f6d91226b2ff04af",
    },
    "train": {
        "cohort.csv": "e30c6bc676479b547c651639a07e0dc2bfe7f0a5490881172b8b88bbfc8fc40a",
        "vocabulary.txt": "a54ec65c3b1c40873b0804bd185b2b5f163cd414c590f264db4382eb99812499",
        "report.csv": "2c6a5f4d56bfc11ae094b32ce7b3a12534ac001742c29c6a4e229b831ce021ca",
        "model.bin": "574a6a9cd78fc83c9c29cf07f21d1a8d8492785bb406ba31e1e9c49217222506",
    },
    "cohort": {
        "cohort.csv": "e30c6bc676479b547c651639a07e0dc2bfe7f0a5490881172b8b88bbfc8fc40a",
    },
    "cohort-age18": {
        "cohort.csv": "c46fad075c06cd3a01519cae665ffd9ce97a3c3a5494aa75aa3c6c8ac562290f",
    },
    "bench": {
        "cohort.csv": "e30c6bc676479b547c651639a07e0dc2bfe7f0a5490881172b8b88bbfc8fc40a",
        "report.csv": "b8bd0096e496a82a08189ec3aea863b82b707e4c26a84df02d3db2cc106a8c98",
    },
    "cross-eval": {
        "cohort.csv": "d7f68ebe0972ef169b310005971eb2ee303c82a2317515193744adca4298a3f1",
        "vocabulary.txt": "a60e5ffbd7a822fcb2f2e25d29395f957477a7a6e41a833fa99a220c60d9506b",
        "report.csv": "2a1a48f7b448a38e92117c9d8ed8cd3a60d3c1a71b7073bfdd29f7a081e4dd05",
    },
    "two-step": {
        "cohort.csv": "e30c6bc676479b547c651639a07e0dc2bfe7f0a5490881172b8b88bbfc8fc40a",
        "vocabulary.txt": "a54ec65c3b1c40873b0804bd185b2b5f163cd414c590f264db4382eb99812499",
        "report.csv": "9b3605eed63f3c6337cd2de3f3c55be2fd2d2d6d4beb736e244a5c8112979be0",
        "model.bin": "50015bbdf39df373f329576e6c52e15d4a1e94779e492d87ee50c360f3298807",
    },
    "use-case": {
        "cohort.csv": "5b6d9c5912c8df09822d6c23745631e50e0307c1eebd6b41b34886110be52925",
        "vocabulary.txt": "85fd2953de90aba3956f44991e05a3d53abe10651921d50cb51a02696604ff36",
        "report.csv": "d3bfde776e7a7dffb24ebba6b956968b61bf5c554ff1578392c92af3490d54c6",
        "model.bin": "91d12d845e5ea60783e7809a48e3b31eeaaaf38212b7c2fd2359d6c6af53955c",
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


def _synth(root: Path, name: str, persons: int, source: str = "CLAIMS", **keys: object) -> Path:
    out = root / name
    values = {"synth.n_persons": persons, "synth.source": source, "seed": 42, **keys}
    cfg = _config(root / f"{name}.cfg", values)
    _cli("synth", "--config", cfg, "--out", str(out))
    return out


def _data(pop: Path) -> dict[str, object]:
    return {"data.persons": pop / "persons.csv", "data.events": pop / "events.csv"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    small = _synth(root, "pop1200", 1200)
    ehr = _synth(root, "ehr1200", 1200, source="EHR")
    two_epochs = {"seed": 42, "nnet.max_epochs": 2, "nnet.patience": 2}
    train_out = root / "train"
    cfg = _config(root / "train.cfg", {**_data(small), **two_epochs})
    _cli("train", "--config", cfg, "--out", str(train_out))
    edge = _synth(
        root, "edge300", 300, source="EHR",
        **{"seed": 7, "synth.n_rx": 1, "synth.event_rate": 0.5, "synth.base_logit": 1.0},
    )
    outs = {"synth": small, "synth-ehr": ehr, "synth-edge": edge, "train": train_out}
    for mode in ("cohort", "bench"):
        outs[mode] = root / mode
        _cli(mode, "--config", cfg, "--out", str(outs[mode]))
    outs["cohort-age18"] = root / "cohort-age18"
    cfg = _config(root / "cohort-age18.cfg", {**_data(small), "seed": 42, "cohort.kind": "AGE18"})
    _cli("cohort", "--config", cfg, "--out", str(outs["cohort-age18"]))
    outs["cross-eval"] = root / "cross-eval"
    cfg = _config(root / "cross-eval.cfg", {**_data(ehr), **two_epochs})
    _cli("cross-eval", "--config", cfg, "--out", str(outs["cross-eval"]), "--model-dir", str(train_out))
    outs["two-step"] = root / "two-step"
    pretrain = {"pretrain.persons": ehr / "persons.csv", "pretrain.events": ehr / "events.csv"}
    cfg = _config(root / "two-step.cfg", {**pretrain, **_data(small), **two_epochs})
    _cli("two-step", "--config", cfg, "--out", str(outs["two-step"]))
    large = _synth(root, "pop6000", 6000)
    use_out = root / "use-case"
    cfg = _config(
        root / "use-case.cfg",
        {
            **_data(large),
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
    outs["use-case"] = use_out
    return outs


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(runs, run):
    got = {
        name: hashlib.sha256((runs[run] / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (runs[run] / name).exists()
    }
    assert got == GOLDEN[run]


def test_manifest_says_blas_was_pinned(runs):
    # `_cli` sets every thread variable to 1
    for run, out in runs.items():
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["blas_thread_env"] == {name: "1" for name in THREAD_ENV}, run
        assert manifest["blas_pinned"] is True, run
