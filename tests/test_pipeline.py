"""Config parsing, splits, CLI subcommands, and end-to-end run modes."""

import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import d, make_dataset, make_event, make_person
from nnet_checks import rewrite_header
from smiscreen import pipeline
from smiscreen.cli import _config_from_args, build_parser, main
from smiscreen.cohort import ALL_AGE, Cohort, CohortExample, ObservationWindow, build_all_age_cohort
from smiscreen.errors import ConfigError, DegenerateCohortError
from smiscreen.pipeline import (
    CONFIG_KEYS,
    RunConfig,
    SplitFractions,
    parse_config_file,
    split_cohort,
)

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SMALL_NNET = {
    "nnet.embedding_dim": "24",
    "nnet.hidden1": "16",
    "nnet.hidden2": "8",
    "nnet.max_epochs": "4",
    "nnet.patience": "4",
}


FLOAT_KEYS = [
    "split.train",
    "split.val",
    "split.test",
    "nnet.learning_rate",
    "synth.event_rate",
    "synth.base_logit",
    "synth.rate_cap",
]


# every config key, each away from its default
EVERY_KEY = {
    "data.persons": "p.csv", "data.events": "e.csv", "data.phecode_map": "map.csv",
    "pretrain.persons": "pp.csv", "pretrain.events": "pe.csv", "out": "runs/x",
    "cohort.kind": "AGE18", "cohort.controls_per_case": "7",
    "split.train": "0.5", "split.val": "0.2", "split.test": "0.3",
    "nnet.embedding_dim": "12", "nnet.hidden1": "9", "nnet.hidden2": "5", "nnet.learning_rate": "0.01",
    "nnet.batch_size": "32", "nnet.max_epochs": "3", "nnet.patience": "2",
    "synth.n_persons": "77", "synth.source": "EHR", "synth.event_rate": "4.5", "synth.base_logit": "-3.5",
    "synth.rate_cap": "0.3", "synth.n_shared_dx": "150", "synth.n_specific_dx": "10", "synth.n_rx": "20",
    "synth.year_min": "2001", "synth.year_max": "2010", "seed": "9", "threads": "2",
}


def write_config(path, mapping):
    path.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()), encoding="utf-8")
    return str(path)


def example(pid, group, label):
    w = ObservationWindow(d("2012-01-01"), d("2012-12-31"))
    return CohortExample(pid, label, w, group, ALL_AGE, None)


class TestSplitCohort:
    @staticmethod
    def groups(n, controls=2):
        out = []
        for g in range(n):
            out.append(example(f"case{g}", f"case{g}", 1))
            out.extend(example(f"ctl{g}-{j}", f"case{g}", 0) for j in range(controls))
        return Cohort.of(out, make_dataset([make_person(ex.person_id) for ex in out], []))

    def test_largest_remainder_sizes(self):
        assignment = split_cohort(self.groups(10), SplitFractions(), seed=4)
        sizes = {name: 0 for name in ("TRAIN", "VAL", "TEST")}
        for g, name in assignment.by_group.items():
            sizes[name] += 1
        assert sizes == {"TRAIN": 6, "VAL": 1, "TEST": 3}

    def test_same_seed_same_assignment(self):
        a = split_cohort(self.groups(20), SplitFractions(), seed=11).by_group
        b = split_cohort(self.groups(20), SplitFractions(), seed=11).by_group
        assert a == b

    def test_different_seed_different_assignment(self):
        a = split_cohort(self.groups(40), SplitFractions(), seed=1).by_group
        b = split_cohort(self.groups(40), SplitFractions(), seed=2).by_group
        assert a != b

    def test_groups_stay_atomic(self):
        examples = self.groups(25, controls=3)
        assignment = split_cohort(examples, SplitFractions(), seed=8)
        splits = assignment.split_examples(examples)
        for name, exs in splits.items():
            for ex in exs:
                assert assignment.by_group[ex.match_group] == name

    def test_atomicity_on_synthetic_cohort(self, pop5k, phemap):
        examples, _ = build_all_age_cohort(pop5k[0], phemap, seed=42)
        assignment = split_cohort(examples, SplitFractions(), seed=42)
        split_of = {}
        for ex in examples:
            split_of.setdefault(ex.match_group, set()).add(assignment.by_group[ex.match_group])
        assert all(len(s) == 1 for s in split_of.values())

    def test_single_class_split_rejected_with_advice(self):
        examples = self.groups(2, controls=1)
        with pytest.raises(DegenerateCohortError, match="seed"):
            split_cohort(examples, SplitFractions(), seed=3)

    def test_fraction_validation(self):
        with pytest.raises(ConfigError):
            SplitFractions(0.5, 0.2, 0.2).validate()
        with pytest.raises(ConfigError):
            SplitFractions(0.6, -0.1, 0.5).validate()


class TestConfig:
    def test_parse_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 9\nsplit.train=0.6\n\nnnet.embedding_dim=12\n")
        flat = parse_config_file(str(path))
        assert flat == {"seed": "9", "split.train": "0.6", "nnet.embedding_dim": "12"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not a key value\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config_file(str(path))

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("synth.n_persons=50\nsynth.source=CLAIMS\nseed=1\n\n seed = 2\n", encoding="utf-8")
        message = f"{path}:5: duplicate key 'seed'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_file(str(path))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_command_line_overrides_a_file_key(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", {"seed": "1", "threads": "2", "out": "a"})
        args = build_parser().parse_args(
            ["cohort", "--config", path, "--seed", "7", "--threads", "3", "--out", "b"]
        )
        cfg = _config_from_args(args)
        assert (cfg.seed, cfg.threads, cfg.out_dir) == (7, 3, "b")

    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "1_0"), ("--seed", "+5"), ("--seed", "\u0663"), ("--threads", "\uff12")],
        ids=["underscore", "plus", "arabic-indic", "full-width"],
    )
    def test_flags_pass_the_config_key_parser(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path / "run.cfg", {"synth.n_persons": "50", "synth.source": "CLAIMS"})
        assert main(["synth", "--config", path, "--out", str(tmp_path / "o"), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"config key {flag[2:]}: bad value {value!r}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_mapping({"nnet.dropout": "0.5"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_mapping({"seed": "banana"})

    @pytest.mark.parametrize(
        "key,value",
        [("seed", "\u0663"), ("seed", "1_0"), ("seed", "+5"), ("nnet.max_epochs", "2.0"), ("threads", "\uff12")],
        ids=["arabic-indic", "underscore", "plus", "decimal", "full-width"],
    )
    def test_integer_keys_take_ascii_digits_only(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"config key {key}: bad value {value!r}")):
            RunConfig.from_mapping({key: value})
        cfg = write_config(tmp_path / "c.cfg", {"synth.n_persons": "50", "synth.source": "CLAIMS", key: value})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}: bad value {value!r}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_nested_keys_land(self):
        cfg = RunConfig.from_mapping(
            {"seed": "5", "split.train": "0.7", "split.val": "0.1", "split.test": "0.2",
             "nnet.hidden1": "32", "cohort.kind": "AGE18", "threads": "4"}
        )
        assert cfg.seed == 5 and cfg.hp.seed == 5
        assert cfg.fractions.train == 0.7
        assert cfg.hp.hidden1 == 32
        assert cfg.cohort_kind == "AGE18"
        assert cfg.threads == 4

    def test_synth_keys_build_synth_config(self):
        cfg = RunConfig.from_mapping(
            {"synth.n_persons": "100", "synth.source": "EHR", "synth.rate_cap": "0.4", "seed": "3"}
        )
        assert cfg.synth is not None
        assert cfg.synth.n_persons == 100
        assert cfg.synth.source == "EHR"
        assert cfg.synth.smi_annual_rate_cap == 0.4
        assert cfg.synth.seed == 3
        assert cfg.synth.risk_weights  # planted defaults resolved

    # non-finite, or not an ASCII decimal though float() reads it
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1_0e-3", "\u0661e-3", "+0.5", "\uff10.5"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exits_2_naming_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", {"synth.n_persons": "50", "synth.source": "CLAIMS", key: value})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}: bad value {value!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,text,value",
        [("nnet.learning_rate", "1e-3", 1e-3), ("nnet.learning_rate", "1E-3", 1e-3), ("split.train", "0.6", 0.6),
         ("synth.rate_cap", ".5", 0.5), ("synth.base_logit", "-2.0", -2.0), ("synth.event_rate", "5.", 5.0)],
    )
    def test_float_keys_read_ascii_decimals(self, key, text, value):
        cfg = RunConfig.from_mapping({"synth.n_persons": "50", "synth.source": "CLAIMS", key: text})
        assert cfg.flat()[key] == value

    def test_invalid_utf8_config_exits_2_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"synth.n_persons=50\nsynth.source=CLAIMS\nseed=4\xff\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {cfg}" in err and "Traceback" not in err

    def test_synth_needs_source_and_count(self):
        with pytest.raises(ConfigError, match="synth"):
            RunConfig.from_mapping({"synth.n_persons": "100"})

    @pytest.mark.parametrize(
        "mapping",
        [EVERY_KEY, {}, {"synth.n_persons": "5", "synth.source": "CLAIMS", "pretrain.events": "pe.csv"}],
        ids=["every key", "defaults", "claims synth"],
    )
    def test_flat_round_trips_through_from_mapping(self, mapping):
        assert set(EVERY_KEY) == set(CONFIG_KEYS)
        flat = RunConfig.from_mapping(mapping).flat()
        text = {k: "" if v == "<packaged>" else str(v) for k, v in flat.items() if k != "nnet.seed"}
        assert RunConfig.from_mapping(text).flat() == flat

    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
        assert set(re.findall(r"`([\w.]+)`", table)) == set(CONFIG_KEYS)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("cohort.kind", "FOO", "config key cohort.kind: bad value 'FOO'"),
            ("synth.source", "FOO", "config key synth.source: bad value 'FOO'"),
            ("synth.year_max", "99999", "<= 9992 for loadable birth years, got (2008, 99999)"),
            ("synth.year_min", "0", "need 33 <= year_min"),
            ("synth.year_min", "2020", "got (2020, 2019)"),
            ("synth.event_rate", "1e19", "event_rate must be in (0, 1000]"),
            ("synth.event_rate", "1000.5", "event_rate must be in (0, 1000]"),
            # birth years down to 1 - 49, below what persons.csv loads
            ("synth.year_min,synth.year_max", "1,3", "year_max <= 9992 for loadable birth years, got (1, 3)"),
            # a split check names the first bad key, or all three for their sum
            ("split.train", "0", "split.train must lie in (0, 1), got 0.0"),
            ("split.test,split.val", "0.3,1", "split.val must lie in (0, 1), got 1.0"),
            ("split.train", "0.5", "split.train + split.val + split.test must sum to 1, got 0.8999999999999999"),
        ],
    )
    def test_bad_enum_or_year_exits_2(self, tmp_path, capsys, key, value, message):
        overrides = dict(zip(key.split(","), value.split(",")))
        cfg = write_config(tmp_path / "c.cfg", {"synth.n_persons": "50", "synth.source": "CLAIMS", **overrides})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("synth.n_persons", "0"),
            ("synth.event_rate", "0"),
            ("synth.rate_cap", "0."),
            ("synth.rate_cap", "1"),
            ("synth.year_min", "0"),
            ("synth.year_max", "10000"),
            ("synth.n_shared_dx", "1"),
            ("synth.n_specific_dx", "-1"),
            ("synth.n_rx", "0"),
            # pool sizes past any code system, which would build their code lists until memory ran out
            ("synth.n_shared_dx", "10000000000"),
            ("synth.n_specific_dx", "10000000000"),
            ("synth.n_rx", "10000000000"),
        ],
    )
    def test_synth_check_names_its_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", {"synth.n_persons": "50", "synth.source": "CLAIMS", key: value})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["nnet.embedding_dim", "nnet.hidden1", "nnet.hidden2"])
    @pytest.mark.parametrize("value", ["1000000000000000", "4097"])
    def test_layer_wider_than_cap_exits_2_before_reading(self, tmp_path, capsys, key, value):
        missing = {"data.persons": str(tmp_path / "nope.csv"), "data.events": str(tmp_path / "nope2.csv")}
        cfg = write_config(tmp_path / "c.cfg", {**missing, key: value})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be <= 4096" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value,bound",
        [
            ("nnet.patience", "-1", ">= 0"),
            ("nnet.learning_rate", "0", "positive and finite"),
            ("nnet.embedding_dim", "0", ">= 1"),
            ("nnet.batch_size", "0", ">= 1"),
            ("nnet.max_epochs", "0", ">= 1"),
        ],
    )
    def test_nnet_bound_names_its_key_before_reading(self, tmp_path, capsys, key, value, bound):
        missing = {"data.persons": str(tmp_path / "nope.csv"), "data.events": str(tmp_path / "nope2.csv")}
        cfg = write_config(tmp_path / "c.cfg", {**missing, key: value})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be {bound}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        ("how", "mode"), [("flag", "synth"), ("flag", "train"), ("key", "synth"), ("key", "train"), ("flag", "report")]
    )
    def test_empty_out_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, mode, how):
        monkeypatch.chdir(tmp_path)
        keys = (
            {"synth.n_persons": "50", "synth.source": "CLAIMS"} if mode == "synth"
            else {"data.persons": "nope.csv", "data.events": "nope2.csv"}
        )
        cfg = write_config(tmp_path / "c.cfg", {**keys, "out": "" if how == "key" else "o"})
        argv = ["report", "nope.json"] if mode == "report" else [mode, "--config", cfg]
        assert main([*argv, *(["--out="] if how == "flag" else [])]) == 2
        err = capsys.readouterr().err
        assert "out must name a directory" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["c.cfg"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; several tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("ws")
    data_dir = root / "data"
    synth_cfg = write_config(
        root / "synth.cfg",
        {"synth.n_persons": "1500", "synth.source": "CLAIMS", "seed": "42"},
    )
    assert main(["synth", "--config", synth_cfg, "--out", str(data_dir)]) == 0
    train_dir = root / "train"
    train_cfg = write_config(
        root / "train.cfg",
        {
            "data.persons": str(data_dir / "persons.csv"),
            "data.events": str(data_dir / "events.csv"),
            "seed": "42",
            **SMALL_NNET,
        },
    )
    assert main(["train", "--config", train_cfg, "--out", str(train_dir)]) == 0
    return {"root": root, "data": data_dir, "train": train_dir, "train_cfg": train_cfg}


def assert_no_numpy_ma_import(args: list[str]) -> None:
    """The CLI run of `args` exits 0 in a fresh interpreter and imports
    numpy.ma only if importing numpy did. NumPy 2.3+ imports numpy.ma
    (about 35 ms) on a plain np.unique; 1.24 imports it with numpy."""
    script = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from smiscreen.cli import main\n"
        f"code = main({args!r})\n"
        "print(code, eager, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    code, eager, after = proc.stdout.split()[-3:]
    assert code == "0" and after == eager, proc.stderr


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestSynthCommand:
    def test_outputs_exist_and_align(self, workspace):
        data = workspace["data"]
        persons = (data / "persons.csv").read_text().splitlines()
        events = (data / "events.csv").read_text().splitlines()
        truth = (data / "ground_truth.csv").read_text().splitlines()
        assert len(persons) == 1501 and len(truth) == 1501
        assert len(events) > 1501
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["mode"] == "synth"
        assert manifest["counts"]["persons"] == 1500

    def test_synth_imports_numpy_ma_only_if_numpy_did(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", {"synth.n_persons": "1500", "synth.source": "CLAIMS", "seed": "42"})
        assert_no_numpy_ma_import(["synth", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_synth_requires_synth_keys(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", {"seed": "1"})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestTrainCommand:
    def test_report_shape(self, workspace):
        payload = read_report(workspace["train"] / "report.json")
        rows = payload["reports"]
        assert [r["method"] for r in rows] == ["MODEL", "BENCH1", "BENCH2"]
        model_row, b1, b2 = rows
        assert model_row["auc"] is not None and model_row["threshold"] is not None
        assert b1["auc"] is None and b2["auc"] is None
        manifest = json.loads((workspace["train"] / "manifest.json").read_text())
        test_size = manifest["counts"]["split_sizes"]["TEST"]
        for r in rows:
            assert r["n_pos"] > 0 and r["n_neg"] > 0
            assert r["n_pos"] + r["n_neg"] == test_size
            assert r["seed"] == 42 and r["version"]
        assert "timestamp" in payload

    def test_train_imports_numpy_ma_only_if_numpy_did(self, workspace, tmp_path):
        assert_no_numpy_ma_import(["train", "--config", workspace["train_cfg"], "--out", str(tmp_path / "out")])

    def test_manifest_records_training_log_and_blas_pinning(self, workspace):
        manifest = json.loads((workspace["train"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert len(counts["train_loss"]) == len(counts["val_auc"]) == counts["epochs_run"]
        assert counts["val_auc"][counts["best_epoch"] - 1] == counts["best_val_auc"]
        try:
            import threadpoolctl  # noqa: F401

            importable = True
        except ImportError:
            importable = False
        env = {name: os.environ.get(name) for name in THREAD_ENV}
        assert manifest["blas_thread_env"] == env
        assert manifest["blas_pinned"] is (importable or all(v == "1" for v in env.values()))

    def test_threadpoolctl_pins_training_and_scoring(self, workspace, tmp_path, monkeypatch):
        calls = []

        @contextlib.contextmanager
        def threadpool_limits(*, limits):
            calls.append(limits)
            yield

        monkeypatch.setattr(pipeline, "threadpool_limits", threadpool_limits)
        out = tmp_path / "pinned"
        assert main(["train", "--config", workspace["train_cfg"], "--out", str(out)]) == 0
        assert calls == [1, 1]  # training, then scoring VAL and TEST
        assert json.loads((out / "manifest.json").read_text())["blas_pinned"] is True
        assert (out / "model.bin").read_bytes() == (workspace["train"] / "model.bin").read_bytes()

    def test_artifacts_written(self, workspace):
        out = workspace["train"]
        for name in ("model.bin", "vocabulary.txt", "cohort.csv", "report.csv", "manifest.json"):
            assert (out / name).exists(), name

    def test_rerun_byte_identical_except_timestamp(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main(["train", "--config", workspace["train_cfg"], "--out", str(again)]) == 0
        for name in ("model.bin", "vocabulary.txt", "cohort.csv", "report.csv"):
            assert (again / name).read_bytes() == (workspace["train"] / name).read_bytes(), name
        a = read_report(again / "report.json")
        b = read_report(workspace["train"] / "report.json")
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_threads_flag_does_not_change_results(self, workspace, tmp_path):
        out = tmp_path / "threads8"
        assert main(["train", "--config", workspace["train_cfg"], "--out", str(out), "--threads", "8"]) == 0
        assert (out / "model.bin").read_bytes() == (workspace["train"] / "model.bin").read_bytes()
        assert (out / "report.csv").read_bytes() == (workspace["train"] / "report.csv").read_bytes()

    def test_version_ignores_git_repo_in_working_directory(self, workspace, tmp_path, monkeypatch):
        from smiscreen import __version__

        repo = tmp_path / "elsewhere"
        repo.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], cwd=repo, check=True)
        monkeypatch.chdir(repo)
        out = tmp_path / "bench"
        assert main(["bench", "--config", workspace["train_cfg"], "--out", str(out)]) == 0
        expected = f"smiscreen-{__version__}"
        assert json.loads((out / "manifest.json").read_text())["version"] == expected
        assert {r["version"] for r in read_report(out / "report.json")["reports"]} == {expected}

    def test_missing_data_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg",
            {"data.persons": str(tmp_path / "nope.csv"), "data.events": str(tmp_path / "nope2.csv")},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_missing_paths_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", {"seed": "1"})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestCohortAndBenchCommands:
    def test_cohort_command(self, workspace, tmp_path):
        out = tmp_path / "cohort"
        cfg = write_config(
            tmp_path / "c.cfg",
            {
                "data.persons": str(workspace["data"] / "persons.csv"),
                "data.events": str(workspace["data"] / "events.csv"),
                "seed": "42",
            },
        )
        assert main(["cohort", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "cohort.csv").read_text().splitlines()
        assert lines[0].startswith("person_id,label")
        assert len(lines) > 10

    def test_bench_command(self, workspace, tmp_path):
        out = tmp_path / "bench"
        cfg = write_config(
            tmp_path / "c.cfg",
            {
                "data.persons": str(workspace["data"] / "persons.csv"),
                "data.events": str(workspace["data"] / "events.csv"),
                "seed": "42",
            },
        )
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        rows = read_report(out / "report.json")["reports"]
        assert [r["method"] for r in rows] == ["BENCH1", "BENCH2"]
        assert all(r["auc"] is None for r in rows)


def printed_row(row):
    """The stdout line a report subcommand prints for one report.json row."""
    auc_text = "NA" if row["auc"] is None else f"{row['auc']:.3f}"
    return (
        f"{row['method']:9s} {row['dataset']:8s} {row['cohort']:9s} "
        f"auc={auc_text} sens={row['sensitivity']:.3f} spec={row['specificity']:.3f} "
        f"prev={row['prevalence']:.4f} (n={row['n_pos']}+/{row['n_neg']}-)"
    )


class TestReportStdout:
    @pytest.mark.parametrize("mode", ["train", "bench", "cross-eval"])
    def test_one_line_per_report_row(self, workspace, tmp_path, capsys, mode):
        data = workspace["data"]
        cfg = write_config(
            tmp_path / "c.cfg",
            {"data.persons": str(data / "persons.csv"), "data.events": str(data / "events.csv"),
             "seed": "42", **SMALL_NNET, "nnet.max_epochs": "1"},
        )
        extra = ["--model-dir", str(workspace["train"])] if mode == "cross-eval" else []
        capsys.readouterr()
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "o"), *extra]) == 0
        printed = capsys.readouterr()
        rows = read_report(tmp_path / "o" / "report.json")["reports"]
        assert rows and printed.out.splitlines() == [printed_row(r) for r in rows]
        assert printed.err == ""

    def test_subcommands_in_help_order(self):
        usage = build_parser().format_usage()
        assert "{synth,cohort,train,two-step,bench,cross-eval,use-case,report}" in usage


# The cohort filter chain every mode that builds a cohort writes into manifest.json counts
CHAIN = (
    "persons", "cases_found", "cases_excluded_use_case", "case_windows_dropped", "cases_retained",
    "cases_without_controls", "controls", "examples", "prevalence",
)


def test_every_cohort_mode_reports_one_filter_chain(workspace, tmp_path):
    counts = {"train": json.loads((workspace["train"] / "manifest.json").read_text())["counts"]}
    for mode, extra in {"cohort": [], "bench": [], "cross-eval": ["--model-dir", str(workspace["train"])]}.items():
        assert main([mode, "--config", workspace["train_cfg"], "--out", str(tmp_path / mode), *extra]) == 0
        counts[mode] = json.loads((tmp_path / mode / "manifest.json").read_text())["counts"]
    chain = {name: counts["train"][name] for name in CHAIN}
    for mode in ("cohort", "bench", "cross-eval"):
        assert {name: counts[mode][name] for name in CHAIN} == chain, mode
    found, retained = chain["cases_found"], chain["cases_retained"]
    assert found - chain["cases_excluded_use_case"] - chain["case_windows_dropped"] == retained > 0
    assert retained + chain["controls"] == chain["examples"]
    assert set(counts["cohort"]) == set(CHAIN) and set(counts["bench"]) == {*CHAIN, "split_sizes"}
    for mode in ("train", "bench", "cross-eval"):
        assert sum(counts[mode]["split_sizes"].values()) == chain["examples"], mode


class TestCrossEval:
    def test_self_transfer_identity(self, workspace, tmp_path):
        out = tmp_path / "cross"
        code = main(
            ["cross-eval", "--config", workspace["train_cfg"], "--out", str(out),
             "--model-dir", str(workspace["train"])]
        )
        assert code == 0
        cross_row = read_report(out / "report.json")["reports"][0]
        own_row = read_report(workspace["train"] / "report.json")["reports"][0]
        assert cross_row["auc"] == own_row["auc"]
        assert cross_row["sensitivity"] == own_row["sensitivity"]
        assert cross_row["specificity"] == own_row["specificity"]

    def test_corrupt_model_is_data_error(self, workspace, tmp_path):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        blob = (workspace["train"] / "model.bin").read_bytes()
        (bad_dir / "model.bin").write_bytes(blob[: len(blob) // 3])
        (bad_dir / "vocabulary.txt").write_bytes((workspace["train"] / "vocabulary.txt").read_bytes())
        code = main(
            ["cross-eval", "--config", workspace["train_cfg"], "--out", str(tmp_path / "o"),
             "--model-dir", str(bad_dir)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda h: h.pop("V"), "header lacks V"),
            (lambda h: h["hyperparams"].update(dropout=0.5), "unknown hyperparams in header: dropout"),
            # V*d is 2**63 and 2**64: an int64 product would wrap past the size check
            (lambda h: (h.update(V=2**61, d=4), h["hyperparams"].update(embedding_dim=4)),
             "parameter block embedding truncated"),
            (lambda h: (h.update(V=2**62, d=4), h["hyperparams"].update(embedding_dim=4)),
             "parameter block embedding truncated"),
        ],
        ids=["no V", "unknown hyperparam", "V*d wraps int64", "V*d wraps uint64"],
    )
    def test_checksummed_bad_header_exits_3(self, workspace, tmp_path, capsys, edit, message):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        rewrite_header(str(workspace["train"] / "model.bin"), edit, str(bad_dir / "model.bin"))
        (bad_dir / "vocabulary.txt").write_bytes((workspace["train"] / "vocabulary.txt").read_bytes())
        code = main(
            ["cross-eval", "--config", workspace["train_cfg"], "--out", str(tmp_path / "o"),
             "--model-dir", str(bad_dir)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"{bad_dir / 'model.bin'}: {message}" in err
        assert "Traceback" not in err

    def test_foreign_vocabulary_is_data_error(self, workspace, tmp_path):
        bad_dir = tmp_path / "badvocab"
        bad_dir.mkdir()
        (bad_dir / "model.bin").write_bytes((workspace["train"] / "model.bin").read_bytes())
        (bad_dir / "vocabulary.txt").write_text("dx:ICD10:ZZZ\n")
        code = main(
            ["cross-eval", "--config", workspace["train_cfg"], "--out", str(tmp_path / "o"),
             "--model-dir", str(bad_dir)]
        )
        assert code == 3


@pytest.fixture(scope="module")
def ehr_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("ehr")
    cfg = write_config(
        root / "synth.cfg",
        {"synth.n_persons": "1500", "synth.source": "EHR", "seed": "17"},
    )
    assert main(["synth", "--config", cfg, "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def boosted_claims(tmp_path_factory):
    root = tmp_path_factory.mktemp("boost")
    cfg = write_config(
        root / "synth.cfg",
        {"synth.n_persons": "6000", "synth.source": "CLAIMS", "synth.rate_cap": "0.5", "seed": "42"},
    )
    assert main(["synth", "--config", cfg, "--out", str(root)]) == 0
    return root


class TestTwoStepAndUseCase:
    def test_two_step_runs_and_labels_report(self, workspace, ehr_data, tmp_path):
        out = tmp_path / "two"
        cfg = write_config(
            tmp_path / "c.cfg",
            {
                "pretrain.persons": str(ehr_data / "persons.csv"),
                "pretrain.events": str(ehr_data / "events.csv"),
                "data.persons": str(workspace["data"] / "persons.csv"),
                "data.events": str(workspace["data"] / "events.csv"),
                "seed": "42",
                **SMALL_NNET,
            },
        )
        assert main(["two-step", "--config", cfg, "--out", str(out)]) == 0
        rows = read_report(out / "report.json")["reports"]
        assert rows[0]["method"] == "TWO_STEP"
        assert rows[0]["auc"] is not None

    def test_two_step_requires_pretrain_paths(self, workspace, tmp_path):
        assert main(["two-step", "--config", workspace["train_cfg"], "--out", str(tmp_path / "o")]) == 2

    def test_use_case_substance_run(self, boosted_claims, tmp_path):
        base_dir = tmp_path / "base"
        base_cfg = write_config(
            tmp_path / "base.cfg",
            {
                "data.persons": str(boosted_claims / "persons.csv"),
                "data.events": str(boosted_claims / "events.csv"),
                "seed": "42",
                **SMALL_NNET,
            },
        )
        assert main(["train", "--config", base_cfg, "--out", str(base_dir)]) == 0
        out = tmp_path / "usecase"
        uc_cfg = write_config(
            tmp_path / "uc.cfg",
            {
                "data.persons": str(boosted_claims / "persons.csv"),
                "data.events": str(boosted_claims / "events.csv"),
                "cohort.kind": "SUBSTANCE",
                "seed": "42",
                **SMALL_NNET,
            },
        )
        assert main(["use-case", "--config", uc_cfg, "--out", str(out), "--model-dir", str(base_dir)]) == 0
        rows = read_report(out / "report.json")["reports"]
        assert [r["method"] for r in rows] == ["MODEL", "BENCH1", "BENCH2"]
        assert all(r["cohort"] == "SUBSTANCE" for r in rows)

    def test_use_case_imports_numpy_ma_only_if_numpy_did(self, boosted_claims, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "uc.cfg",
            {
                "data.persons": str(boosted_claims / "persons.csv"),
                "data.events": str(boosted_claims / "events.csv"),
                "cohort.kind": "SUBSTANCE",
                "seed": "42",
                **SMALL_NNET,
            },
        )
        assert_no_numpy_ma_import(
            ["use-case", "--config", cfg, "--out", str(tmp_path / "out"), "--model-dir", str(workspace["train"])]
        )

    def test_use_case_layer_mismatch_exits_2(self, boosted_claims, workspace, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "uc.cfg",
            {
                "data.persons": str(boosted_claims / "persons.csv"),
                "data.events": str(boosted_claims / "events.csv"),
                "cohort.kind": "SUBSTANCE",
                "seed": "42",
                **SMALL_NNET,
                "nnet.hidden1": "17",
            },
        )
        out = tmp_path / "o"
        assert main(["use-case", "--config", cfg, "--out", str(out), "--model-dir", str(workspace["train"])]) == 2
        err = capsys.readouterr().err
        assert "transfer dimension mismatch" in err and "h1=16" in err and "h1=17" in err
        assert not out.exists()

    def test_use_case_layer_mismatch_fails_before_reading_data(self, workspace, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        cfg = write_config(
            tmp_path / "uc.cfg",
            {"data.persons": missing, "data.events": missing, "cohort.kind": "SUBSTANCE",
             **SMALL_NNET, "nnet.hidden1": "17"},
        )
        assert main(["use-case", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--model-dir", str(workspace["train"])]) == 2
        assert "transfer dimension mismatch" in capsys.readouterr().err

    def test_use_case_rejects_all_age(self, workspace, tmp_path):
        code = main(
            ["use-case", "--config", workspace["train_cfg"], "--out", str(tmp_path / "o"),
             "--model-dir", str(workspace["train"])]
        )
        assert code == 2


def _run_unfingerprinted(workspace, boosted_claims, tmp_path, capsys, mode, codes):
    """Exit code and stderr of `mode` scored with the train model, its header
    fingerprint rewritten to "" and `codes` as its vocabulary."""
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    rewrite_header(
        str(workspace["train"] / "model.bin"), lambda h: h.update(vocab_fingerprint=""), str(bad_dir / "model.bin")
    )
    (bad_dir / "vocabulary.txt").write_text("".join(f"{c}\n" for c in codes))
    cfg = workspace["train_cfg"]
    if mode == "use-case":
        cfg = write_config(
            tmp_path / "uc.cfg",
            {
                "data.persons": str(boosted_claims / "persons.csv"),
                "data.events": str(boosted_claims / "events.csv"),
                "cohort.kind": "SUBSTANCE",
                "seed": "42",
                **SMALL_NNET,
            },
        )
    code = main([mode, "--config", cfg, "--out", str(tmp_path / "o"), "--model-dir", str(bad_dir)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("mode", ["cross-eval", "use-case"])
def test_vocabulary_longer_than_model_exits_3(workspace, boosted_claims, tmp_path, capsys, mode):
    # The size check comes before the header's (here empty) fingerprint.
    codes = (workspace["train"] / "vocabulary.txt").read_text().splitlines()
    extra = [f"dx:ICD10:ZZZ{i}" for i in range(5)]
    code, err = _run_unfingerprinted(workspace, boosted_claims, tmp_path, capsys, mode, extra + codes)
    assert code == 3
    assert f"model has V={len(codes)} but its vocabulary has {len(codes) + 5} codes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["cross-eval", "use-case"])
def test_empty_fingerprint_exits_3(workspace, boosted_claims, tmp_path, capsys, mode):
    # A same-size vocabulary in another order would otherwise be scored silently.
    codes = (workspace["train"] / "vocabulary.txt").read_text().splitlines()
    code, err = _run_unfingerprinted(workspace, boosted_claims, tmp_path, capsys, mode, codes[::-1])
    assert code == 3
    assert "model header has an empty vocab_fingerprint" in err
    assert "Traceback" not in err


def test_invalid_utf8_vocabulary_exits_3(workspace, tmp_path, capsys):
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    shutil.copy(workspace["train"] / "model.bin", model_dir / "model.bin")
    lines = (workspace["train"] / "vocabulary.txt").read_bytes().split(b"\n")
    lines[2] += b"\xff"
    (model_dir / "vocabulary.txt").write_bytes(b"\n".join(lines))
    argv = ["--config", workspace["train_cfg"], "--out", str(tmp_path / "o"), "--model-dir", str(model_dir)]
    assert main(["cross-eval", *argv]) == 3
    err = capsys.readouterr().err
    assert f"{model_dir / 'vocabulary.txt'}:3: invalid UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["cross-eval", "use-case"])
def test_empty_model_dir_exits_2_before_reading(workspace, tmp_path, capsys, monkeypatch, mode):
    # a valid model in the working directory, which an empty --model-dir must not name
    for name in ("model.bin", "vocabulary.txt"):
        shutil.copy(workspace["train"] / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "c.cfg", {"data.persons": "nope.csv", "data.events": "nope2.csv", "cohort.kind": "SUBSTANCE",
                             **SMALL_NNET},
    )
    assert main([mode, "--config", cfg, "--out", "o", "--model-dir="]) == 2
    err = capsys.readouterr().err
    assert "config error: --model-dir must name a directory, got ''" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["c.cfg", "model.bin", "vocabulary.txt"]


# (arguments after the subcommand's --config/--out, extra config, path named)
MISSING_FILES = {
    "phecode map": (["cohort"], {"data.phecode_map": "{tmp}/nope.csv"}, "{tmp}/nope.csv"),
    "cross-eval model": (["cross-eval", "--model-dir", "{tmp}"], {}, "{tmp}/model.bin"),
    "use-case model": (["use-case", "--model-dir", "{tmp}"], {"cohort.kind": "SUBSTANCE"}, "{tmp}/model.bin"),
    "out is a file": (["cohort", "--out", "{tmp}/c.cfg"], {}, "{tmp}/c.cfg"),
}


class TestMissingFiles:
    @pytest.mark.parametrize("case", list(MISSING_FILES))
    def test_exits_3_naming_path(self, workspace, tmp_path, capsys, case):
        (command, *rest), extra, named = MISSING_FILES[case]
        tmp = str(tmp_path)
        data = {"data.persons": str(workspace["data"] / "persons.csv"),
                "data.events": str(workspace["data"] / "events.csv")}
        extra = {k: v.format(tmp=tmp) for k, v in extra.items()}
        cfg = write_config(tmp_path / "c.cfg", {**data, **extra})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), *(a.format(tmp=tmp) for a in rest)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert named.format(tmp=tmp) in err and "Traceback" not in err


class TestDegenerateCohortExit:
    def test_tiny_cohort_single_class_split_exits_4(self, tmp_path):
        persons = [make_person("case1", start="2008-01-01"), make_person("case2", start="2008-01-01")]
        events = []
        for pid, onset in (("case1", "2014-06-01"), ("case2", "2014-07-01")):
            events.append(make_event(pid, "2011-03-01", code="E11.9"))
            events.append(make_event(pid, onset, code="F20.0"))
        from smiscreen.datamodel import write_events, write_persons

        dataset = make_dataset(persons, events)
        write_persons(dataset.persons, str(tmp_path / "p.csv"))
        write_events(dataset, str(tmp_path / "e.csv"))
        cfg = write_config(
            tmp_path / "c.cfg",
            {"data.persons": str(tmp_path / "p.csv"), "data.events": str(tmp_path / "e.csv"), "seed": "1"},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


class TestReportMerge:
    def test_merge_two_reports(self, workspace, tmp_path):
        out = tmp_path / "merged"
        code = main(
            ["report", str(workspace["train"] / "report.json"),
             str(workspace["train"] / "report.json"), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "method,dataset,cohort,auc,sensitivity,specificity,prevalence"
        assert len(lines) == 7  # header + 2 x 3 rows


REPORT_ROW = {
    "method": "MODEL", "dataset": "CLAIMS", "cohort": "ALL_AGE", "auc": 0.7, "threshold": 0.4,
    "sensitivity": 0.6, "specificity": 0.7, "prevalence": 0.1, "n_pos": 3, "n_neg": 27,
}
BAD_REPORTS = [
    ("top-level list", [REPORT_ROW], "expected a JSON object with a 'reports' list"),
    ("reports not a list", {"reports": {"0": REPORT_ROW}}, "expected a JSON object with a 'reports' list"),
    ("row not an object", {"reports": [REPORT_ROW, ["MODEL"]]}, "reports[1] is not a JSON object"),
    (
        "row missing dataset",
        {"reports": [{k: v for k, v in REPORT_ROW.items() if k != "dataset"}]},
        "reports[0] lacks 'dataset'",
    ),
    ("auc not a number", {"reports": [dict(REPORT_ROW, auc="high")]}, "reports[0]: auc has the wrong type"),
    (
        "auc NaN",
        {"reports": [dict(REPORT_ROW, auc=float("nan"))]},
        "reports[0]: auc=nan is not in [0, 1]",
    ),
    (
        "threshold infinite",
        {"reports": [dict(REPORT_ROW, threshold=float("inf"))]},
        "reports[0]: threshold=inf is not finite",
    ),
    (
        "sensitivity negative",
        {"reports": [dict(REPORT_ROW, sensitivity=-5)]},
        "reports[0]: sensitivity=-5 is not in [0, 1]",
    ),
    (
        "specificity huge",
        {"reports": [dict(REPORT_ROW, specificity=1e308)]},
        "reports[0]: specificity=1e+308 is not in [0, 1]",
    ),
    (
        "prevalence above 1",
        {"reports": [dict(REPORT_ROW, prevalence=2)]},
        "reports[0]: prevalence=2 is not in [0, 1]",
    ),
    (
        "n_pos negative",
        {"reports": [REPORT_ROW, dict(REPORT_ROW, n_pos=-3)]},
        "reports[1]: n_pos=-3 is not >= 0",
    ),
    (
        "method needing quotes",
        {"reports": [dict(REPORT_ROW, method='MODEL,"X"\nY')]},
        "reports[0]: method='MODEL,\"X\"\\nY' is not one of BENCH1, BENCH2, MODEL, TWO_STEP",
    ),
    (
        "unknown dataset",
        {"reports": [dict(REPORT_ROW, dataset="FOO")]},
        "reports[0]: dataset='FOO' is not one of CLAIMS, EHR",
    ),
    (
        "unknown cohort",
        {"reports": [REPORT_ROW, dict(REPORT_ROW, cohort="ALL")]},
        "reports[1]: cohort='ALL' is not one of AGE18, ALL_AGE, SUBSTANCE",
    ),
    ("not JSON", "{", "cannot read report"),
    ("no reports key", {"timestamp": "x"}, "expected a JSON object with a 'reports' list"),
]


class TestReportMergeErrors:
    @pytest.mark.parametrize("case,payload,message", BAD_REPORTS, ids=[c for c, _, _ in BAD_REPORTS])
    def test_malformed_report_exits_3_naming_file(self, workspace, tmp_path, capsys, case, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
        good = str(workspace["train"] / "report.json")
        assert main(["report", good, str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and message in err
        assert "Traceback" not in err


class TestNoTestLeakage:
    def test_scrambled_test_labels_change_nothing_upstream(self, pop5k, phemap):
        from dataclasses import replace as dc_replace

        from smiscreen.cohort import build_all_age_cohort
        from smiscreen.evaluation import ScoredSet, youden_threshold
        from smiscreen.features import build_vocabulary, featurize_split
        from smiscreen.nnet import Hyperparams, init_model, score_batch, train
        from smiscreen.pipeline import TEST, TRAIN, VAL, _auc_eval

        dataset, _ = pop5k
        examples, _ = build_all_age_cohort(dataset, phemap, seed=42)
        hp = Hyperparams(embedding_dim=16, hidden1=8, hidden2=4, max_epochs=3, patience=3, seed=42)

        def run(cohort):
            assignment = split_cohort(cohort, SplitFractions(), seed=42)
            splits = assignment.split_examples(cohort)
            vocab = build_vocabulary(splits[TRAIN], dataset)
            feats = {k: featurize_split(splits[k], dataset, vocab) for k in (TRAIN, VAL)}
            labs = {k: splits[k].label.astype(float) for k in (TRAIN, VAL)}
            model0 = init_model(len(vocab), hp, vocab.fingerprint())
            model, _ = train(model0, feats[TRAIN], labs[TRAIN], feats[VAL], labs[VAL], hp, _auc_eval)
            val_scores = score_batch(model, feats[VAL])
            threshold, _, _ = youden_threshold(ScoredSet(val_scores, labs[VAL].astype(np.int64)))
            return assignment, model, threshold

        base_assignment, base_model, base_threshold = run(examples)
        scrambled = Cohort.of([
            dc_replace(ex, label=1 - ex.label)
            if base_assignment.by_group[ex.match_group] == TEST
            else ex
            for ex in examples
        ], dataset)
        _, model2, threshold2 = run(scrambled)
        assert threshold2 == base_threshold
        for name, arr in base_model.arrays().items():
            assert np.array_equal(arr, getattr(model2, name)), name


class TestStageTagging:
    def test_cohort_stage_named_in_error(self, tmp_path, phemap):
        # persons with no SMI cases at all -> cohort stage failure
        persons = [make_person(f"p{i}") for i in range(3)]
        events = [make_event(f"p{i}", "2012-01-01", code="E11.9") for i in range(3)]
        from smiscreen.datamodel import write_events, write_persons

        dataset = make_dataset(persons, events)
        write_persons(dataset.persons, str(tmp_path / "p.csv"))
        write_events(dataset, str(tmp_path / "e.csv"))
        cfg = RunConfig.from_mapping(
            {"data.persons": str(tmp_path / "p.csv"), "data.events": str(tmp_path / "e.csv")}
        )
        from smiscreen.pipeline import run_single_source

        with pytest.raises(DegenerateCohortError, match=r"\[cohort\]"):
            run_single_source(cfg)


class TestConsoleEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg",
            {"synth.n_persons": "50", "synth.source": "CLAIMS", "seed": "3"},
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "smiscreen.cli", "synth", "--config", cfg, "--out", str(tmp_path / "o")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "persons.csv").exists()
