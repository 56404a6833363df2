"""Generator contracts: determinism, temporal consistency, and the
Monte-Carlo prevalence oracle."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rebuild_from_columns
from mc_oracle import mc_prevalence
from smiscreen.cohort import build_all_age_cohort
from smiscreen.datamodel import write_events, write_persons
from smiscreen.errors import ConfigError, DataError
from smiscreen.evaluation import benchmark2
from smiscreen.phecode import map_event, smi_set
from smiscreen.synth import (
    GroundTruth,
    SynthConfig,
    VocabConfig,
    code_pools,
    generate_population,
    ground_truth_auc,
    load_ground_truth,
    shared_feature_codes,
    write_ground_truth,
)

GOLDEN_GT_AUC = 0.937622815129  # CLAIMS n=5000 seed=42, recorded at first run


class TestConfigValidation:
    def test_zero_persons_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_persons=0, source="CLAIMS").validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("source", "REGISTRY"),
            ("event_rate", 0.0),
            ("smi_annual_rate_cap", 0.0),
            ("smi_annual_rate_cap", 1.0),
            ("year_range", (2019, 2008)),
            ("event_rate", 1000.5),
        ],
    )
    def test_bad_fields_rejected(self, field, value):
        cfg = SynthConfig(n_persons=10, source="CLAIMS")
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_vocab_too_small_for_mapped_codes(self):
        cfg = SynthConfig(n_persons=10, source="CLAIMS", vocab=VocabConfig(n_shared_dx=10))
        with pytest.raises(ConfigError, match="n_shared_dx"):
            cfg.validate()

    def test_error_raised_before_generation(self):
        with pytest.raises(ConfigError):
            generate_population(SynthConfig(n_persons=0, source="CLAIMS"))


class TestGeneration:
    def test_zero_rate_sentinel_yields_no_onsets(self):
        cfg = SynthConfig.default("CLAIMS", 300, seed=9)
        cfg.risk_weights = {}
        cfg.base_logit = float("-inf")
        _, truth = generate_population(cfg)
        assert all(v is None for v in truth.onset_date.values())

    def test_dataset_passes_validation(self, pop5k):
        dataset = pop5k[0]
        rebuild_from_columns(dataset)  # raises on any violation

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = SynthConfig.default("EHR", 800, seed=31)
        outputs = []
        for _ in range(2):
            dataset, truth = generate_population(cfg)
            p, e, g = (tmp_path / n for n in ("p.csv", "e.csv", "g.csv"))
            write_persons(dataset.persons, str(p))
            write_events(dataset, str(e))
            write_ground_truth(truth, str(g))
            outputs.append((p.read_bytes(), e.read_bytes(), g.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_cli_outputs_independent_of_string_hash_seed(self, tmp_path):
        """Set iteration order follows PYTHONHASHSEED; no output may."""
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("synth.n_persons=400\nsynth.source=CLAIMS\nseed=3\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            out = tmp_path / f"hash{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "smiscreen.cli", "synth", "--config", str(cfg), "--out", str(out)],
                env=env,
                check=True,
                capture_output=True,
            )
            outputs.append([(out / n).read_bytes() for n in ("persons.csv", "events.csv", "ground_truth.csv")])
        assert outputs[0] == outputs[1]

    def test_no_smi_code_before_onset(self, pop5k, phemap):
        dataset, truth = pop5k
        smi = smi_set()
        for person in dataset.persons:
            onset = truth.onset_date[person.person_id]
            for event in dataset.events_for(person.person_id):
                code = map_event(event, phemap)
                if code is not None and smi.contains(code):
                    assert onset is not None and event.date >= onset

    def test_onset_within_enrollment(self, pop5k):
        dataset, truth = pop5k
        for person in dataset.persons:
            onset = truth.onset_date[person.person_id]
            if onset is not None:
                assert person.enroll_start <= onset <= person.enroll_end

    def test_sources_share_exactly_the_configured_pools(self):
        claims = code_pools(SynthConfig(n_persons=1, source="CLAIMS"))
        ehr = code_pools(SynthConfig(n_persons=1, source="EHR"))
        assert set(claims.dx_shared) == set(ehr.dx_shared)
        assert set(claims.rx) == set(ehr.rx)
        assert set(claims.smi) == set(ehr.smi)
        assert not set(claims.dx_specific) & set(ehr.dx_specific)
        overlap = (set(claims.dx_all) & set(ehr.dx_all)) | (set(claims.rx) & set(ehr.rx))
        cfg = SynthConfig(n_persons=1, source="CLAIMS")
        assert len(overlap) == cfg.vocab.n_shared_dx + cfg.vocab.n_rx

    def test_shared_feature_codes_size(self):
        cfg = SynthConfig(n_persons=1, source="CLAIMS")
        assert len(shared_feature_codes(cfg)) == cfg.vocab.n_shared_dx + cfg.vocab.n_rx


class TestGroundTruthAuc:
    def test_uninformative_logits_give_half(self):
        gt = GroundTruth({f"p{i}": 0.0 for i in range(10)}, {})
        labels = {f"p{i}": i % 2 for i in range(10)}
        assert ground_truth_auc(gt, labels) == 0.5

    def test_perfectly_ordered_logits_give_one(self):
        gt = GroundTruth({f"p{i}": float(i) for i in range(10)}, {})
        labels = {f"p{i}": int(i >= 5) for i in range(10)}
        assert ground_truth_auc(gt, labels) == 1.0

    def test_single_class_rejected(self):
        gt = GroundTruth({"a": 1.0, "b": 2.0}, {})
        with pytest.raises(Exception):
            ground_truth_auc(gt, {"a": 1, "b": 1})

    def test_golden_value_stable(self, pop5k):
        _, truth = pop5k
        assert ground_truth_auc(truth, truth.labels()) == pytest.approx(GOLDEN_GT_AUC, abs=1e-9)


class TestPrevalenceOracle:
    def test_generator_matches_monte_carlo_within_one_point(self, pop50k):
        dataset, truth, _ = pop50k
        realized = sum(1 for v in truth.onset_date.values() if v is not None) / len(dataset.persons)
        cfg = SynthConfig.default("CLAIMS", 50_000, seed=42)
        expected = mc_prevalence(cfg, n_draws=1_000_000, seed=777)
        assert abs(realized - expected) < 0.01, (realized, expected)


class TestPlantedSignal:
    def test_axis1_codes_carry_positive_weight(self, phemap):
        from smiscreen.phecode import axis1_set

        cfg = SynthConfig.default("CLAIMS", 1, seed=0)
        axis1 = axis1_set()
        pools = code_pools(cfg)
        checked = 0
        for system, code in pools.dx_shared:
            phe = phemap.lookup(system, code)
            if phe is not None and axis1.contains(phe):
                assert cfg.risk_weights.get(code, 0.0) > 0.0, code
                checked += 1
        assert checked > 0

    def test_benchmark2_beats_chance(self, pop5k, phemap):
        dataset, _ = pop5k
        examples, _ = build_all_age_cohort(dataset, phemap, seed=42)
        preds = np.array([benchmark2(ex, dataset, phemap) for ex in examples])
        labels = np.array([ex.label for ex in examples])
        sens = preds[labels == 1].mean()
        fpr = preds[labels == 0].mean()
        assert sens > fpr  # informedness strictly positive


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        cfg = SynthConfig.default("CLAIMS", 120, seed=5)
        _, truth = generate_population(cfg)
        path = str(tmp_path / "gt.csv")
        write_ground_truth(truth, path)
        again = load_ground_truth(path)
        assert again.latent_logit == truth.latent_logit
        assert again.onset_date == truth.onset_date

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("who,what\n")
        with pytest.raises(DataError):
            load_ground_truth(str(path))

    @pytest.mark.parametrize(
        "row,message",
        [
            ("p2,0.5,20100101", "unparseable date '20100101'"),
            ("p2,high,2010-01-01", "unparseable latent_logit 'high'"),
            ("p2,0.5,2010-01-01,x", "expected 3 columns, got 4"),
            ("p1,0.5,", "duplicate person_id 'p1'"),
            ("p2,nan,", "non-finite latent_logit 'nan'"),
            ("p2,-inf,", "non-finite latent_logit '-inf'"),
        ],
        ids=["basic-format onset", "non-float logit", "4 columns", "duplicate id", "nan", "-inf"],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "gt.csv"
        path.write_text(f"person_id,latent_logit,onset_date\np1,-1.5,\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: {message}")):
            load_ground_truth(str(path))
