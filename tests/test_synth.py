"""Generator contracts: determinism, temporal consistency, and the
Monte-Carlo prevalence oracle."""

import datetime
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rebuild_from_columns, shared_feature_codes
from mc_oracle import mc_prevalence
from synth_reference import reference_population
from smiscreen import synth
from smiscreen.cohort import build_all_age_cohort
from smiscreen.datamodel import read_table, write_events, write_persons
from smiscreen.errors import ConfigError
from smiscreen.evaluation import benchmark2
from smiscreen.phecode import TAG_AXIS1, TAG_SMI, map_event, phecode_tags
from smiscreen.synth import (
    GENDER_PROBS,
    GroundTruth,
    SynthConfig,
    VocabConfig,
    code_pools,
    draw_gender,
    generate_population,
    ground_truth_auc,
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
    def test_gender_draw_is_generator_choice(self):
        # same value, and the stream left where `choice` leaves it
        for seed in range(1000):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            assert draw_gender(ours) == numpys.choice(3, p=GENDER_PROBS)
            assert ours.random() == numpys.random()

    def test_zero_rate_sentinel_yields_no_onsets(self):
        cfg = SynthConfig.default("CLAIMS", 300, seed=9)
        cfg.risk_weights = {}
        cfg.base_logit = float("-inf")
        _, truth = generate_population(cfg)
        assert all(v is None for v in truth.onset_date.values())

    @pytest.mark.parametrize(
        "source,seed,changes",
        [
            ("CLAIMS", 5, {}),
            ("EHR", 7, {"vocab": VocabConfig(n_rx=1), "event_rate": 0.5, "base_logit": 1.0}),  # empty active sets
            ("CLAIMS", 11, {"base_logit": 3.0, "event_rate": 40.0, "year_range": (2010, 2010)}),  # short spans
            ("EHR", 13, {"vocab": VocabConfig(n_shared_dx=400, n_specific_dx=0, n_rx=300), "base_logit": -1.0}),
        ],
    )
    def test_array_passes_follow_the_per_person_loop(self, monkeypatch, source, seed, changes):
        monkeypatch.setattr(synth, "CHUNK_PERSONS", 7)  # chunk boundaries fall between persons
        cfg = SynthConfig.default(source, 150, seed=seed)
        for key, value in changes.items():
            setattr(cfg, key, value)
        cfg.risk_weights = synth.default_risk_weights(cfg)
        dataset, truth = generate_population(cfg)
        want_dataset, want_truth = reference_population(cfg)
        assert dataset == want_dataset
        for name in ("offsets", "day", "code"):
            assert np.array_equal(getattr(dataset, name), getattr(want_dataset, name)), name
        assert truth.latent_logit == want_truth.latent_logit
        assert truth.onset_date == want_truth.onset_date

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
        for person in dataset.persons:
            onset = truth.onset_date[person.person_id]
            for event in dataset.events_for(person.person_id):
                code = map_event(event, phemap)
                if code is not None and phecode_tags(code) & TAG_SMI:
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
        cfg = SynthConfig.default("CLAIMS", 1, seed=0)
        pools = code_pools(cfg)
        checked = 0
        for system, code in pools.dx_shared:
            phe = phemap.lookup(system, code)
            if phe is not None and phecode_tags(phe) & TAG_AXIS1:
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
    """ground_truth.csv is written, never read by the program: its rows,
    read back as plain fields, give every logit's repr and every onset."""

    @staticmethod
    def read_back(path):
        rows = [row for _, *row in read_table(path, "ground_truth.csv", synth.GROUND_TRUTH_HEADER)]
        logits = {pid: float(logit) for pid, logit, _ in rows}
        onsets = {pid: datetime.date.fromisoformat(onset) if onset else None for pid, _, onset in rows}
        return rows, logits, onsets

    def test_round_trip(self, tmp_path):
        cfg = SynthConfig.default("CLAIMS", 120, seed=5)
        _, truth = generate_population(cfg)
        path = str(tmp_path / "gt.csv")
        write_ground_truth(truth, path)
        rows, logits, onsets = self.read_back(path)
        assert [pid for pid, _, _ in rows] == sorted(truth.latent_logit)
        assert logits == truth.latent_logit
        assert onsets == truth.onset_date
        assert any(onsets.values()) and not all(onsets.values())

    def test_every_repr_loads(self, tmp_path):
        values = [1e-05, -1.5, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 1.2345e20, 0.1 + 0.2, 3.0]
        truth = GroundTruth({f"p{i}": v for i, v in enumerate(values)}, {f"p{i}": None for i in range(len(values))})
        path = str(tmp_path / "gt.csv")
        write_ground_truth(truth, path)
        rows, logits, _ = self.read_back(path)
        assert {pid: logit for pid, logit, _ in rows} == {f"p{i}": repr(v) for i, v in enumerate(values)}
        assert [repr(logits[f"p{i}"]) for i in range(len(values))] == [repr(v) for v in values]
