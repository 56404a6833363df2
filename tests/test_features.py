"""Vocabulary construction and window-bounded featurization."""

import pathlib

import numpy as np
import pytest

from conftest import d, events_in_window, make_dataset, make_event, make_person, shared_feature_codes
from smiscreen.cohort import ALL_AGE, Cohort, CohortExample, ObservationWindow, build_all_age_cohort
from smiscreen.errors import DataError
from smiscreen.features import (
    FeatureMatrix,
    Vocabulary,
    build_vocabulary,
    featurize,
    featurize_split,
    intersect_vocabularies,
    load_vocabulary,
    namespaced_code,
    write_vocabulary,
)
from smiscreen.synth import SynthConfig, code_pools, generate_population


def example(pid, start="2012-01-01", end="2012-12-31", label=0):
    return CohortExample(pid, label, ObservationWindow(d(start), d(end)), pid, ALL_AGE, None)


def row(x, i):
    """Row i of a FeatureMatrix as (indices, demographics) lists."""
    return x.indices[x.indptr[i] : x.indptr[i + 1]].tolist(), x.demographics[i].tolist()


@pytest.fixture
def dataset():
    persons = [make_person("p1", birth_year=1990), make_person("p2", gender="M")]
    events = [
        make_event("p1", "2012-02-01", code="A10"),
        make_event("p1", "2012-03-01", code="B20"),
        make_event("p1", "2013-02-01", code="Late9"),  # outside p1's window
        make_event("p2", "2012-04-01", code="B20"),
        make_event("p2", "2012-05-01", code="C30"),
        make_event("p2", "2012-06-01", kind="RX", system="NDC", code="111-22"),
    ]
    return make_dataset(persons, events)


class TestBuildVocabulary:
    def test_union_sorted(self, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1"), example("p2")], dataset), dataset)
        assert vocab.entries == (
            "dx:ICD10:A10",
            "dx:ICD10:B20",
            "dx:ICD10:C30",
            "rx:NDC:111-22",
        )

    def test_post_window_code_excluded(self, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1")], dataset), dataset)
        assert "dx:ICD10:Late9" not in vocab.entries

    def test_rebuild_identical(self, dataset):
        exs = Cohort.of([example("p1"), example("p2")], dataset)
        assert build_vocabulary(exs, dataset).entries == build_vocabulary(exs, dataset).entries

    def test_empty_training_set_rejected(self, dataset):
        with pytest.raises(DataError):
            build_vocabulary(Cohort.of([], dataset), dataset)


class TestIntersect:
    def test_basic(self):
        a = Vocabulary(("X", "Y"))
        b = Vocabulary(("Y", "Z"))
        assert intersect_vocabularies(a, b).entries == ("Y",)

    def test_idempotent(self):
        a = Vocabulary(("P", "Q", "R"))
        out = intersect_vocabularies(a, a)
        assert out.entries == a.entries

    def test_empty_intersection_rejected(self):
        with pytest.raises(DataError, match="empty"):
            intersect_vocabularies(Vocabulary(("X",)), Vocabulary(("Y",)))

    def test_synthetic_pair_intersection_matches_config(self):
        # both sources realize every shared pool code at this scale, so the
        # vocabulary intersection over whole records is exactly the
        # configured shared universe (features plus the SMI label codes)
        vocabs = {}
        for source, seed in (("CLAIMS", 5), ("EHR", 6)):
            cfg = SynthConfig.default(source, 2500, seed=seed)
            ds, _ = generate_population(cfg)
            everyone = Cohort.of([
                example(p.person_id, p.enroll_start.isoformat(), p.enroll_end.isoformat())
                for p in ds.persons
            ], ds)
            vocabs[source] = build_vocabulary(everyone, ds)
        shared = intersect_vocabularies(vocabs["CLAIMS"], vocabs["EHR"])
        probe = SynthConfig.default("CLAIMS", 1, seed=0)
        expected = shared_feature_codes(probe)
        expected |= {f"dx:{system}:{code}" for system, code in code_pools(probe).smi}
        assert set(shared.entries) == expected


class TestFeaturize:
    def test_empty_window_keeps_demographics(self, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1")], dataset), dataset)
        out = featurize(example("p1", "2014-01-01", "2014-12-31"), dataset, vocab)
        assert row(out, 0) == ([], [(2014 - 1990) / 100, 1.0, 0.0, 0.0])

    def test_age_norm_from_window_end(self, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1")], dataset), dataset)
        out = featurize(example("p1"), dataset, vocab)
        assert out.demographics[0, 0] == pytest.approx(0.22)  # born 1990, window ends 2012

    def test_indices_sorted_unique_in_vocab(self, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1"), example("p2")], dataset), dataset)
        out = featurize(example("p2"), dataset, vocab)
        names = [vocab.entries[i] for i in out.indices]
        assert names == ["dx:ICD10:B20", "dx:ICD10:C30", "rx:NDC:111-22"]

    def test_duplicates_collapse(self):
        persons = [make_person("p1")]
        events = [make_event("p1", f"2012-0{k}-01", code="A10") for k in range(1, 6)]
        ds = make_dataset(persons, events)
        vocab = build_vocabulary(Cohort.of([example("p1")], ds), ds)
        once = make_dataset(persons, events[:1])
        assert featurize(example("p1"), ds, vocab) == featurize(example("p1"), once, vocab)

    def test_out_of_vocabulary_skipped(self, dataset):
        vocab = Vocabulary(("dx:ICD10:B20",))
        out = featurize(example("p1"), dataset, vocab)
        assert out.indices.tolist() == [0]

    def test_unknown_person_rejected(self, dataset):
        vocab = Vocabulary(("dx:ICD10:B20",))
        with pytest.raises(DataError, match="ghost"):
            featurize(example("ghost"), dataset, vocab)

    def test_matches_per_event_reference(self, pop5k, phemap):
        dataset, _ = pop5k
        examples, _ = build_all_age_cohort(dataset, phemap, seed=42)
        train = examples[::2]

        def window_codes(ex):
            events = events_in_window(dataset, ex.person_id, ex.window.start, ex.window.end)
            return {namespaced_code(e) for e in events}

        vocab = build_vocabulary(train, dataset)
        assert vocab.entries == tuple(sorted(set().union(*map(window_codes, train))))
        index = vocab.index
        for ex in examples[:800]:
            expected = sorted(index[c] for c in window_codes(ex) if c in index)
            assert featurize(ex, dataset, vocab).indices.tolist() == expected

    @pytest.mark.parametrize("keep", [1, 2], ids=["train vocabulary", "every other code"])
    def test_split_matches_per_event_reference(self, pop5k, pop5k_splits, keep):
        dataset, _ = pop5k
        vocab = Vocabulary(build_vocabulary(pop5k_splits["TRAIN"], dataset).entries[::keep])
        for split in pop5k_splits.values():
            got = featurize_split(split, dataset, vocab)
            assert len(got) == len(split) and got.indptr.dtype == got.indices.dtype == np.int64
            for i, ex in enumerate(split):
                person = dataset.persons_by_id[ex.person_id]
                codes = {
                    namespaced_code(e)
                    for e in dataset.events_for(ex.person_id)
                    if ex.window.start <= e.date <= ex.window.end
                }
                expected = sorted(vocab.index[c] for c in codes if c in vocab.index)
                demographics = [(ex.window.end.year - person.birth_year) / 100.0, 0.0, 0.0, 0.0]
                demographics["FMU".index(person.gender) + 1] = 1.0
                assert row(got, i) == (expected, demographics)
            assert row(got, len(split) - 2)[0] == []  # the window before enrollment

    def test_split_equals_stacked_examples(self, pop5k, pop5k_splits):
        dataset, _ = pop5k
        vocab = build_vocabulary(pop5k_splits["TRAIN"], dataset)
        for split in pop5k_splits.values():
            per_example = [featurize(ex, dataset, vocab) for ex in split]
            assert featurize_split(split, dataset, vocab) == FeatureMatrix.stack(per_example)

    def test_rows_match_per_row_slices(self, pop5k, pop5k_splits):
        dataset, _ = pop5k
        x = featurize_split(pop5k_splits["TEST"], dataset, build_vocabulary(pop5k_splits["TRAIN"], dataset))
        empty = np.flatnonzero(np.diff(x.indptr) == 0)
        rng = np.random.default_rng(11)
        for size in (0, 1, 7, 300):
            sel = np.concatenate([rng.integers(0, len(x), size), empty[:1], empty[:1]])
            assert np.unique(sel).size < sel.size
            got = x.rows(sel)
            assert len(got) == sel.size and got.indptr[0] == 0
            assert [row(got, j) for j in range(sel.size)] == [row(x, i) for i in sel]

    def test_post_window_mutation_leaves_features_identical(self, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1")], dataset), dataset)
        ex = example("p1")
        base = featurize(ex, dataset, vocab)
        pruned = dataset.replace_person_events(
            "p1", [e for e in dataset.events_for("p1") if e.date <= ex.window.end]
        )
        assert featurize(ex, pruned, vocab) == base

    def test_refeaturize_under_intersection_is_subset(self, dataset):
        full = build_vocabulary(Cohort.of([example("p1"), example("p2")], dataset), dataset)
        sub = intersect_vocabularies(full, Vocabulary(("dx:ICD10:B20", "rx:NDC:111-22")))
        ex = example("p2")
        wide = featurize(ex, dataset, full)
        narrow = featurize(ex, dataset, sub)
        wide_names = {full.entries[i] for i in wide.indices}
        narrow_names = {sub.entries[i] for i in narrow.indices}
        assert narrow_names <= wide_names


class TestVocabularyFile:
    def test_round_trip(self, tmp_path, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1"), example("p2")], dataset), dataset)
        path = str(tmp_path / "vocabulary.txt")
        write_vocabulary(vocab, path)
        again = load_vocabulary(path)
        assert again.entries == vocab.entries
        assert again.fingerprint() == vocab.fingerprint()

    def test_line_number_is_index(self, tmp_path, dataset):
        vocab = build_vocabulary(Cohort.of([example("p1")], dataset), dataset)
        path = str(tmp_path / "vocabulary.txt")
        write_vocabulary(vocab, path)
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        assert lines == list(vocab.entries)

    def test_namespacing(self):
        dx = make_event("p", "2012-01-01", system="ICD9", code="250.00")
        rx = make_event("p", "2012-01-01", kind="RX", system="NDC", code="1-2")
        assert namespaced_code(dx) == "dx:ICD9:250.00"
        assert namespaced_code(rx) == "rx:NDC:1-2"
