"""Cohort construction: windows, gaps, matching, and the use-case cohorts."""

import datetime

import numpy as np
import pytest

from conftest import d, make_dataset, make_event, make_person
from smiscreen.cohort import (
    AGE18,
    SUBSTANCE,
    CaseWindow,
    ObservationWindow,
    build_age18_cohort,
    build_all_age_cohort,
    build_case_windows,
    build_cohort,
    build_substance_cohort,
    find_cases,
    gap_stream,
    match_controls,
    prevalence,
    sample_gap,
    use_case_person_ids,
    write_cohort,
)
from smiscreen.dates import add_months, window_start_for_end
from smiscreen.errors import DegenerateCohortError

SMI_CODE = "F20.0"  # maps to 295.1


class TestDates:
    def test_window_start_for_end(self):
        assert window_start_for_end(d("2014-12-17")) == d("2013-12-18")

    def test_window_length_is_365_or_366(self):
        for end in ("2014-12-17", "2016-02-29", "2016-03-15", "2015-02-28"):
            start = window_start_for_end(d(end))
            assert (d(end) - start).days + 1 in (365, 366)

    def test_add_months_clamps(self):
        assert add_months(d("2016-02-29"), -12) == d("2015-02-28")
        assert add_months(d("2015-01-31"), 1) == d("2015-02-28")


class TestFindCases:
    def test_first_onset_wins(self, phemap):
        persons = [make_person("p1")]
        events = [
            make_event("p1", "2014-02-01", code=SMI_CODE),
            make_event("p1", "2013-05-01", code=SMI_CODE),
        ]
        ds = make_dataset(persons, events)
        assert find_cases(ds, phemap) == [("p1", d("2013-05-01"))]

    def test_non_smi_not_listed(self, phemap):
        ds = make_dataset([make_person("p1")], [make_event("p1", "2013-05-01", code="E11.9")])
        assert find_cases(ds, phemap) == []

    def test_tag_scans_match_per_event_mapping(self, pop5k, phemap):
        from smiscreen.phecode import map_event, smi_set, substance_set

        dataset, _ = pop5k
        smi, substances = smi_set(), substance_set()
        first_smi, first_substance = {}, {}
        for p in dataset.persons:
            for e in dataset.events_for(p.person_id):
                code = map_event(e, phemap)
                if code is not None and smi.contains(code):
                    first_smi.setdefault(p.person_id, e.date)
                if code is not None and substances.contains(code):
                    first_substance.setdefault(p.person_id, e.date)
        assert find_cases(dataset, phemap) == sorted(first_smi.items())
        cohort = build_substance_cohort(dataset, phemap)
        assert cohort
        for ex in cohort:
            assert ex.index_date == first_substance[ex.person_id]

    def test_recovers_ground_truth_onsets(self, pop5k, phemap):
        dataset, truth = pop5k
        got = dict(find_cases(dataset, phemap))
        expected = {pid: onset for pid, onset in truth.onset_date.items() if onset is not None}
        assert got == expected


class TestSampleGap:
    def test_bounds_attained_and_mean(self):
        gen = gap_stream(123, "bounds")
        draws = np.array([sample_gap(gen) for _ in range(100_000)])
        assert draws.min() == 14 and draws.max() == 365
        se = np.sqrt(((365 - 14 + 1) ** 2 - 1) / 12 / draws.size)
        assert abs(draws.mean() - 189.5) < 3 * se

    def test_golden_value_stable(self):
        assert sample_gap(gap_stream(7, "p1")) == 322
        assert sample_gap(gap_stream(7, "p1")) == 322


class TestCaseWindows:
    def test_window_arithmetic_and_gap_linkage(self, phemap):
        persons = [make_person("p1", start="2008-01-01", end="2015-12-31")]
        events = [make_event("p1", "2014-12-31", code=SMI_CODE)]
        ds = make_dataset(persons, events)
        windows, dropped = build_case_windows(find_cases(ds, phemap), ds, seed=3)
        assert dropped == 0 and len(windows) == 1
        w = windows[0].window
        assert 14 <= w.gap_days <= 365
        assert w.end + datetime.timedelta(days=w.gap_days) == d("2014-12-31")
        assert w.start == window_start_for_end(w.end)
        assert w.length_days in (365, 366)

    def test_window_before_enrollment_dropped(self, phemap):
        persons = [make_person("p1", start="2010-01-01", end="2015-12-31")]
        events = [make_event("p1", "2010-06-01", code=SMI_CODE)]
        ds = make_dataset(persons, events)
        windows, dropped = build_case_windows(find_cases(ds, phemap), ds, seed=3)
        assert windows == [] and dropped == 1

    def test_full_scan_on_synthetic(self, pop5k, phemap):
        dataset, _ = pop5k
        cases = find_cases(dataset, phemap)
        windows, dropped = build_case_windows(cases, dataset, seed=42)
        assert len(windows) + dropped == len(cases)
        by_pid = dict(cases)
        for cw in windows:
            w = cw.window
            assert w.end + datetime.timedelta(days=w.gap_days) == by_pid[cw.person_id]
            person = dataset.persons_by_id[cw.person_id]
            assert person.enroll_start <= w.start and w.end <= person.enroll_end


def control_pool_dataset():
    """A case (1990, F) plus candidates with controllable pre-window counts."""
    window = ObservationWindow(d("2012-01-01"), d("2012-12-31"))
    persons = [make_person("case", birth_year=1990, start="2008-01-01")]
    events = [make_event("case", f"2010-0{i}-01", code=f"X{i}") for i in range(1, 6)]  # 5 pre-window
    events.append(make_event("case", "2012-03-01", code="W1"))
    events.append(make_event("case", "2014-06-01", code=SMI_CODE))

    def add_candidate(pid, n_pre, birth_year=1990, gender="F", start="2008-01-01", end="2015-12-31", smi=False):
        persons.append(make_person(pid, birth_year=birth_year, gender=gender, start=start, end=end))
        for i in range(n_pre):
            events.append(make_event(pid, f"201{i % 2}-0{1 + i % 9}-15", code=f"Y{i}"))
        events.append(make_event(pid, "2012-06-15", code="W2"))  # in-window diagnosis
        if smi:
            events.append(make_event(pid, "2013-01-15", code=SMI_CODE))

    return persons, events, window, add_candidate


class TestMatchControls:
    def test_nearest_count_ranking(self, phemap):
        persons, events, window, add = control_pool_dataset()
        add("c4", 4)
        add("c5", 5)
        add("c9", 9)
        ds = make_dataset(persons, events)
        case_windows = [CaseWindow("case", d("2014-06-01"), window)]
        out = match_controls(case_windows, ds, phemap, k=2, seed=0)
        controls = [ex.person_id for ex in out if ex.label == 0]
        assert set(controls) == {"c5", "c4"}

    def test_up_to_k_takes_all_of_small_pool(self, phemap):
        persons, events, window, add = control_pool_dataset()
        for pid, n in (("a", 1), ("b", 2), ("c", 3)):
            add(pid, n)
        ds = make_dataset(persons, events)
        case_windows = [CaseWindow("case", d("2014-06-01"), window)]
        out = match_controls(case_windows, ds, phemap, k=10, seed=0)
        assert len(out) == 4  # case + all 3 controls
        assert sorted(ex.label for ex in out) == [0, 0, 0, 1]

    def test_eligibility_filters(self, phemap):
        persons, events, window, add = control_pool_dataset()
        add("ok", 5)
        add("smi", 5, smi=True)  # has an SMI code ever
        add("wrongyear", 5, birth_year=1985)
        add("wronggender", 5, gender="M")
        add("shortenroll", 5, end="2012-06-30")  # does not cover the window
        persons.append(make_person("nodx", birth_year=1990, start="2008-01-01"))  # no in-window dx
        ds = make_dataset(persons, events)
        case_windows = [CaseWindow("case", d("2014-06-01"), window)]
        out = match_controls(case_windows, ds, phemap, k=10, seed=0)
        controls = [ex.person_id for ex in out if ex.label == 0]
        assert controls == ["ok"]

    def test_controls_inherit_window_and_not_reused(self, phemap):
        persons, events, window, add = control_pool_dataset()
        persons.append(make_person("case2", birth_year=1990, start="2008-01-01"))
        events.append(make_event("case2", "2014-07-01", code=SMI_CODE))
        events.append(make_event("case2", "2010-01-01", code="Q1"))
        add("only", 5)
        ds = make_dataset(persons, events)
        case_windows = [
            CaseWindow("case", d("2014-06-01"), window),
            CaseWindow("case2", d("2014-07-01"), ObservationWindow(window.start, window.end, gap_days=30)),
        ]
        out = match_controls(case_windows, ds, phemap, k=10, seed=0)
        controls = [ex for ex in out if ex.label == 0]
        assert len(controls) == 1  # "only" serves a single match group
        assert controls[0].window.start == window.start
        assert controls[0].window.end == window.end
        assert controls[0].window.gap_days is None
        cases = [ex for ex in out if ex.label == 1]
        assert {ex.match_group for ex in cases} == {"case", "case2"}


class TestAge18Cohort:
    @staticmethod
    def person_with_history(pid, birth_year=1995, smi_date=None, pre_event=True, start=None, end=None):
        # Jan 1 birthday convention: 18th birthday is Jan 1 of birth_year+18
        persons = [make_person(pid, birth_year=birth_year, start=start or f"{birth_year + 16}-06-01",
                               end=end or f"{birth_year + 19}-06-30")]
        events = []
        if pre_event:
            events.append(make_event(pid, f"{birth_year + 17}-05-01", code="E11.9"))
        if smi_date:
            events.append(make_event(pid, smi_date, code=SMI_CODE))
        return persons, events

    def test_smi_in_test_year_labels_positive(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2013-07-01")
        out = build_age18_cohort(make_dataset(persons, events), phemap)
        assert len(out) == 1
        ex = out[0]
        assert ex.label == 1 and ex.cohort_kind == AGE18
        assert ex.index_date == d("2013-01-01")
        assert ex.window.start == d("2012-01-01") and ex.window.end == d("2012-12-31")

    def test_prior_smi_excluded(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2012-07-01")  # age 17
        assert build_age18_cohort(make_dataset(persons, events), phemap) == []

    def test_smi_after_test_year_is_negative(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2014-03-01", end="2014-06-30")
        out = build_age18_cohort(make_dataset(persons, events), phemap)
        assert len(out) == 1 and out[0].label == 0

    def test_needs_pre_window_event(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2013-07-01", pre_event=False)
        assert build_age18_cohort(make_dataset(persons, events), phemap) == []

    def test_needs_enrollment_coverage(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2013-07-01", start="2012-06-01")
        assert build_age18_cohort(make_dataset(persons, events), phemap) == []


class TestSubstanceCohort:
    @staticmethod
    def build(pid="p1", sub_date="2012-05-05", smi_date=None, start="2010-01-01", end="2015-12-31"):
        persons = [make_person(pid, start=start, end=end)]
        events = [make_event(pid, sub_date, code="F10.10")]  # maps to 317
        if smi_date:
            events.append(make_event(pid, smi_date, code=SMI_CODE))
        return make_dataset(persons, events)

    def test_smi_within_following_year_is_positive(self, phemap):
        out = build_substance_cohort(self.build(smi_date="2012-11-01"), phemap)
        assert len(out) == 1
        ex = out[0]
        assert ex.label == 1 and ex.cohort_kind == SUBSTANCE
        assert ex.index_date == d("2012-05-05")
        assert ex.window.end == d("2012-05-05")  # index day included
        assert ex.window.start == d("2011-05-06")

    def test_insufficient_followup_excluded(self, phemap):
        out = build_substance_cohort(self.build(end="2012-08-31"), phemap)
        assert out == []

    def test_smi_before_index_excluded(self, phemap):
        out = build_substance_cohort(self.build(smi_date="2012-01-01"), phemap)
        assert out == []

    def test_smi_on_index_date_excluded(self, phemap):
        ds = self.build(smi_date="2012-05-05")
        assert build_substance_cohort(ds, phemap) == []

    def test_window_covers_index_event_for_features(self, phemap):
        from smiscreen.features import build_vocabulary, featurize

        ds = self.build(smi_date="2012-11-01")
        out = build_substance_cohort(ds, phemap)
        vocab = build_vocabulary(out, ds)
        feats = featurize(out[0], ds, vocab)
        assert "dx:ICD10:F10.10" in [vocab.entries[i] for i in feats.code_indices]


class TestCohortInvariantsOnSynthetic:
    def test_all_age_invariants(self, pop5k, phemap):
        dataset, _ = pop5k
        examples, stats = build_all_age_cohort(dataset, phemap, seed=42)
        cases = {ex.match_group: ex for ex in examples if ex.label == 1}
        smi_persons = {pid for pid, _ in find_cases(dataset, phemap)}
        seen_controls = set()
        for ex in examples:
            case = cases[ex.match_group]
            if ex.label == 1:
                assert 14 <= ex.window.gap_days <= 365
            else:
                assert ex.window.start == case.window.start
                assert ex.window.end == case.window.end
                p_ctl = dataset.persons_by_id[ex.person_id]
                p_case = dataset.persons_by_id[case.person_id]
                assert p_ctl.birth_year == p_case.birth_year
                assert p_ctl.gender == p_case.gender
                assert ex.person_id not in smi_persons
                assert ex.person_id not in seen_controls
                seen_controls.add(ex.person_id)
        assert prevalence(examples) >= 1 / 11
        assert not seen_controls & set(cases)

    def test_use_case_cohorts_disjoint_from_all_age(self, pop5k, phemap):
        dataset, _ = pop5k
        examples, _ = build_all_age_cohort(dataset, phemap, seed=42)
        use_case = use_case_person_ids(dataset, phemap)
        assert not use_case & {ex.person_id for ex in examples}

    def test_age18_prevalence_below_matched_prevalence(self, pop5k, phemap):
        dataset, _ = pop5k
        all_age, _ = build_all_age_cohort(dataset, phemap, seed=42)
        age18 = build_age18_cohort(dataset, phemap)
        assert prevalence(age18) < prevalence(all_age)


class TestBuildCohortDispatch:
    def test_unknown_kind(self, pop5k, phemap):
        with pytest.raises(ValueError):
            build_cohort(pop5k[0], phemap, "WEEKLY", seed=1)

    def test_empty_cohort_raises(self, phemap):
        ds = make_dataset([make_person("p1")], [make_event("p1", "2012-01-01", code="E11.9")])
        with pytest.raises(DegenerateCohortError):
            build_cohort(ds, phemap, SUBSTANCE, seed=1)

    def test_write_cohort_layout(self, tmp_path, pop5k, phemap):
        examples, _ = build_all_age_cohort(pop5k[0], phemap, seed=42)
        path = tmp_path / "cohort.csv"
        write_cohort(examples[:5], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "person_id,label,cohort_kind,match_group,window_start,window_end,gap_days,index_date"
        assert len(lines) == 6
