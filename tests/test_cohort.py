"""Cohort construction: windows, gaps, matching, and the use-case cohorts."""

import datetime

import numpy as np
import pytest

from conftest import d, make_dataset, make_event, make_person
from smiscreen.cli import main
from smiscreen.cohort import (
    AGE18,
    ALL_AGE,
    COHORT_KINDS,
    SUBSTANCE,
    Cohort,
    CohortBuildStats,
    CohortExample,
    ObservationWindow,
    build_age18_cohort,
    build_all_age_cohort,
    build_case_windows,
    build_cohort,
    build_substance_cohort,
    find_cases,
    first_days,
    gap_stream,
    match_controls,
    prevalence,
    sample_gap,
    use_case_person_ids,
    write_cohort,
)
from smiscreen.datamodel import Dataset, Persons, write_events, write_persons
from smiscreen.dates import add_months, window_start_for_end
from smiscreen.errors import DegenerateCohortError
from smiscreen.phecode import TAG_SMI, TAG_SUBSTANCE

SMI_CODE = "F20.0"  # maps to 295.1


def age18(ds, phemap):
    return build_age18_cohort(ds, first_days(ds, phemap, TAG_SMI))


def substance(ds, phemap):
    return build_substance_cohort(ds, phemap, first_days(ds, phemap, TAG_SMI))


def o(text: str) -> int:
    return d(text).toordinal()


class TestDates:
    def test_window_start_for_end(self):
        assert window_start_for_end(o("2014-12-17")) == o("2013-12-18")

    def test_window_length_is_365_or_366(self):
        for end in ("2014-12-17", "2016-02-29", "2016-03-15", "2015-02-28"):
            start = window_start_for_end(o(end))
            assert o(end) - start + 1 in (365, 366)

    def test_add_months_clamps(self):
        assert add_months(o("2016-02-29"), -12) == o("2015-02-28")
        assert add_months(o("2015-01-31"), 1) == o("2015-02-28")


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
        from smiscreen.phecode import TAG_SMI, TAG_SUBSTANCE, map_event, phecode_tags

        dataset, _ = pop5k
        first_smi, first_substance = {}, {}
        for p in dataset.persons:
            for e in dataset.events_for(p.person_id):
                code = map_event(e, phemap)
                tags = 0 if code is None else phecode_tags(code)
                if tags & TAG_SMI:
                    first_smi.setdefault(p.person_id, e.date)
                if tags & TAG_SUBSTANCE:
                    first_substance.setdefault(p.person_id, e.date)
        assert find_cases(dataset, phemap) == sorted(first_smi.items())
        cohort = substance(dataset, phemap)
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
        windows, dropped = build_case_windows(ds, first_days(ds, phemap, TAG_SMI), seed=3)
        assert dropped == 0 and len(windows) == 1
        w = windows[0].window
        assert 14 <= w.gap_days <= 365
        assert w.end + datetime.timedelta(days=w.gap_days) == d("2014-12-31")
        assert w.start.toordinal() == window_start_for_end(w.end.toordinal())
        assert (w.end - w.start).days + 1 in (365, 366)

    def test_window_before_enrollment_dropped(self, phemap):
        persons = [make_person("p1", start="2010-01-01", end="2015-12-31")]
        events = [make_event("p1", "2010-06-01", code=SMI_CODE)]
        ds = make_dataset(persons, events)
        windows, dropped = build_case_windows(ds, first_days(ds, phemap, TAG_SMI), seed=3)
        assert len(windows) == 0 and dropped == 1

    def test_full_scan_on_synthetic(self, pop5k, phemap):
        dataset, _ = pop5k
        cases = find_cases(dataset, phemap)
        windows, dropped = build_case_windows(dataset, first_days(dataset, phemap, TAG_SMI), seed=42)
        assert len(windows) + dropped == len(cases)
        by_pid = dict(cases)
        for cw in windows:
            w = cw.window
            assert cw.index_date == by_pid[cw.person_id] and cw.match_group == cw.person_id
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


def case_cohort(ds, *cases):
    """The cases (person id, onset, window) as a cohort of case windows."""
    return Cohort.of([CohortExample(pid, 1, w, pid, ALL_AGE, d(onset)) for pid, onset, w in cases], ds)


class TestMatchControls:
    def test_nearest_count_ranking(self, phemap):
        persons, events, window, add = control_pool_dataset()
        add("c4", 4)
        add("c5", 5)
        add("c9", 9)
        ds = make_dataset(persons, events)
        case_windows = case_cohort(ds, ("case", "2014-06-01", window))
        out = match_controls(case_windows, ds, first_days(ds, phemap, TAG_SMI), k=2, seed=0)
        controls = [ex.person_id for ex in out if ex.label == 0]
        assert set(controls) == {"c5", "c4"}

    def test_up_to_k_takes_all_of_small_pool(self, phemap):
        persons, events, window, add = control_pool_dataset()
        for pid, n in (("a", 1), ("b", 2), ("c", 3)):
            add(pid, n)
        ds = make_dataset(persons, events)
        case_windows = case_cohort(ds, ("case", "2014-06-01", window))
        out = match_controls(case_windows, ds, first_days(ds, phemap, TAG_SMI), k=10, seed=0)
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
        case_windows = case_cohort(ds, ("case", "2014-06-01", window))
        out = match_controls(case_windows, ds, first_days(ds, phemap, TAG_SMI), k=10, seed=0)
        controls = [ex.person_id for ex in out if ex.label == 0]
        assert controls == ["ok"]

    def test_controls_inherit_window_and_not_reused(self, phemap):
        persons, events, window, add = control_pool_dataset()
        persons.append(make_person("case2", birth_year=1990, start="2008-01-01"))
        events.append(make_event("case2", "2014-07-01", code=SMI_CODE))
        events.append(make_event("case2", "2010-01-01", code="Q1"))
        add("only", 5)
        ds = make_dataset(persons, events)
        case_windows = case_cohort(
            ds,
            ("case", "2014-06-01", window),
            ("case2", "2014-07-01", ObservationWindow(window.start, window.end, gap_days=30)),
        )
        out = match_controls(case_windows, ds, first_days(ds, phemap, TAG_SMI), k=10, seed=0)
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
        out = age18(make_dataset(persons, events), phemap)
        assert len(out) == 1
        ex = out[0]
        assert ex.label == 1 and ex.cohort_kind == AGE18
        assert ex.index_date == d("2013-01-01")
        assert ex.window.start == d("2012-01-01") and ex.window.end == d("2012-12-31")

    def test_prior_smi_excluded(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2012-07-01")  # age 17
        assert len(age18(make_dataset(persons, events), phemap)) == 0

    def test_smi_after_test_year_is_negative(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2014-03-01", end="2014-06-30")
        out = age18(make_dataset(persons, events), phemap)
        assert len(out) == 1 and out[0].label == 0

    def test_needs_pre_window_event(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2013-07-01", pre_event=False)
        assert len(age18(make_dataset(persons, events), phemap)) == 0

    def test_needs_enrollment_coverage(self, phemap):
        persons, events = self.person_with_history("p1", smi_date="2013-07-01", pre_event=False, start="2012-06-01")
        events.append(make_event("p1", "2012-07-01", code="E11.9"))  # enrolled, inside the 2012 window
        assert len(age18(make_dataset(persons, events), phemap)) == 0


class TestSubstanceCohort:
    @staticmethod
    def build(pid="p1", sub_date="2012-05-05", smi_date=None, start="2010-01-01", end="2015-12-31"):
        persons = [make_person(pid, start=start, end=end)]
        events = [make_event(pid, sub_date, code="F10.10")]  # maps to 317
        if smi_date:
            events.append(make_event(pid, smi_date, code=SMI_CODE))
        return make_dataset(persons, events)

    def test_smi_within_following_year_is_positive(self, phemap):
        out = substance(self.build(smi_date="2012-11-01"), phemap)
        assert len(out) == 1
        ex = out[0]
        assert ex.label == 1 and ex.cohort_kind == SUBSTANCE
        assert ex.index_date == d("2012-05-05")
        assert ex.window.end == d("2012-05-05")  # index day included
        assert ex.window.start == d("2011-05-06")

    def test_insufficient_followup_excluded(self, phemap):
        out = substance(self.build(end="2012-08-31"), phemap)
        assert len(out) == 0

    def test_smi_before_index_excluded(self, phemap):
        out = substance(self.build(smi_date="2012-01-01"), phemap)
        assert len(out) == 0

    def test_smi_on_index_date_excluded(self, phemap):
        ds = self.build(smi_date="2012-05-05")
        assert len(substance(ds, phemap)) == 0

    def test_window_covers_index_event_for_features(self, phemap):
        from smiscreen.features import build_vocabulary, featurize

        ds = self.build(smi_date="2012-11-01")
        out = substance(ds, phemap)
        vocab = build_vocabulary(out, ds)
        feats = featurize(out[0], ds, vocab)
        assert "dx:ICD10:F10.10" in [vocab.entries[i] for i in feats.indices]


# A window or follow-up year that the calendar cannot hold: (enrollment, event date, code)
OFF_CALENDAR = {
    "substance-in-9999": ("9990-01-01", "9999-12-31", "9999-06-01", "F11.10"),  # follow-up reaches 10000
    "substance-in-0001": ("0001-01-01", "0005-12-31", "0001-06-01", "F11.10"),  # window starts in year 0
    "smi-onset-in-0001": ("0001-01-01", "0005-12-31", "0001-01-05", SMI_CODE),  # onset - gap before year 1
}


class TestOffCalendarDates:
    """The person is ineligible, or the case window dropped, as for a
    window outside enrollment."""

    @staticmethod
    def dataset(start, end, date, code):
        person = make_person("p1", birth_year=1, start=start, end=end)
        return make_dataset([person], [make_event("p1", date, code=code)])

    @pytest.mark.parametrize("case", sorted(OFF_CALENDAR))
    def test_builders_skip_the_person(self, phemap, case):
        ds = self.dataset(*OFF_CALENDAR[case])
        assert len(substance(ds, phemap)) == 0
        examples, stats = build_all_age_cohort(ds, phemap, seed=1)
        smi = int(case.startswith("smi"))
        assert len(examples) == 0 and stats == CohortBuildStats(smi, 0, smi, 0)

    @pytest.mark.parametrize("kind", [ALL_AGE, SUBSTANCE])
    @pytest.mark.parametrize("case", sorted(OFF_CALENDAR))
    def test_cohort_command_exits_4(self, tmp_path, capsys, case, kind):
        ds = self.dataset(*OFF_CALENDAR[case])
        write_persons(ds.persons, str(tmp_path / "persons.csv"))
        write_events(ds, str(tmp_path / "events.csv"))
        cfg = tmp_path / "c.cfg"
        data = f"data.persons={tmp_path / 'persons.csv'}\ndata.events={tmp_path / 'events.csv'}\n"
        cfg.write_text(data + f"cohort.kind={kind}\n", encoding="utf-8")
        assert main(["cohort", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "zero eligible persons" in err and "Traceback" not in err


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
        use_case = use_case_person_ids(dataset, phemap, first_days(dataset, phemap, TAG_SMI))
        assert use_case.any() and not use_case[examples.row].any()

    def test_each_tag_scanned_once(self, pop5k, phemap, monkeypatch):
        scans = []

        def counted(d, m, bit):
            scans.append(bit)
            return first_days(d, m, bit)

        monkeypatch.setattr("smiscreen.cohort.first_days", counted)
        build_all_age_cohort(pop5k[0], phemap, seed=42)
        assert sorted(scans) == sorted([TAG_SMI, TAG_SUBSTANCE])

    def test_age18_prevalence_below_matched_prevalence(self, pop5k, phemap):
        dataset, _ = pop5k
        all_age, _ = build_all_age_cohort(dataset, phemap, seed=42)
        age18 = build_age18_cohort(dataset, first_days(dataset, phemap, TAG_SMI))
        assert prevalence(age18) < prevalence(all_age)


class TestCohortColumns:
    @pytest.mark.parametrize("kind", COHORT_KINDS)
    def test_views_give_back_the_columns(self, pop5k, phemap, kind):
        dataset, _ = pop5k
        cohort, _ = build_cohort(dataset, phemap, kind, seed=42)
        again = Cohort.of(list(cohort), dataset)
        assert again.kind == cohort.kind == kind and again.ids is cohort.ids is dataset.ids
        for name in ("row", "label", "start", "end", "gap", "group", "index_day"):
            assert getattr(cohort, name).dtype == np.int64, name
            assert np.array_equal(getattr(again, name), getattr(cohort, name)), name
        views = list(cohort)
        mask = np.random.default_rng(5).random(len(cohort)) < 0.5
        assert 0 < mask.sum() < len(cohort)
        assert list(cohort[mask]) == [ex for ex, keep in zip(views, mask.tolist()) if keep]
        assert cohort[np.int64(3)] == cohort[3] == views[3] and cohort[-1] == views[-1]

    def test_persons_order_kept_by_use_case_cohorts(self, pop5k, phemap):
        dataset, _ = pop5k
        persons = list(dataset.persons)
        np.random.default_rng(3).shuffle(persons)
        pos = {p.person_id: i for i, p in enumerate(persons)}
        person_pos = np.repeat([pos[pid] for pid in dataset.ids], np.diff(dataset.offsets))
        shuffled = Dataset(Persons.of(persons), dataset.source, person_pos, dataset.day, dataset.code, dataset.codes)
        for build in (age18, substance):
            by_id = [ex.person_id for ex in build(dataset, phemap)]
            given = [ex.person_id for ex in build(shuffled, phemap)]
            assert len(given) > 10 and sorted(given) == by_id
            assert given == sorted(given, key=pos.get)


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
