"""Ingestion, construction-time checks, and round-trip behavior of the core tables."""

import datetime
import re
import time

import numpy as np
import pytest

from conftest import d, make_dataset, make_event, make_person, rebuild_from_columns
from smiscreen.cli import main
from smiscreen.datamodel import (
    BLOCK_BYTES,
    ClinicalEvent,
    Dataset,
    load_events,
    load_persons,
    read_table,
    write_events,
    write_persons,
    write_table,
)
from smiscreen.errors import DataError
from smiscreen.phecode import parse_phecode_map
from smiscreen.synth import load_ground_truth

PERSONS_HEADER = "person_id,birth_year,gender,enroll_start,enroll_end,source\n"
EVENTS_HEADER = "person_id,date,kind,system,code\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadPersons:
    def test_direct_parse(self, tmp_path):
        path = write(tmp_path / "p.csv", PERSONS_HEADER + "p1,1990,F,2010-01-01,2015-06-30,CLAIMS\n")
        persons = load_persons(path)
        assert len(persons) == 1
        p = persons[0]
        assert (p.person_id, p.birth_year, p.gender) == ("p1", 1990, "F")
        assert p.enroll_start == d("2010-01-01") and p.enroll_end == d("2015-06-30")
        assert p.source == "CLAIMS"

    def test_header_only_is_empty(self, tmp_path):
        assert load_persons(write(tmp_path / "p.csv", PERSONS_HEADER)) == []

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = write(
            tmp_path / "p.csv",
            PERSONS_HEADER
            + "p1,1990,F,2010-01-01,2015-06-30,CLAIMS\n"
            + "p1,1991,M,2011-01-01,2014-06-30,CLAIMS\n",
        )
        with pytest.raises(DataError, match="'p1'"):
            load_persons(path)

    @pytest.mark.parametrize(
        "row",
        [
            "p1,1990,F,2010-01-01,2015-06-30",  # missing column
            "p1,banana,F,2010-01-01,2015-06-30,CLAIMS",  # bad year
            "p1,1990,X,2010-01-01,2015-06-30,CLAIMS",  # unknown gender
            "p1,1990,F,2010-13-01,2015-06-30,CLAIMS",  # bad date
            "p1,1990,F,2016-01-01,2015-06-30,CLAIMS",  # start after end
            "p1,2016,F,2010-01-01,2015-06-30,CLAIMS",  # born after enrollment
            "p1,1990,F,2010-01-01,2015-06-30,ORACLE",  # unknown source
        ],
    )
    def test_malformed_rows_name_line_number(self, tmp_path, row):
        path = write(tmp_path / "p.csv", PERSONS_HEADER + row + "\n")
        with pytest.raises(DataError, match=":2"):
            load_persons(path)

    @pytest.mark.parametrize("date", ["20100101", "2010-W10-1"], ids=["basic-format", "week"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, date):
        path = write(tmp_path / "p.csv", PERSONS_HEADER + f"p1,1990,F,{date},2015-06-30,CLAIMS\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: unparseable date '{date}'")):
            load_persons(path)

    @pytest.mark.parametrize(
        "year", ["1_980", "+1980", " 1980", "\uff11\uff19\uff18\uff10", "01980", "-0"],
        ids=["underscore", "plus", "space", "full-width", "leading-zero", "minus-zero"],
    )
    def test_only_ascii_digit_birth_years(self, tmp_path, year):
        # int() reads each as 1980 or 0, so writing the persons back would change their bytes
        path = write(tmp_path / "p.csv", PERSONS_HEADER + f"p1,{year},F,2010-01-01,2015-06-30,CLAIMS\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: unparseable birth_year {year!r}")):
            load_persons(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "nope,header\n")
        with pytest.raises(DataError, match="header"):
            load_persons(path)


class TestLoadEvents:
    @pytest.fixture
    def persons(self):
        return [make_person("p1", start="2010-01-01", end="2015-06-30")]

    def test_direct_parse(self, tmp_path, persons):
        path = write(tmp_path / "e.csv", EVENTS_HEADER + "p1,2012-03-04,dx,ICD10,F20.0\n")
        events = load_events(path, persons, "CLAIMS").events
        assert len(events) == 1
        e = events[0]
        assert (e.kind, e.system, e.code) == ("DX", "ICD10", "F20.0")

    def test_date_outside_enrollment(self, tmp_path, persons):
        path = write(tmp_path / "e.csv", EVENTS_HEADER + "p1,2016-01-01,dx,ICD10,F20.0\n")
        with pytest.raises(DataError, match="p1.*2016-01-01"):
            load_events(path, persons, "CLAIMS")

    def test_kind_system_mismatch(self, tmp_path, persons):
        path = write(tmp_path / "e.csv", EVENTS_HEADER + "p1,2012-03-04,rx,ICD10,F20.0\n")
        with pytest.raises(DataError, match="inconsistent"):
            load_events(path, persons, "CLAIMS")

    def test_unknown_person(self, tmp_path, persons):
        path = write(tmp_path / "e.csv", EVENTS_HEADER + "zz,2012-03-04,dx,ICD10,F20.0\n")
        with pytest.raises(DataError, match="'zz'"):
            load_events(path, persons, "CLAIMS")

    def test_output_sorted_by_person_then_date(self, tmp_path):
        persons = [make_person("p2"), make_person("p1")]
        rows = (
            "p2,2012-05-01,dx,ICD10,A\n"
            "p1,2013-01-01,rx,NDC,123\n"
            "p1,2011-01-01,dx,ICD9,250.00\n"
        )
        events = load_events(write(tmp_path / "e.csv", EVENTS_HEADER + rows), persons, "CLAIMS").events
        keys = [(e.person_id, e.date) for e in events]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocks_match_line_by_line_reference(self, tmp_path, seed):
        persons = [make_person(f"p{i}") for i in range(40)]
        data = random_events_csv(np.random.default_rng(seed), persons)
        assert len(data) > 2 * BLOCK_BYTES
        path = tmp_path / "e.csv"
        path.write_bytes(data)
        got, want = load_events(str(path), persons, "CLAIMS"), reference_events(data, persons)
        assert got.ids == want.ids and got.codes.entries == want.codes.entries
        for name in ("offsets", "day", "code"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


# (kind as upper case, system) of the round-trip codes; each line spells its
# kind in one of three cases
KIND_SYSTEMS = [("DX", "ICD10"), ("DX", "ICD9"), ("RX", "NDC")]
CODE_TEXTS = ["F20.0", "295.1", "E11", "Ünë", "症状7", "ø"]


def random_events_csv(rng, persons) -> bytes:
    """A seeded events.csv a little over two blocks long: LF and CRLF line
    ends mixed, blank lines (one ending the first block, one straddling the
    second block's end), kinds spelled in any case, non-ASCII codes, and a
    code pool that grows along the file so new codes appear in every block
    while old ones repeat."""
    out = bytearray(EVENTS_HEADER.encode())
    edges = [(len(out) + BLOCK_BYTES - 1, b"\n"), (len(out) + 2 * BLOCK_BYTES - 1, b"\r\n")]
    n = 3 * BLOCK_BYTES // 30
    first, last = d("2010-01-01").toordinal(), d("2015-12-31").toordinal()
    draws = zip(
        rng.random(n) < 0.01,
        rng.integers(len(KIND_SYSTEMS), size=n),
        rng.integers(3, size=n),
        rng.integers(len(CODE_TEXTS), size=n).tolist(),
        (rng.random(n) * (1 + 400 * np.arange(n) // n)).astype(int).tolist(),
        rng.integers(len(persons), size=n).tolist(),
        rng.integers(first, last + 1, size=n).tolist(),
        rng.choice(["\n", "\r\n"], size=n),
    )
    for blank, ks, case, text, serial, row, day, end in draws:
        if edges and len(out) + 100 > edges[0][0]:
            at, edge = edges.pop(0)
            out += b"p0,2012-01-01,dx,ICD10," + b"X" * (at - len(out) - 24) + b"\n" + edge
        if len(out) > 2 * BLOCK_BYTES + 20_000:
            break
        if blank:
            out += end.encode()
            continue
        kind, system = KIND_SYSTEMS[ks]
        kind = (kind, kind.lower(), kind.title())[case]
        date = datetime.date.fromordinal(day).isoformat()
        out += f"{persons[row].person_id},{date},{kind},{system},{CODE_TEXTS[text]}{serial}{end}".encode()
    return bytes(out)


def reference_events(data: bytes, persons) -> Dataset:
    """events.csv parsed one line at a time into event objects."""
    events = []
    for line in data.decode("utf-8").split("\n")[1:]:
        line = line.removesuffix("\r")
        if line:
            pid, date, kind, system, code = line.split(",")
            events.append(ClinicalEvent(pid, d(date), kind, system, code))
    return Dataset.from_events(persons, events, "CLAIMS")


class TestDatasetAndValidation:
    def test_validate_clean(self):
        persons = [make_person(f"p{i}") for i in range(3)]
        events = [make_event("p0", "2012-01-01"), make_event("p1", "2012-02-01", kind="rx", system="NDC", code="1")]
        ds = make_dataset(persons, events)
        assert len(ds.persons) == 3
        assert ds.n_events == 2
        assert [e.kind for e in ds.events] == ["DX", "RX"]  # kinds are stored upper case

    def test_event_before_enrollment_is_violation(self):
        with pytest.raises(DataError, match="'p1'.*outside enrollment"):
            make_dataset([make_person("p1", start="2010-01-01")], [make_event("p1", "2009-01-01")])

    def test_synthetic_population_validates(self, pop50k):
        dataset, _, _ = pop50k
        rebuild_from_columns(dataset)  # raises on any violation

    def test_round_trip(self, tmp_path):
        persons = [make_person("p1"), make_person("p2", gender="M", source="CLAIMS")]
        events = [
            make_event("p1", "2012-01-01"),
            make_event("p1", "2012-01-01", kind="RX", system="NDC", code="55555-01"),
            make_event("p2", "2011-07-09", system="ICD9", code="250.00"),
        ]
        ds = make_dataset(persons, events)
        write_persons(ds.persons, str(tmp_path / "p.csv"))
        write_events(ds, str(tmp_path / "e.csv"))
        again = Dataset.from_files(str(tmp_path / "p.csv"), str(tmp_path / "e.csv"))
        assert again == ds

    def test_synth_round_trip_bytes(self, tmp_path, pop5k):
        dataset, _ = pop5k
        write_persons(dataset.persons, str(tmp_path / "p.csv"))
        write_events(dataset, str(tmp_path / "e.csv"))
        again = Dataset.from_files(str(tmp_path / "p.csv"), str(tmp_path / "e.csv"))
        write_persons(again.persons, str(tmp_path / "p2.csv"))
        write_events(again, str(tmp_path / "e2.csv"))
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    def test_events_in_window_bounds(self):
        events = [make_event("p1", day) for day in ("2012-01-01", "2012-06-15", "2013-01-01")]
        ds = make_dataset([make_person("p1")], events)
        got = ds.events_in_window("p1", d("2012-01-01"), d("2012-12-31"))
        assert [e.date for e in got] == [d("2012-01-01"), d("2012-06-15")]

    def test_dx_count_before(self):
        events = [
            make_event("p1", "2011-01-01"),
            make_event("p1", "2012-01-01", kind="RX", system="NDC", code="1"),
            make_event("p1", "2012-06-01"),
        ]
        ds = make_dataset([make_person("p1")], events)
        row = np.array([ds.row_of["p1"]])
        assert ds.dx_counts_before(row, np.array([d("2012-06-01").toordinal()]))[0] == 1
        assert ds.dx_counts_before(row, np.array([d("2012-06-02").toordinal()]))[0] == 2

    def test_ingestion_scales_roughly_linearly(self, tmp_path):
        base = [make_person("p1", start="2000-01-01", end="2015-12-31")]

        def build(n):
            events = [make_event("p1", f"20{10 + (i % 5):02d}-0{1 + (i % 9)}-15", code=f"C{i % 97}") for i in range(n)]
            path = write(
                tmp_path / f"e{n}.csv",
                EVENTS_HEADER + "".join(f"p1,{e.date},dx,ICD10,{e.code}\n" for e in events),
            )
            start = time.perf_counter()
            load_events(path, base, "CLAIMS")
            return time.perf_counter() - start

        build(2000)  # warm caches
        small = max(build(2000), 1e-4)
        large = build(20000)
        assert large <= 12 * small


P1 = make_person("p1", start="2010-01-01", end="2015-06-30")
OUTSIDE = "event for 'p1' dated {} outside enrollment [2010-01-01, 2015-06-30]"

# (case, persons, events, problem text, persons.csv line load_persons reports
# it on, or None when the rule is not one of load_persons'); the dataset
# source is CLAIMS
VIOLATIONS = [
    ("duplicate id", [P1, P1], [], "duplicate person_id 'p1'", 3),
    (
        "enroll order",
        [make_person("p1", start="2016-01-01", end="2015-06-30")],
        [],
        "enroll_start 2016-01-01 after enroll_end 2015-06-30",
        2,
    ),
    ("birth year out of range", [make_person("p1", birth_year=-20)], [], "birth_year -20 outside -16..9980", 2),
    (
        "born after enrollment",
        [make_person("p1", birth_year=2016, end="2015-06-30")],
        [],
        "birth_year 2016 after enrollment end 2015-06-30",
        2,
    ),
    ("unknown gender", [make_person("p1", gender="X")], [], "unknown gender token 'X'", 2),
    ("source mismatch", [make_person("p1", source="EHR")], [], "source 'EHR' != dataset source 'CLAIMS'", None),
    ("unknown kind", [P1], [make_event("p1", "2012-03-04", kind="LAB")], "unknown event kind 'LAB'", None),
    (
        "kind/system mismatch",
        [P1],
        [make_event("p1", "2012-03-04", kind="RX", system="ICD10")],
        "kind 'RX' inconsistent with system 'ICD10'",
        None,
    ),
    ("event before enrollment", [P1], [make_event("p1", "2009-12-31")], OUTSIDE.format("2009-12-31"), None),
    ("event after enrollment", [P1], [make_event("p1", "2015-07-01")], OUTSIDE.format("2015-07-01"), None),
]


@pytest.mark.parametrize("case,persons,events,problem,line", VIOLATIONS, ids=[v[0] for v in VIOLATIONS])
def test_construction_refuses_violation(tmp_path, case, persons, events, problem, line):
    named = (problem, f"person 'p1': {problem}")
    with pytest.raises(DataError) as exc:
        make_dataset(persons, events)
    assert str(exc.value) in named
    if events:
        clean = make_dataset([P1], [make_event("p1", "2012-01-01")])
        with pytest.raises(DataError) as exc:
            clean.replace_person_events("p1", events)
        assert str(exc.value) in named
    if line is not None:
        path = str(tmp_path / "p.csv")
        write_persons(persons, path)
        with pytest.raises(DataError, match=re.escape(f"{path}:{line}: {problem}")):
            load_persons(path)


def test_replacement_event_of_another_person_refused():
    persons = [make_person(pid) for pid in ("p1", "p2")]
    ds = make_dataset(persons, [make_event("p2", "2012-01-01")])
    new = [make_event("p2", "2012-02-02"), make_event("zz", "2012-03-03")]
    with pytest.raises(DataError, match=re.escape("event for 'p2' cannot replace the events of 'p1'")):
        ds.replace_person_events("p1", new)


def test_replaced_dataset_equals_fresh_build():
    persons = [make_person(pid, start="2011-01-01") for pid in ("p3", "p1", "p2")]
    kept = [
        make_event("p3", "2012-01-01"),
        make_event("p2", "2013-05-01", kind="RX", system="NDC", code="7"),
    ]
    old = [make_event("p1", "2012-02-01"), make_event("p1", "2012-03-01")]
    parent = make_dataset(persons, kept + old)
    rows = np.array([parent.row_of[pid] for pid in ("p1", "p2", "p3")])
    cutoff = np.full(3, d("2015-01-01").toordinal())
    window = ("p1", d("2011-01-01"), d("2013-12-31"))
    # fill the parent's caches, which the replaced dataset must not reuse
    assert parent.dx_counts_before(rows, cutoff).tolist() == [2, 0, 1]
    assert len(parent.events_in_window(*window)) == 2
    new = [
        make_event("p1", "2014-01-01", code="NEW1"),
        make_event("p1", "2011-06-01", kind="rx", system="NDC"),
    ]
    replaced = parent.replace_person_events("p1", new)
    fresh = make_dataset(persons, kept + new)
    assert replaced.row_of == fresh.row_of
    assert replaced.enroll_start.tolist() == fresh.enroll_start.tolist()
    assert replaced.enroll_end.tolist() == fresh.enroll_end.tolist()
    assert replaced.events == fresh.events and replaced == fresh
    assert replaced.key.tolist() == fresh.key.tolist()
    shorter = parent.replace_person_events("p1", new[:1])
    assert shorter.key.tolist() == make_dataset(persons, kept + new[:1]).key.tolist()
    assert replaced.dx_counts_before(rows, cutoff).tolist() == [1, 0, 1]
    assert fresh.dx_counts_before(rows, cutoff).tolist() == [1, 0, 1]
    got = replaced.events_in_window(*window)
    assert got == fresh.events_in_window(*window) and [e.date for e in got] == [d("2011-06-01")]
    assert parent == make_dataset(persons, kept + old)


GOOD_ROW = b"p1,2012-03-04,dx,ICD10,F20.0"

# (case, offending events.csv line, message after "path:line: ")
BAD_ROWS = [
    ("4 columns", b"p1,2012-03-04,dx,ICD10", "expected 5 columns, got 4"),
    ("6 columns", b"p1,2012-03-04,dx,ICD10,F20.0,x", "expected 5 columns, got 6"),
    ("unknown person", b"zz,2012-03-04,dx,ICD10,F20.0", "unknown person_id 'zz'"),
    ("bad kind", b"p1,2012-03-04,lab,ICD10,F20.0", "unknown event kind 'lab'"),
    ("rx with ICD10", b"p1,2012-03-04,rx,ICD10,F20.0", "kind 'rx' inconsistent with system 'ICD10'"),
    ("bad date", b"p1,2010-13-01,dx,ICD10,F20.0", "unparseable date '2010-13-01'"),
    ("basic-format date", b"p1,20120304,dx,ICD10,F20.0", "unparseable date '20120304'"),
    ("week date", b"p1,2012-W10-1,dx,ICD10,F20.0", "unparseable date '2012-W10-1'"),
    (
        "outside enrollment",
        b"p1,2016-01-01,dx,ICD10,F20.0",
        "event for 'p1' dated 2016-01-01 outside enrollment [2010-01-01, 2015-06-30]",
    ),
    ("quoted field", b'p1,2012-03-04,dx,ICD10,"F20.0"', "quoted field; events.csv does not support quoting"),
    ("invalid UTF-8", b"p1,2012-03-04,dx,ICD10,F2\xff0", "invalid UTF-8"),
    ("lone carriage return", b"p1,2012-03-04,dx,ICD10,F20\r0", "carriage return inside a line"),
]
BAD_IDS = [case for case, _, _ in BAD_ROWS]


class TestLoadErrors:
    """Every malformed events.csv is a DataError naming path:line of the
    first offending physical line, and the CLI exits 3 on it."""

    @pytest.fixture
    def persons_csv(self, tmp_path):
        return write(tmp_path / "p.csv", PERSONS_HEADER + "p1,1980,F,2010-01-01,2015-06-30,CLAIMS\n")

    @staticmethod
    def events_csv(tmp_path, *rows: bytes, header: bytes = EVENTS_HEADER.encode()) -> str:
        path = tmp_path / "e.csv"
        path.write_bytes(header + b"".join(row + b"\n" for row in rows))
        return str(path)

    @pytest.mark.parametrize("case,row,message", BAD_ROWS, ids=BAD_IDS)
    def test_error_names_path_and_line(self, tmp_path, persons_csv, case, row, message):
        path = self.events_csv(tmp_path, GOOD_ROW, row)
        with pytest.raises(DataError, match=re.escape(f"{path}:3: {message}")):
            load_events(path, load_persons(persons_csv), "CLAIMS")

    @pytest.mark.parametrize("pid,year", [('"p,1"', "1980"), ("p1", '"1980"')], ids=["id", "birth_year"])
    def test_quoted_persons_field_rejected(self, tmp_path, capsys, pid, year):
        rows = f"p0,1980,F,2010-01-01,2015-06-30,CLAIMS\n{pid},{year},F,2010-01-01,2015-06-30,CLAIMS\n"
        persons = write(tmp_path / "p.csv", PERSONS_HEADER + rows)
        message = f"{persons}:3: quoted field; persons.csv does not support quoting"
        with pytest.raises(DataError, match=re.escape(message)):
            load_persons(persons)
        events = self.events_csv(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data.persons={persons}\ndata.events={events}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{persons}:3: quoted field" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "year,start,end", [(-20, "2010-01-01", "2015-06-30"), (9990, "9995-01-01", "9999-06-30")]
    )
    def test_undatable_birth_year_rejected(self, tmp_path, capsys, year, start, end):
        rows = f"p0,1980,F,2010-01-01,2015-06-30,CLAIMS\np1,{year},F,{start},{end},CLAIMS\n"
        persons = write(tmp_path / "p.csv", PERSONS_HEADER + rows)
        message = f"{persons}:3: birth_year {year} outside -16..9980"
        with pytest.raises(DataError, match=re.escape(message)):
            load_persons(persons)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data.persons={persons}\ndata.events={self.events_csv(tmp_path)}\ncohort.kind=AGE18\n")
        assert main(["cohort", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_person_id_needing_quotes_is_not_written(self, tmp_path):
        person = make_person("p,1")
        with pytest.raises(DataError, match=re.escape("cannot write 'p,1' to persons.csv, which has no quoting")):
            write_persons([person], str(tmp_path / "p.csv"))

    def test_bad_header(self, tmp_path, persons_csv):
        path = self.events_csv(tmp_path, GOOD_ROW, header=b"person_id,date,kind,code\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: expected header")):
            load_events(path, load_persons(persons_csv), "CLAIMS")

    @pytest.mark.parametrize("case,row,message", BAD_ROWS, ids=BAD_IDS)
    def test_train_exits_3_without_traceback(self, tmp_path, persons_csv, capsys, case, row, message):
        events = self.events_csv(tmp_path, GOOD_ROW, row)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data.persons={persons_csv}\ndata.events={events}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{events}:3: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("later", BAD_ROWS, ids=BAD_IDS)
    @pytest.mark.parametrize("earlier", BAD_ROWS, ids=BAD_IDS)
    def test_earlier_line_wins(self, tmp_path, persons_csv, earlier, later):
        path = self.events_csv(tmp_path, GOOD_ROW, earlier[1], GOOD_ROW, later[1])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: {earlier[2]}")):
            load_events(path, load_persons(persons_csv), "CLAIMS")

    @pytest.mark.parametrize("shift", [0, 10], ids=["past-boundary", "straddling-boundary"])
    def test_bad_row_past_first_block(self, tmp_path, persons_csv, shift):
        # blocks start after the header; with shift 10 the bad row spans the first block's end
        n_good = BLOCK_BYTES // (len(GOOD_ROW) + 1) + 10 - shift
        path = self.events_csv(tmp_path, *[GOOD_ROW] * n_good, b"zz,2012-03-04,dx,ICD10,F20.0")
        with pytest.raises(DataError, match=re.escape(f"{path}:{n_good + 2}: unknown person_id 'zz'")):
            load_events(path, load_persons(persons_csv), "CLAIMS")

    def test_blank_lines_crlf_and_missing_final_newline_load(self, tmp_path, persons_csv):
        persons = load_persons(persons_csv)
        plain = self.events_csv(tmp_path, GOOD_ROW, b"p1,2013-01-01,rx,NDC,123")
        expected = load_events(plain, persons, "CLAIMS").events
        variants = [
            b"person_id,date,kind,system,code\r\n" + GOOD_ROW + b"\r\n\r\np1,2013-01-01,rx,NDC,123\r\n",
            EVENTS_HEADER.encode() + b"\n" + GOOD_ROW + b"\n\np1,2013-01-01,rx,NDC,123",
            EVENTS_HEADER.encode() + GOOD_ROW + b"\r\np1,2013-01-01,rx,NDC,123",
        ]
        for i, content in enumerate(variants):
            path = tmp_path / f"v{i}.csv"
            path.write_bytes(content)
            assert load_events(str(path), persons, "CLAIMS").events == expected

    @pytest.mark.parametrize("case,row,message", BAD_ROWS, ids=BAD_IDS)
    def test_blank_lines_before_bad_row_still_count(self, tmp_path, persons_csv, case, row, message):
        # more blank bytes than a line holds, so a position that skips them lands on another line
        path = self.events_csv(tmp_path, GOOD_ROW, *[b"", b"\r"] * 20, GOOD_ROW, row)
        with pytest.raises(DataError, match=re.escape(f"{path}:44: {message}")):
            load_events(path, load_persons(persons_csv), "CLAIMS")

    def test_blank_lines_still_count(self, tmp_path, persons_csv):
        path = self.events_csv(tmp_path, GOOD_ROW, b"", b"\r", b"zz,2012-03-04,dx,ICD10,F20.0")
        with pytest.raises(DataError, match=re.escape(f"{path}:5: unknown person_id 'zz'")):
            load_events(path, load_persons(persons_csv), "CLAIMS")


# Every plain table reads through `read_table`: name -> (loader, header, two good data rows)
PLAIN_TABLES = {
    "persons.csv": (
        load_persons,
        PERSONS_HEADER.strip(),
        b"p1,1990,F,2010-01-01,2015-06-30,CLAIMS",
        b"p2,1985,M,2011-01-01,2014-12-31,CLAIMS",
    ),
    "phecode_map.csv": (
        parse_phecode_map, "icd_version,icd_code,phecode", b"ICD10,F20.0,295.1", b"ICD9,295.10,295.1"
    ),
    "ground_truth.csv": (
        load_ground_truth, "person_id,latent_logit,onset_date", b"p1,0.5,2012-01-01", b"p2,-1.25,"
    ),
}
# (case, offending data line, message after "path:line: " for the table `name` of `n` columns)
DIALECT_ROWS = [
    ("invalid UTF-8", b"p\xff1,x,y", "invalid UTF-8"),
    ("quoted field", b'"p1",x,y', "quoted field; {name} does not support quoting"),
    ("lone carriage return", b"p1,x\ry,z", "carriage return inside a line"),
    ("column count", b"a,b,c,d,e,f,g,h", "expected {n} columns, got 8"),
    ("bad row, then invalid UTF-8", b"a,b,c,d,e,f,g,h\n\xff", "expected {n} columns, got 8"),
]
DIALECT_IDS = [case for case, _, _ in DIALECT_ROWS]


class TestPlainTables:
    """One dialect for every plain table: the same refusal, after the same
    path:line, whichever table holds the bad line."""

    @pytest.mark.parametrize("name", list(PLAIN_TABLES))
    @pytest.mark.parametrize("case,row,message", DIALECT_ROWS, ids=DIALECT_IDS)
    def test_bad_line_after_blank_lines(self, tmp_path, name, case, row, message):
        load, header, good, _ = PLAIN_TABLES[name]
        path = tmp_path / name
        path.write_bytes(header.encode() + b"\r\n" + good + b"\n\n\r\n" + row + b"\n" + good + b"\n")
        text = message.format(name=name, n=header.count(",") + 1)
        with pytest.raises(DataError, match=re.escape(f"{path}:5: {text}")):
            load(str(path))

    @pytest.mark.parametrize("name", list(PLAIN_TABLES))
    @pytest.mark.parametrize("content,got", [(b"", "None"), (b"a,b\n", "['a', 'b']")], ids=["empty", "bad"])
    def test_missing_or_bad_header(self, tmp_path, name, content, got):
        load, header, _, _ = PLAIN_TABLES[name]
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(f"{path}: expected header {header}, got {got}")):
            load(str(path))

    @pytest.mark.parametrize("name", list(PLAIN_TABLES))
    def test_crlf_without_final_newline_loads(self, tmp_path, name):
        load, header, first, second = PLAIN_TABLES[name]
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(header.encode() + b"\n" + first + b"\n" + second + b"\n")
        crlf.write_bytes(header.encode() + b"\r\n" + first + b"\r\n\r\n" + second)
        assert load(str(crlf)) == load(str(lf))

    @pytest.mark.parametrize("key", ["data.persons", "data.phecode_map"])
    @pytest.mark.parametrize("case,row,message", DIALECT_ROWS, ids=DIALECT_IDS)
    def test_cli_exits_3_without_traceback(self, tmp_path, capsys, key, case, row, message):
        name, n = ("persons.csv", 6) if key == "data.persons" else ("phecode_map.csv", 3)
        _, header, good, _ = PLAIN_TABLES[name]
        bad = tmp_path / name
        bad.write_bytes(header.encode() + b"\n" + good + b"\n" + row + b"\n")
        files = {
            "data.persons": write(tmp_path / "p.csv", PERSONS_HEADER + "p1,1980,F,2010-01-01,2015-06-30,CLAIMS\n"),
            "data.events": write(tmp_path / "e.csv", EVENTS_HEADER),
            key: str(bad),
        }
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in files.items()), encoding="utf-8")
        assert main(["cohort", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:3: {message.format(name=name, n=n)}" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["a,b", 'a"b', "a\rb", "a\nb"], ids=["comma", "quote", "CR", "LF"])
    def test_write_refuses_field_needing_quotes(self, tmp_path, field):
        message = f"cannot write {field!r} to cohort.csv, which has no quoting"
        with pytest.raises(DataError, match=re.escape(message)):
            write_table(str(tmp_path / "c.csv"), "cohort.csv", ["a", "b"], [["x", 1], [2, field]])

    def test_written_table_reads_back(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, "t.csv", ["a", "b"], [["x", 1], ["", datetime.date(2010, 1, 2)]])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\nx,1\r\n,2010-01-02\r\n"
        rows = list(read_table(path, "t.csv", ["a", "b"]))
        assert rows == [(f"{path}:2", ["x", "1"]), (f"{path}:3", ["", "2010-01-02"])]
