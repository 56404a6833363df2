"""Core clinical record types, the columnar event store, and CSV ingestion.

Input universe is two tables: persons (demographics plus an explicit
enrollment span bounding what is observable for that person) and dated
clinical events (diagnoses and medication fills). Events outside a person's
enrollment are hard errors rather than silent drops, since downstream
matching counts would be corrupted by quiet data loss.

A `Dataset` is the one event store, and it is built one way: from
unsorted columns (each event's person position, date ordinal and code id)
plus the persons and their source. `Dataset.from_events`, `load_events`
and `synth.generate_population` each produce those columns and call that
constructor. It checks its invariants when it is built, and there is no
separate validation pass. Each rule has one predicate, which the CSV
loaders call too, so a file and an in-memory dataset are refused with the
same text, after `path:line` or after the person id:
  _person_problem      birth year in BIRTH_YEARS, gender, source,
                       enroll_start <= enroll_end, birth year <= end year
  _kind_problem        known kind (any case) with a system allowed for it
  _enrollment_problem  event date within the person's enrollment
`load_persons` and `Dataset` refuse a repeated person id; `Dataset` also
refuses a person whose source is not the dataset's.
`replace_person_events` checks only the events it brings in, and refuses
one of another person.

Events are held as columns, never as one object per event. A `Dataset`
keeps int arrays of date ordinals and code ids, sorted by (person_id,
date) with ties in input order, plus per-person offsets into them; a code
id names one distinct (kind, system, code) triple of a `CodeTable`. The
vocabulary, features, benchmarks and the AGE18 coverage test each scan a
whole split at once: one `window_events` gather of the positions inside
its windows, then per-code mask tests. `ClinicalEvent` is only a row view:
built on demand by `events_for`, `events_in_window` and `events`, and
accepted by `from_events` from callers that assemble small datasets by
hand.

Every plain table (persons.csv, events.csv, phecode_map.csv,
ground_truth.csv, cohort.csv, report.csv) has one dialect: UTF-8, comma
separated, a fixed header line, LF or CRLF line ends (CRLF when written),
no quoting. Two functions own it. `read_table` checks a file's header and
each line's column count, skips blank lines but counts them, and refuses
a `"`, a carriage return not ending a line and invalid UTF-8 with a
DataError naming path:line, the earliest bad one. `write_table` refuses a field
that would need quoting. events.csv alone keeps its own block parser and
writer, for speed, with the same refusals and texts:
  persons.csv: person_id,birth_year,gender,enroll_start,enroll_end,source
  events.csv:  person_id,date,kind,system,code
dates are exactly YYYY-MM-DD (ASCII digits; the basic 20100101 and week
2010-W01-1 forms are refused); kind is written lowercase (dx/rx) on disk.
events.csv is parsed in fixed-size blocks. Array scans find the first line
that is not blank and lacks exactly four commas, or holds a `"` or a lone
carriage return. Before it, each line's first two commas become newlines
and blank lines' bytes are dropped, so one decode and one split give
pid, date and "kind,system,code" per line, each mapped through a memo. A
load error names path:line of the first offending physical line in file
order, whichever check it fails.
"""

from __future__ import annotations

import copy
import datetime
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import DataError

GENDERS = frozenset({"F", "M", "U"})
SOURCES = frozenset({"CLAIMS", "EHR"})

# The event kinds: kind=DX carries an ICD code, kind=RX an NDC fill
SYSTEMS_FOR_KIND = {"DX": frozenset({"ICD9", "ICD10"}), "RX": frozenset({"NDC"})}

PERSONS_HEADER = ["person_id", "birth_year", "gender", "enroll_start", "enroll_end", "source"]
EVENTS_HEADER = ["person_id", "date", "kind", "system", "code"]

# The AGE18 cohort dates Jan 1 of birth_year + 17 through birth_year + 19.
BIRTH_YEARS = (datetime.MINYEAR - 17, datetime.MAXYEAR - 19)

BLOCK_BYTES = 1 << 20  # events.csv is read and parsed this many bytes at a time

# Exceeds every date ordinal (9999-12-31 is 3,652,059), so the per-event
# key row * DAY_SPAN + ordinal sorts by (person row, date).
DAY_SPAN = 1 << 22

_CSV_SPECIAL = (",", '"', "\r", "\n")


@dataclass(frozen=True, slots=True)
class Person:
    person_id: str
    birth_year: int
    gender: str
    enroll_start: datetime.date
    enroll_end: datetime.date
    source: str


@dataclass(frozen=True, slots=True)
class ClinicalEvent:
    person_id: str
    date: datetime.date
    kind: str
    system: str
    code: str


class Code(NamedTuple):
    """One distinct (kind, system, code) of a dataset's events."""

    kind: str
    system: str
    code: str


def _person_problem(p: Person) -> str | None:
    """Why a person record is refused, or None if it is accepted."""
    if not BIRTH_YEARS[0] <= p.birth_year <= BIRTH_YEARS[1]:
        return f"birth_year {p.birth_year} outside {BIRTH_YEARS[0]}..{BIRTH_YEARS[1]}"
    if p.gender not in GENDERS:
        return f"unknown gender token {p.gender!r}"
    if p.source not in SOURCES:
        return f"unknown source token {p.source!r}"
    if p.enroll_start > p.enroll_end:
        return f"enroll_start {p.enroll_start} after enroll_end {p.enroll_end}"
    if p.birth_year > p.enroll_end.year:
        return f"birth_year {p.birth_year} after enrollment end {p.enroll_end}"
    return None


def _kind_problem(kind: str, system: str) -> str | None:
    """Why an event's kind (as written, in any case) and system are refused,
    or None if they are accepted."""
    systems = SYSTEMS_FOR_KIND.get(kind.upper())
    if systems is None:
        return f"unknown event kind {kind!r}"
    if system not in systems:
        return f"kind {kind!r} inconsistent with system {system!r}"
    return None


def _enrollment_problem(p: Person, date: datetime.date) -> str | None:
    """Why an event of `p` on `date` is refused, or None if it is accepted."""
    if p.enroll_start <= date <= p.enroll_end:
        return None
    return f"event for {p.person_id!r} dated {date} outside enrollment [{p.enroll_start}, {p.enroll_end}]"


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# A birth_year is written as `str` writes it: 0, or an optional minus and 1-9
# ASCII digits without a leading zero. int() alone also takes "+1", "1_0",
# " 1", "01", "-0" and non-ASCII digits, and may refuse over 4,300 digits.
_YEAR = re.compile(r"0|-?[1-9][0-9]{0,8}")


def _date(text: str) -> datetime.date | None:
    """The date `text` writes as exactly YYYY-MM-DD, or None. The pattern
    comes first because `fromisoformat` accepts other forms on some Python
    versions (20100101 and week dates from 3.11 on)."""
    if _ISO_DATE.fullmatch(text):
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:
            pass
    return None


def _parse_date(text: str, where: str) -> datetime.date:
    date = _date(text)
    if date is None:
        raise DataError(f"{where}: unparseable date {text!r}")
    return date


def _line_problem(line: str, name: str) -> str | None:
    """Why a data line of the plain table `name` is refused, or None."""
    if '"' in line:
        return f"quoted field; {name} does not support quoting"
    if "\r" in line:
        return "carriage return inside a line"
    return None


def _decode(path: str, raw: bytes) -> str:
    """`raw`, read from the start of `path`, as UTF-8; invalid UTF-8 is a
    DataError naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: invalid UTF-8") from None


def read_text(path: str) -> str:
    """The whole file at `path`, decoded once (see `_decode`)."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _check_header(path: str, first: str, header: list[str]) -> None:
    """Refuse a first line (`first`, "" in an empty file) other than `header`."""
    line = first.removesuffix("\n").removesuffix("\r")
    got = line.split(",") if line else ([] if first else None)
    if got != header:
        raise DataError(f"{path}: expected header {','.join(header)}, got {got}")


def read_table(path: str, name: str, header: list[str]) -> Iterator[tuple[str, list[str]]]:
    """("path:line", fields) of each non-blank data line of the plain
    table `name` (see the module docstring), after checking its header."""
    with open(path, "rb") as fh:
        first, newline, body = fh.read().partition(b"\n")
    _check_header(path, _decode(path, first + newline), header)
    for lineno, raw in enumerate(body.split(b"\n"), start=2):
        try:
            line = raw.decode("utf-8").removesuffix("\r")
        except UnicodeDecodeError:
            raise DataError(f"{path}:{lineno}: invalid UTF-8") from None
        if not line:
            continue
        where = f"{path}:{lineno}"
        problem = _line_problem(line, name)
        if problem:
            raise DataError(f"{where}: {problem}")
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataError(f"{where}: expected {len(header)} columns, got {len(fields)}")
        yield where, fields


def write_table(path: str, name: str, header: list[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the plain table `name`: CRLF line ends, each field as `str`
    gives it. A field that would need quoting is a DataError."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            line = ",".join(map(str, row))
            if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
                for field in row:
                    _plain(str(field), name)
            fh.write(line + "\r\n")


def load_persons(path: str) -> list[Person]:
    """Parse persons.csv, rejecting malformed rows and duplicate ids."""
    persons: list[Person] = []
    seen: set[str] = set()
    for where, row in read_table(path, "persons.csv", PERSONS_HEADER):
        pid, birth_raw, gender, start_raw, end_raw, source = row
        if pid in seen:
            raise DataError(f"{where}: duplicate person_id {pid!r}")
        seen.add(pid)
        if not _YEAR.fullmatch(birth_raw):
            raise DataError(f"{where}: unparseable birth_year {birth_raw!r}")
        birth_year = int(birth_raw)
        start = _parse_date(start_raw, where)
        end = _parse_date(end_raw, where)
        person = Person(sys.intern(pid), birth_year, gender, start, end, source)
        problem = _person_problem(person)
        if problem:
            raise DataError(f"{where}: {problem}")
        persons.append(person)
    return persons


class CodeTable:
    """Interned codes; a code id is a position in `entries`."""

    def __init__(self, entries: Iterable[Code] = ()):
        self.entries: list[Code] = list(entries)
        self._ids = {c: i for i, c in enumerate(self.entries)}
        if len(self._ids) != len(self.entries):
            raise ValueError("duplicate entries in a code table")

    def id(self, c: Code) -> int:
        """Id of `c`, appending it when new."""
        cid = self._ids.get(c)
        if cid is None:
            cid = self._ids[c] = len(self.entries)
            self.entries.append(c)
        return cid


class _Memo(dict):
    """dict that fills a missing key from `make(key)`."""

    def __init__(self, make: Callable, initial: dict | None = None):
        super().__init__(initial or {})
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _row_problem(line: str, by_id: dict[str, Person]) -> str | None:
    """Why one events.csv data line is rejected, or None if it is accepted.

    The block parser finds offending lines with array tests; this is the
    reference for which line fails and what its message says.
    """
    problem = _line_problem(line, "events.csv")
    if problem:
        return problem
    row = line.split(",")
    if len(row) != 5:
        return f"expected 5 columns, got {len(row)}"
    pid, date_raw, kind, system, _ = row
    person = by_id.get(pid)
    if person is None:
        return f"unknown person_id {pid!r}"
    problem = _kind_problem(kind, system)
    if problem:
        return problem
    date = _date(date_raw)
    if date is None:
        return f"unparseable date {date_raw!r}"
    return _enrollment_problem(person, date)


class _EventParser:
    """Block-at-a-time events.csv parser filling int columns."""

    def __init__(self, path: str, persons: list[Person]):
        self.path = path
        self.persons = persons
        self.by_id = {p.person_id: p for p in persons}
        self.pos = _Memo(lambda pid: -1, {p.person_id: i for i, p in enumerate(persons)})
        # one trailing sentinel so position -1 (unknown person) indexes safely
        self.start = np.array([p.enroll_start.toordinal() for p in persons] + [0], dtype=np.int64)
        self.end = np.array([p.enroll_end.toordinal() for p in persons] + [0], dtype=np.int64)
        self.codes = CodeTable()
        self.code_of = _Memo(self._code_id)
        self.day_of = _Memo(self._ordinal)
        self.parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _code_id(self, suffix: str) -> int:
        """Code id of a line's "kind,system,code" (with its CR if any), or -1."""
        kind, system, code = suffix.removesuffix("\r").split(",")
        if _kind_problem(kind, system):
            return -1
        return self.codes.id(Code(kind.upper(), system, sys.intern(code)))

    @staticmethod
    def _ordinal(text: str) -> int:
        date = _date(text)
        return -1 if date is None else date.toordinal()

    def fail(self, lineno: int, line: bytes) -> NoReturn:
        where = f"{self.path}:{lineno}"
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{where}: invalid UTF-8") from None
        raise DataError(f"{where}: {_row_problem(text, self.by_id)}")

    def block(self, raw: bytes, first_line: int) -> int:
        """Parse whole lines (`raw` ends with a newline) numbered from
        `first_line`; return the number of the line after them."""
        a = np.frombuffer(raw, dtype=np.uint8)
        ends = np.flatnonzero(a == 10)
        n = ends.size
        starts = np.concatenate(([0], ends + 1))  # starts[n] is len(raw)
        content_end = ends - ((ends > starts[:-1]) & (a[ends - 1] == 13))
        blank = content_end == starts[:-1]
        comma = np.flatnonzero(a == 44)
        upto = np.searchsorted(comma, ends)  # commas before each line end
        bad = ~blank & (np.diff(upto, prepend=0) != 4)
        if b'"' in raw:
            bad[np.searchsorted(ends, np.flatnonzero(a == 34))] = True
        cr = np.flatnonzero(a == 13)
        lone_cr = cr[a[cr + 1] != 10]  # raw ends with a newline, so cr + 1 is in range
        bad[np.searchsorted(ends, lone_cr)] = True
        stop = int(np.argmax(bad)) if bad.any() else n
        # Lines before `stop` are blank or hold four commas. Turning the first
        # two into newlines and dropping blank lines' bytes leaves the prefix
        # as pid, date and "kind,system,code" lines, split in one call.
        lines = np.flatnonzero(~blank[:stop])
        b = a[: starts[stop]].copy()
        b[comma[upto[lines] - 4]] = b[comma[upto[lines] - 3]] = 10
        keep = None
        if lines.size < stop:
            keep = np.ones(b.size, dtype=bool)
            gaps = np.flatnonzero(blank[:stop])
            keep[starts[gaps]] = keep[ends[gaps]] = False  # a blank line is "\n" or "\r\n"
            b = b[keep]
        try:
            fields = str(b, "utf-8").split("\n")
        except UnicodeDecodeError as exc:
            at = exc.start if keep is None else int(np.flatnonzero(keep)[exc.start])
            stop = int(np.searchsorted(ends, at))
            if stop:
                self.block(raw[: starts[stop]], first_line)  # lines before it, all valid UTF-8
            self.fail(first_line + stop, raw[starts[stop] : content_end[stop]])
        m = lines.size
        pos = np.fromiter(map(self.pos.__getitem__, fields[0::3]), dtype=np.int64, count=m)
        day = np.fromiter(map(self.day_of.__getitem__, fields[1::3]), dtype=np.int64, count=m)
        code = np.fromiter(map(self.code_of.__getitem__, fields[2::3]), dtype=np.int64, count=m)
        bad = (pos < 0) | (code < 0) | (day < 0) | (day < self.start[pos]) | (day > self.end[pos])
        if bad.any():
            line = lines[int(np.argmax(bad))]
            self.fail(first_line + int(line), raw[starts[line] : content_end[line]])
        self.parts.append((pos, day, code))
        if stop < n:
            self.fail(first_line + stop, raw[starts[stop] : content_end[stop]])
        return first_line + n

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, CodeTable]:
        """(person_pos, day, code, codes) of every line parsed, in file order."""
        if self.parts:
            pos, day, code = (np.concatenate(cols) for cols in zip(*self.parts))
        else:
            pos = day = code = np.zeros(0, dtype=np.int64)
        return pos, day, code, self.codes


def load_events(path: str, persons: list[Person], source: str) -> "Dataset":
    """The dataset of `persons` and the events of events.csv at `path`,
    sorted by (person_id, date); ties keep file order."""
    parser = _EventParser(path, persons)
    with open(path, "rb") as fh:
        _check_header(path, _decode(path, fh.readline()), EVENTS_HEADER)
        lineno = 2
        carry = b""
        while chunk := fh.read(BLOCK_BYTES):
            buf = carry + chunk if carry else chunk
            cut = buf.rfind(b"\n") + 1
            carry = buf[cut:]
            if cut:
                lineno = parser.block(buf[:cut], lineno)
        if carry:
            parser.block(carry + b"\n", lineno)
    return Dataset(persons, source, *parser.columns())


def write_persons(persons: list[Person], path: str) -> None:
    rows = ([p.person_id, p.birth_year, p.gender, p.enroll_start, p.enroll_end, p.source] for p in persons)
    write_table(path, "persons.csv", PERSONS_HEADER, rows)


def _plain(text: str, name: str = "events.csv") -> str:
    if any(ch in text for ch in _CSV_SPECIAL):
        raise DataError(f"cannot write {text!r} to {name}, which has no quoting")
    return text


def write_events(d: "Dataset", path: str) -> None:
    """events.csv from the columns, CRLF line ends, ordered like `d.events`."""
    suffix = [
        f"{_plain(c.kind.lower())},{_plain(c.system)},{_plain(c.code)}" for c in d.codes.entries
    ]
    days, day_index = np.unique(d.day, return_inverse=True)
    date_text = [datetime.date.fromordinal(day).isoformat() for day in days.tolist()]
    day_index = day_index.tolist()
    code = d.code.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\r\n")
        for row, pid in enumerate(d.ids):
            lo, hi = int(d.offsets[row]), int(d.offsets[row + 1])
            if lo == hi:
                continue
            head = _plain(pid) + ","
            fh.write(
                "".join(
                    f"{head}{date_text[day_index[i]]},{suffix[code[i]]}\r\n" for i in range(lo, hi)
                )
            )


class Dataset:
    """Immutable person table plus its events as columns.

    Row r is person `ids[r]` (ids sorted; `row_of` maps an id to its row).
    Its events occupy positions offsets[r]:offsets[r + 1] of `day` (int32
    date ordinals) and `code` (int32 ids into `codes`), sorted by date with
    ties in input order. Construction refuses, with a `DataError` naming the
    person, any record that breaks an invariant listed in the module
    docstring. Treat instances as frozen after construction: derived
    datasets come from `replace_person_events`, which checks its new events
    the same way.
    """

    def __init__(
        self, persons: list[Person], source: str,
        person_pos: np.ndarray, day: np.ndarray, code: np.ndarray, codes: CodeTable,
    ):
        """Dataset from unsorted event columns: event i is dated `day[i]`
        (a date ordinal), has code id `code[i]` and belongs to
        persons[person_pos[i]]."""
        if source not in SOURCES:
            raise DataError(f"unknown dataset source {source!r}")
        self.persons = persons
        self.source = source
        self.persons_by_id: dict[str, Person] = {}
        for p in persons:
            if p.person_id in self.persons_by_id:
                raise DataError(f"duplicate person_id {p.person_id!r}")
            problem = _person_problem(p)
            if problem is None and p.source != source:
                problem = f"source {p.source!r} != dataset source {source!r}"
            if problem:
                raise DataError(f"person {p.person_id!r}: {problem}")
            self.persons_by_id[p.person_id] = p
        order = sorted(range(len(persons)), key=lambda i: persons[i].person_id)
        by_row = [persons[i] for i in order]
        self.ids = [p.person_id for p in by_row]
        self.row_of = {pid: row for row, pid in enumerate(self.ids)}
        self.enroll_start = np.array([p.enroll_start.toordinal() for p in by_row], dtype=np.int64)
        self.enroll_end = np.array([p.enroll_end.toordinal() for p in by_row], dtype=np.int64)
        rank = np.empty(len(persons), dtype=np.int64)
        rank[order] = np.arange(len(persons))
        rows = rank[person_pos]
        sort = np.argsort(rows * DAY_SPAN + day, kind="stable")
        offsets = np.zeros(len(persons) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(persons)), out=offsets[1:])
        day, code = (np.asarray(col[sort], dtype=np.int32) for col in (day, code))
        self._set_events(offsets, day, code, codes, 0, rows[sort])

    def _set_events(
        self, offsets: np.ndarray, day: np.ndarray, code: np.ndarray, codes: CodeTable,
        lo: int, rows: np.ndarray,
    ) -> None:
        """Adopt the sorted columns after checking their events at positions
        lo, lo + 1, ..., which belong to `rows`; the others were checked before."""
        entries = codes.entries
        bad_code = np.array([_kind_problem(c.kind, c.system) is not None for c in entries], dtype=bool)
        new_day, new_code = day[lo : lo + rows.size], code[lo : lo + rows.size]
        bad = bad_code[new_code] | (new_day < self.enroll_start[rows]) | (new_day > self.enroll_end[rows])
        if bad.any():
            i = int(np.argmax(bad))
            person, c = self.persons_by_id[self.ids[rows[i]]], entries[new_code[i]]
            problem = _kind_problem(c.kind, c.system) or _enrollment_problem(
                person, datetime.date.fromordinal(int(new_day[i]))
            )
            raise DataError(f"person {person.person_id!r}: {problem}")
        self.offsets, self.day, self.code, self.codes = offsets, day, code, codes
        self._key: np.ndarray | None = None
        self._dx_key: np.ndarray | None = None
        self._per_code: dict[tuple[Callable, int], tuple[object, np.ndarray]] = {}

    @classmethod
    def from_events(
        cls, persons: list[Person], events: Iterable[ClinicalEvent], source: str
    ) -> "Dataset":
        """Dataset from event objects; kinds are stored upper case."""
        pos = {p.person_id: i for i, p in enumerate(persons)}
        codes = CodeTable()
        columns: list[tuple[int, int, int]] = []
        for e in events:
            i = pos.get(e.person_id)
            if i is None:
                raise DataError(f"events reference unknown person_id {e.person_id!r}")
            columns.append((i, e.date.toordinal(), codes.id(Code(e.kind.upper(), e.system, e.code))))
        person_pos, day, code = np.array(columns, dtype=np.int64).reshape(-1, 3).T
        return cls(persons, source, person_pos, day, code, codes)

    @classmethod
    def from_files(cls, persons_path: str, events_path: str) -> "Dataset":
        persons = load_persons(persons_path)
        if not persons:
            raise DataError(f"{persons_path}: no persons")
        sources = {p.source for p in persons}
        if len(sources) > 1:
            raise DataError(f"{persons_path}: mixed sources {sorted(sources)}")
        return load_events(events_path, persons, sources.pop())

    @property
    def n_events(self) -> int:
        return len(self.day)

    def _row_events(self, row: int, lo: int, hi: int) -> list[ClinicalEvent]:
        """Row views of positions lo:hi, all belonging to `row`."""
        pid = self.ids[row]
        entries = self.codes.entries
        from_ordinal = datetime.date.fromordinal
        return [
            ClinicalEvent(pid, from_ordinal(day), *entries[c])
            for day, c in zip(self.day[lo:hi].tolist(), self.code[lo:hi].tolist())
        ]

    @property
    def events(self) -> list[ClinicalEvent]:
        """Flat event list ordered by (person_id, date), built on demand."""
        return [e for pid in self.ids for e in self.events_for(pid)]

    def events_for(self, person_id: str) -> list[ClinicalEvent]:
        row = self.row_of.get(person_id)
        if row is None:
            return []
        return self._row_events(row, int(self.offsets[row]), int(self.offsets[row + 1]))

    @property
    def key(self) -> np.ndarray:
        """Per-event row * DAY_SPAN + date ordinal: sorted, so date bounds
        for any person are one searchsorted away."""
        if self._key is None:
            rows = np.arange(len(self.ids), dtype=np.int64) * DAY_SPAN
            self._key = np.repeat(rows, np.diff(self.offsets)) + self.day
        return self._key

    def window_events(
        self, rows: np.ndarray, start: np.ndarray, end: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the events of each row dated within [start, end]
        (date ordinals, inclusive both ends), window after window in date
        order, and the index of the window owning each position."""
        base = np.asarray(rows, dtype=np.int64) * DAY_SPAN
        lo = np.searchsorted(self.key, base + start, side="left")
        counts = np.searchsorted(self.key, base + end, side="right") - lo
        owner = np.repeat(np.arange(lo.size), counts)
        # window i fills output slots from its cumsum start, positions up from its lo
        return np.arange(owner.size) + (lo - np.cumsum(counts) + counts)[owner], owner

    def events_in_window(
        self, person_id: str, start: datetime.date, end: datetime.date
    ) -> list[ClinicalEvent]:
        """Events dated within [start, end], inclusive both ends."""
        row = self.row_of.get(person_id)
        if row is None:
            return []
        pos, _ = self.window_events(np.array([row]), start.toordinal(), end.toordinal())
        return self._row_events(row, int(pos[0]), int(pos[-1]) + 1) if pos.size else []

    def dx_counts_before(self, rows: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        """Raw DX event count of each row strictly before its cutoff ordinal."""
        if self._dx_key is None:
            is_dx = np.array([c.kind == "DX" for c in self.codes.entries], dtype=bool)
            self._dx_key = self.key[is_dx[self.code]]
        base = np.asarray(rows, dtype=np.int64) * DAY_SPAN
        return np.searchsorted(self._dx_key, base + cutoff) - np.searchsorted(self._dx_key, base)

    def first_events(self, code_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, position) of each person's first event whose code id is
        set in `code_mask`; persons without one are absent. Rows ascend."""
        hits = np.flatnonzero(code_mask[self.code])
        rows = np.searchsorted(self.offsets, hits, side="right") - 1
        first = np.ones(hits.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        return rows[first], hits[first]

    def per_code(
        self, build: Callable[[object, list[Code]], np.ndarray], owner: object
    ) -> np.ndarray:
        """`build(owner, codes)` over this dataset's code table, computed
        once per owner: a phecode map's tag bits, a vocabulary's indices."""
        slot = (build, id(owner))
        hit = self._per_code.get(slot)
        if hit is None:
            # holding `owner` keeps its id from being reused while cached
            hit = self._per_code[slot] = (owner, build(owner, self.codes.entries))
        return hit[1]

    def replace_person_events(self, person_id: str, events: list[ClinicalEvent]) -> "Dataset":
        """Derived dataset with one person's events swapped out.

        Shares person records with the parent and checks only the new
        events; new codes extend a copied code table. Used for mutation
        checks.
        """
        row = self.row_of.get(person_id)
        if row is None:
            raise DataError(f"unknown person_id {person_id!r}")
        codes = CodeTable(self.codes.entries)
        pairs: list[tuple[int, int]] = []
        for e in events:
            if e.person_id != person_id:
                raise DataError(f"event for {e.person_id!r} cannot replace the events of {person_id!r}")
            pairs.append((e.date.toordinal(), codes.id(Code(e.kind.upper(), e.system, e.code))))
        pairs.sort(key=lambda pair: pair[0])
        new_day, new_code = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        offsets = self.offsets.copy()
        offsets[row + 1 :] += len(pairs) - (hi - lo)
        clone = copy.copy(self)  # shares persons, ids, row_of and the enrollment arrays
        day = np.concatenate([self.day[:lo], new_day, self.day[hi:]])
        code = np.concatenate([self.code[:lo], new_code, self.code[hi:]])
        clone._set_events(offsets, day, code, codes, lo, np.full(len(pairs), row))
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.source == other.source
            and self.persons == other.persons
            and self.events == other.events
        )
