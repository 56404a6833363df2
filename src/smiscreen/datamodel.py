"""Core clinical record types, the columnar event store, and CSV ingestion.

Input universe is two tables: persons (demographics plus an explicit
enrollment span bounding what is observable for that person) and dated
clinical events (diagnoses and medication fills). Events outside a person's
enrollment are hard errors rather than silent drops, since downstream
matching counts would be corrupted by quiet data loss.

A `Dataset` checks its invariants when it is built, and there is no
separate validation pass. Each rule has one predicate, which the CSV
loaders call too, so a file and an in-memory dataset are refused with the
same text, after `path:line` or after the person id:
  _person_problem      birth year in BIRTH_YEARS, gender, source,
                       enroll_start <= enroll_end, birth year <= end year
  _kind_problem        known kind (any case) with a system allowed for it
  _enrollment_problem  event date within the person's enrollment
`load_persons` and `Dataset` refuse a repeated person id; `Dataset` also
refuses a person whose source is not the dataset's.

Events are held as columns, never as one object per event. An
`EventTable` keeps int arrays of date ordinals and code ids, sorted by
(person_id, date) with ties in input order, plus per-person offsets into
them; a code id names one distinct (kind, system, code) triple of a
`CodeTable`. The vocabulary, features, benchmarks and the AGE18 coverage
test each scan a whole split at once: one `window_events` gather of the
positions inside its windows, then per-code mask tests. `ClinicalEvent`
is only a row view: built on demand by `events_for`, `events_in_window`
and `events`, and accepted from callers that assemble small datasets by
hand.

File formats (UTF-8, comma separated, LF or CRLF line ends, no quoting):
  persons.csv: person_id,birth_year,gender,enroll_start,enroll_end,source
  events.csv:  person_id,date,kind,system,code
dates are ISO YYYY-MM-DD; kind is written lowercase (dx/rx) on disk.
events.csv is parsed in fixed-size blocks. A load error names path:line of
the first offending physical line in file order, whichever check it
fails; blank lines are skipped but still counted. A `"` anywhere in a data
line of either file is an error; so are, in events.csv, a carriage return
not ending a line and invalid UTF-8.
"""

from __future__ import annotations

import copy
import csv
import datetime
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    """One distinct (kind, system, code) of an event table."""

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


def _parse_date(text: str, where: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: unparseable date {text!r}") from exc


def _persons_rows(lines: Iterable[str], path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each persons.csv line; a `"` is an error."""
    for lineno, line in enumerate(lines, start=1):
        text = line.rstrip("\r\n")
        if '"' in text:
            raise DataError(f"{path}:{lineno}: quoted field; persons.csv does not support quoting")
        yield lineno, text.split(",") if text else []


def load_persons(path: str) -> list[Person]:
    """Parse persons.csv, rejecting malformed rows and duplicate ids."""
    persons: list[Person] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _persons_rows(fh, path)
        _, header = next(rows, (1, None))
        if header != PERSONS_HEADER:
            raise DataError(f"{path}: expected header {','.join(PERSONS_HEADER)}, got {header}")
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 columns, got {len(row)}")
            pid, birth_raw, gender, start_raw, end_raw, source = row
            where = f"{path}:{lineno}"
            if pid in seen:
                raise DataError(f"{where}: duplicate person_id {pid!r}")
            seen.add(pid)
            try:
                birth_year = int(birth_raw)
            except ValueError as exc:
                raise DataError(f"{where}: unparseable birth_year {birth_raw!r}") from exc
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


def _person_ranks(persons: list[Person]) -> tuple[list[str], np.ndarray]:
    """Sorted person ids, and each list position's rank among them."""
    order = sorted(range(len(persons)), key=lambda i: persons[i].person_id)
    rank = np.empty(len(persons), dtype=np.int64)
    rank[order] = np.arange(len(persons))
    return [persons[i].person_id for i in order], rank


class EventTable(Sequence):
    """Events as columns, sorted by (person_id, date); ties keep input order.

    Row r is person `ids[r]` (ids sorted). Its events occupy positions
    offsets[r]:offsets[r + 1] of `day` (int32 date ordinals) and `code`
    (int32 ids into `codes`). Indexing or iterating yields `ClinicalEvent`
    row views, built on demand.
    """

    def __init__(
        self,
        ids: list[str],
        offsets: np.ndarray,
        day: np.ndarray,
        code: np.ndarray,
        codes: CodeTable,
    ):
        self.ids = ids
        self.offsets = offsets
        self.day = day
        self.code = code
        self.codes = codes

    @classmethod
    def build(
        cls,
        persons: list[Person],
        person_pos: np.ndarray,
        day: np.ndarray,
        code: np.ndarray,
        codes: CodeTable,
    ) -> "EventTable":
        """Table from unsorted columns; person_pos indexes `persons`."""
        ids, rank = _person_ranks(persons)
        rows = rank[person_pos]
        order = np.argsort(rows * DAY_SPAN + day, kind="stable")
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(ids)), out=offsets[1:])
        return cls(
            ids,
            offsets,
            np.asarray(day[order], dtype=np.int32),
            np.asarray(code[order], dtype=np.int32),
            codes,
        )

    @classmethod
    def from_events(cls, persons: list[Person], events: Iterable[ClinicalEvent]) -> "EventTable":
        """Convert event objects to columns; kinds are stored upper case."""
        pos = {p.person_id: i for i, p in enumerate(persons)}
        codes = CodeTable()
        person_pos: list[int] = []
        days: list[int] = []
        ids: list[int] = []
        for e in events:
            i = pos.get(e.person_id)
            if i is None:
                raise DataError(f"events reference unknown person_id {e.person_id!r}")
            person_pos.append(i)
            days.append(e.date.toordinal())
            ids.append(codes.id(Code(e.kind.upper(), e.system, e.code)))
        return cls.build(
            persons,
            np.array(person_pos, dtype=np.int64),
            np.array(days, dtype=np.int64),
            np.array(ids, dtype=np.int64),
            codes,
        )

    def __len__(self) -> int:
        return len(self.day)

    def __getitem__(self, i: int) -> ClinicalEvent:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("event index out of range")
        row = int(np.searchsorted(self.offsets, i, side="right")) - 1
        return self.row_events(row, i, i + 1)[0]

    def __iter__(self) -> Iterator[ClinicalEvent]:
        for row in range(len(self.ids)):
            yield from self.row_events(row, int(self.offsets[row]), int(self.offsets[row + 1]))

    def row_events(self, row: int, lo: int, hi: int) -> list[ClinicalEvent]:
        """Row views of positions lo:hi, all belonging to `row`."""
        pid = self.ids[row]
        entries = self.codes.entries
        from_ordinal = datetime.date.fromordinal
        return [
            ClinicalEvent(pid, from_ordinal(day), *entries[c])
            for day, c in zip(self.day[lo:hi].tolist(), self.code[lo:hi].tolist())
        ]

    def replace_row(self, row: int, events: Iterable[ClinicalEvent]) -> "EventTable":
        """Copy with one row's events swapped; new codes extend a copied code table."""
        codes = CodeTable(self.codes.entries)
        pairs = sorted(
            ((e.date.toordinal(), codes.id(Code(e.kind.upper(), e.system, e.code))) for e in events),
            key=lambda pair: pair[0],
        )
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        new_day = np.array([day for day, _ in pairs], dtype=np.int32)
        new_code = np.array([c for _, c in pairs], dtype=np.int32)
        offsets = self.offsets.copy()
        offsets[row + 1 :] += len(pairs) - (hi - lo)
        return EventTable(
            self.ids,
            offsets,
            np.concatenate([self.day[:lo], new_day, self.day[hi:]]),
            np.concatenate([self.code[:lo], new_code, self.code[hi:]]),
            codes,
        )


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
    if '"' in line:
        return "quoted field; events.csv does not support quoting"
    if "\r" in line:
        return "carriage return inside a line"
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
    try:
        date = datetime.date.fromisoformat(date_raw)
    except ValueError:
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

    def _code_id(self, key: tuple[str, str, str]) -> int:
        kind, system, code = key
        if _kind_problem(kind, system):
            return -1
        return self.codes.id(Code(kind.upper(), system, sys.intern(code)))

    @staticmethod
    def _ordinal(text: str) -> int:
        try:
            return datetime.date.fromisoformat(text).toordinal()
        except ValueError:
            return -1

    def fail(self, lineno: int, line: str | bytes) -> None:
        where = f"{self.path}:{lineno}"
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{where}: invalid UTF-8") from None
        raise DataError(f"{where}: {_row_problem(line, self.by_id)}")

    def block(self, raw: bytes, first_line: int) -> int:
        """Parse whole lines (`raw` ends with a newline) numbered from
        `first_line`; return the number of the line after them."""
        a = np.frombuffer(raw, dtype=np.uint8)
        ends = np.flatnonzero(a == 10)
        n = ends.size
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        content_end = ends - ((ends > starts) & (a[ends - 1] == 13))
        blank = content_end == starts
        commas = np.diff(np.searchsorted(np.flatnonzero(a == 44), ends), prepend=0)
        bad = ~blank & (commas != 4)
        if b'"' in raw:
            bad[np.searchsorted(ends, np.flatnonzero(a == 34))] = True
        cr = np.flatnonzero(a == 13)
        lone_cr = cr[a[cr + 1] != 10]  # raw ends with a newline, so cr + 1 is in range
        bad[np.searchsorted(ends, lone_cr)] = True
        stop = int(np.argmax(bad)) if bad.any() else n
        head = raw[: int(starts[stop])] if stop < n else raw
        try:
            text = head.decode("utf-8")
        except UnicodeDecodeError as exc:
            stop = int(np.searchsorted(ends, exc.start))
            text = raw[: int(starts[stop])].decode("utf-8")
        lines = text.replace("\r\n", "\n").split("\n")
        lines.pop()
        keep = np.flatnonzero(~blank[:stop])
        if keep.size < len(lines):
            lines = [lines[i] for i in keep.tolist()]
        if lines:
            self._columns(lines, keep, first_line)
        if stop < n:
            self.fail(first_line + stop, raw[int(starts[stop]) : int(content_end[stop])])
        return first_line + n

    def _columns(self, lines: list[str], line_index: np.ndarray, first_line: int) -> None:
        m = len(lines)
        fields = ",".join(lines).split(",")
        pos = np.fromiter(map(self.pos.__getitem__, fields[0::5]), dtype=np.int64, count=m)
        day = np.fromiter(map(self.day_of.__getitem__, fields[1::5]), dtype=np.int64, count=m)
        code = np.fromiter(
            map(self.code_of.__getitem__, zip(fields[2::5], fields[3::5], fields[4::5])),
            dtype=np.int64,
            count=m,
        )
        bad = (pos < 0) | (code < 0) | (day < 0) | (day < self.start[pos]) | (day > self.end[pos])
        if bad.any():
            j = int(np.argmax(bad))
            self.fail(first_line + int(line_index[j]), lines[j])
        self.parts.append((pos, day, code))

    def table(self) -> EventTable:
        if self.parts:
            pos, day, code = (np.concatenate(cols) for cols in zip(*self.parts))
        else:
            pos = day = code = np.zeros(0, dtype=np.int64)
        return EventTable.build(self.persons, pos, day, code, self.codes)


def _read_header(fh, path: str) -> list[str] | None:
    raw = fh.readline()
    if not raw:
        return None
    try:
        line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError:
        raise DataError(f"{path}:1: invalid UTF-8") from None
    return line.split(",") if line else []


def load_events(path: str, persons: list[Person]) -> EventTable:
    """Parse events.csv against an already-loaded person table.

    Returns the events sorted by (person_id, date); ties keep file order.
    """
    parser = _EventParser(path, persons)
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        if header != EVENTS_HEADER:
            raise DataError(f"{path}: expected header {','.join(EVENTS_HEADER)}, got {header}")
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
    return parser.table()


def write_persons(persons: list[Person], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PERSONS_HEADER)
        for p in persons:
            writer.writerow(
                [_plain(p.person_id, "persons.csv"), p.birth_year, p.gender,
                 p.enroll_start.isoformat(), p.enroll_end.isoformat(), p.source]
            )


def _plain(text: str, name: str = "events.csv") -> str:
    if any(ch in text for ch in _CSV_SPECIAL):
        raise DataError(f"cannot write {text!r} to {name}, which has no quoting")
    return text


def write_events(d: "Dataset", path: str) -> None:
    """events.csv from the columns, CRLF line ends, ordered like `d.events`."""
    t = d.table
    suffix = [
        f"{_plain(c.kind.lower())},{_plain(c.system)},{_plain(c.code)}" for c in t.codes.entries
    ]
    days, day_index = np.unique(t.day, return_inverse=True)
    date_text = [datetime.date.fromordinal(day).isoformat() for day in days.tolist()]
    day_index = day_index.tolist()
    code = t.code.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\r\n")
        for row, pid in enumerate(t.ids):
            lo, hi = int(t.offsets[row]), int(t.offsets[row + 1])
            if lo == hi:
                continue
            head = _plain(pid) + ","
            fh.write(
                "".join(
                    f"{head}{date_text[day_index[i]]},{suffix[code[i]]}\r\n" for i in range(lo, hi)
                )
            )


class Dataset:
    """Immutable person table plus its columnar events.

    `table` holds every event (see `EventTable`); `row_of` maps a person id
    to its row. Construction refuses, with a `DataError` naming the person,
    any record that breaks an invariant listed in the module docstring.
    Treat instances as frozen after construction: derived datasets come
    from `replace_person_events`, which checks its new events the same way.
    """

    def __init__(
        self, persons: list[Person], events: EventTable | Iterable[ClinicalEvent], source: str
    ):
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
        if not isinstance(events, EventTable):
            events = EventTable.from_events(persons, events)
        elif events.ids != sorted(self.persons_by_id):
            raise DataError("event table was built for a different person table")
        self.row_of = {pid: row for row, pid in enumerate(events.ids)}
        by_row = [self.persons_by_id[pid] for pid in events.ids]
        self.enroll_start = np.array([p.enroll_start.toordinal() for p in by_row], dtype=np.int64)
        self.enroll_end = np.array([p.enroll_end.toordinal() for p in by_row], dtype=np.int64)
        self._set_table(events, 0, np.repeat(np.arange(len(by_row)), np.diff(events.offsets)))

    def _set_table(self, table: EventTable, lo: int, rows: np.ndarray) -> None:
        """Adopt `table` after checking its events at positions lo, lo + 1,
        ..., which belong to `rows`; the other events were checked before."""
        entries = table.codes.entries
        bad_code = np.array([_kind_problem(c.kind, c.system) is not None for c in entries], dtype=bool)
        day, code = table.day[lo : lo + rows.size], table.code[lo : lo + rows.size]
        bad = bad_code[code] | (day < self.enroll_start[rows]) | (day > self.enroll_end[rows])
        if bad.any():
            i = int(np.argmax(bad))
            person, c = self.persons_by_id[table.ids[rows[i]]], entries[code[i]]
            problem = _kind_problem(c.kind, c.system) or _enrollment_problem(
                person, datetime.date.fromordinal(int(day[i]))
            )
            raise DataError(f"person {person.person_id!r}: {problem}")
        self.table = table
        self._key: np.ndarray | None = None
        self._dx_key: np.ndarray | None = None
        self._per_code: dict[tuple[Callable, int], tuple[object, np.ndarray]] = {}

    @classmethod
    def from_files(cls, persons_path: str, events_path: str) -> "Dataset":
        persons = load_persons(persons_path)
        if not persons:
            raise DataError(f"{persons_path}: no persons")
        sources = {p.source for p in persons}
        if len(sources) > 1:
            raise DataError(f"{persons_path}: mixed sources {sorted(sources)}")
        events = load_events(events_path, persons)
        return cls(persons, events, sources.pop())

    @property
    def n_events(self) -> int:
        return len(self.table)

    @property
    def events(self) -> list[ClinicalEvent]:
        """Flat event list ordered by (person_id, date), built on demand."""
        return list(self.table)

    def events_for(self, person_id: str) -> list[ClinicalEvent]:
        row = self.row_of.get(person_id)
        if row is None:
            return []
        offsets = self.table.offsets
        return self.table.row_events(row, int(offsets[row]), int(offsets[row + 1]))

    @property
    def key(self) -> np.ndarray:
        """Per-event row * DAY_SPAN + date ordinal: sorted, so date bounds
        for any person are one searchsorted away."""
        if self._key is None:
            t = self.table
            rows = np.arange(len(t.ids), dtype=np.int64) * DAY_SPAN
            self._key = np.repeat(rows, np.diff(t.offsets)) + t.day
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
        return self.table.row_events(row, int(pos[0]), int(pos[-1]) + 1) if pos.size else []

    def dx_counts_before(self, rows: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        """Raw DX event count of each row strictly before its cutoff ordinal."""
        if self._dx_key is None:
            is_dx = np.array([c.kind == "DX" for c in self.table.codes.entries], dtype=bool)
            self._dx_key = self.key[is_dx[self.table.code]]
        base = np.asarray(rows, dtype=np.int64) * DAY_SPAN
        return np.searchsorted(self._dx_key, base + cutoff) - np.searchsorted(self._dx_key, base)

    def first_events(self, code_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, position) of each person's first event whose code id is
        set in `code_mask`; persons without one are absent. Rows ascend."""
        hits = np.flatnonzero(code_mask[self.table.code])
        rows = np.searchsorted(self.table.offsets, hits, side="right") - 1
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
            hit = self._per_code[slot] = (owner, build(owner, self.table.codes.entries))
        return hit[1]

    def replace_person_events(self, person_id: str, events: list[ClinicalEvent]) -> "Dataset":
        """Derived dataset with one person's events swapped out.

        Shares person records with the parent and checks only the new
        events; used for mutation checks.
        """
        row = self.row_of.get(person_id)
        if row is None:
            raise DataError(f"unknown person_id {person_id!r}")
        clone = copy.copy(self)  # shares persons, row_of and the enrollment arrays
        table = self.table.replace_row(row, events)
        lo, hi = int(table.offsets[row]), int(table.offsets[row + 1])
        clone._set_table(table, lo, np.full(hi - lo, row))
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.source == other.source
            and self.persons == other.persons
            and self.events == other.events
        )
