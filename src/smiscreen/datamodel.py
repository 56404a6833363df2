"""Core clinical record types, the columnar event store, and CSV ingestion.

Input universe is two tables: persons (demographics plus an explicit
enrollment span bounding what is observable for that person) and dated
clinical events (diagnoses and medication fills). Events outside a person's
enrollment are hard errors rather than silent drops, since downstream
matching counts would be corrupted by quiet data loss.

Events are held as columns, never as one object per event. An
`EventTable` keeps int arrays of date ordinals and code ids, sorted by
(person_id, date) with ties in input order, plus per-person offsets into
them; a code id names one distinct (kind, system, code) triple of a
`CodeTable`. Cohort scans, benchmarks and featurization are slices and
per-code mask tests over a person's event range. `ClinicalEvent` is only a
row view: built on demand by `events_for`, `events_in_window` and `events`,
and accepted from callers that assemble small datasets by hand.

File formats (UTF-8, comma separated, LF or CRLF line ends, no quoting):
  persons.csv: person_id,birth_year,gender,enroll_start,enroll_end,source
  events.csv:  person_id,date,kind,system,code
dates are ISO YYYY-MM-DD; kind is written lowercase (dx/rx) on disk.
events.csv is parsed in fixed-size blocks. A load error names path:line of
the first offending physical line in file order, whichever check it
fails; blank lines are skipped but still counted. A `"` anywhere in a data
line is an error, as are a carriage return not ending a line and invalid
UTF-8.
"""

from __future__ import annotations

import csv
import datetime
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError

GENDERS = frozenset({"F", "M", "U"})
SOURCES = frozenset({"CLAIMS", "EHR"})
EVENT_KINDS = frozenset({"DX", "RX"})

# kind=DX carries an ICD code, kind=RX an NDC fill
SYSTEMS_FOR_KIND = {"DX": frozenset({"ICD9", "ICD10"}), "RX": frozenset({"NDC"})}

PERSONS_HEADER = ["person_id", "birth_year", "gender", "enroll_start", "enroll_end", "source"]
EVENTS_HEADER = ["person_id", "date", "kind", "system", "code"]

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


@dataclass
class ValidationReport:
    n_persons: int
    n_events: int
    n_events_by_kind: dict[str, int]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _parse_date(text: str, where: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: unparseable date {text!r}") from exc


def load_persons(path: str) -> list[Person]:
    """Parse persons.csv, rejecting malformed rows and duplicate ids."""
    persons: list[Person] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PERSONS_HEADER:
            raise DataError(f"{path}: expected header {','.join(PERSONS_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
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
            if gender not in GENDERS:
                raise DataError(f"{where}: unknown gender token {gender!r}")
            if source not in SOURCES:
                raise DataError(f"{where}: unknown source token {source!r}")
            start = _parse_date(start_raw, where)
            end = _parse_date(end_raw, where)
            if start > end:
                raise DataError(f"{where}: enroll_start {start} after enroll_end {end}")
            if birth_year > end.year:
                raise DataError(f"{where}: birth_year {birth_year} after enrollment end {end}")
            persons.append(Person(sys.intern(pid), birth_year, gender, start, end, source))
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
        """Convert event objects to columns; kinds and systems are kept as
        given, so `validate_dataset` can report bad ones."""
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
            ids.append(codes.id(Code(e.kind, e.system, e.code)))
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
            ((e.date.toordinal(), codes.id(Code(e.kind, e.system, e.code))) for e in events),
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
    pid, date_raw, kind_raw, system, _ = row
    person = by_id.get(pid)
    if person is None:
        return f"unknown person_id {pid!r}"
    kind = kind_raw.upper()
    if kind not in EVENT_KINDS:
        return f"unknown event kind {kind_raw!r}"
    if system not in SYSTEMS_FOR_KIND[kind]:
        return f"kind {kind_raw!r} inconsistent with system {system!r}"
    try:
        date = datetime.date.fromisoformat(date_raw)
    except ValueError:
        return f"unparseable date {date_raw!r}"
    if not person.enroll_start <= date <= person.enroll_end:
        return (
            f"event for {pid!r} dated {date} outside enrollment "
            f"[{person.enroll_start}, {person.enroll_end}]"
        )
    return None


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
        kind_raw, system, code = key
        kind = kind_raw.upper()
        if kind not in EVENT_KINDS or system not in SYSTEMS_FOR_KIND[kind]:
            return -1
        return self.codes.id(Code(kind, system, sys.intern(code)))

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
                [p.person_id, p.birth_year, p.gender,
                 p.enroll_start.isoformat(), p.enroll_end.isoformat(), p.source]
            )


def _plain(text: str) -> str:
    if any(ch in text for ch in _CSV_SPECIAL):
        raise DataError(f"cannot write {text!r} to events.csv, which has no quoting")
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
    to its row. Treat instances as frozen after construction: derived
    datasets come from `replace_person_events`.
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
            self.persons_by_id[p.person_id] = p
        if not isinstance(events, EventTable):
            events = EventTable.from_events(persons, events)
        elif events.ids != sorted(self.persons_by_id):
            raise DataError("event table was built for a different person table")
        self._set_table(events)

    def _set_table(self, table: EventTable) -> None:
        self.table = table
        self.row_of = {pid: row for row, pid in enumerate(table.ids)}
        by_row = [self.persons_by_id[pid] for pid in table.ids]
        self.enroll_start = np.array([p.enroll_start.toordinal() for p in by_row], dtype=np.int64)
        self.enroll_end = np.array([p.enroll_end.toordinal() for p in by_row], dtype=np.int64)
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

    def windows(
        self, rows: np.ndarray, start: np.ndarray, end: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Event position ranges [lo, hi) of each row's events dated within
        [start, end] (date ordinals, inclusive both ends)."""
        base = np.asarray(rows, dtype=np.int64) * DAY_SPAN
        lo = np.searchsorted(self.key, base + start, side="left")
        hi = np.searchsorted(self.key, base + end, side="right")
        return lo, hi

    def window(self, person_id: str, start: datetime.date, end: datetime.date) -> tuple[int, int]:
        """Position range of one person's events dated within [start, end]."""
        base = self.row_of[person_id] * DAY_SPAN
        lo = self.key.searchsorted(base + start.toordinal())
        hi = self.key.searchsorted(base + end.toordinal() + 1)
        return int(lo), int(hi)

    def events_in_window(
        self, person_id: str, start: datetime.date, end: datetime.date
    ) -> list[ClinicalEvent]:
        """Events dated within [start, end], inclusive both ends."""
        row = self.row_of.get(person_id)
        if row is None:
            return []
        return self.table.row_events(row, *self.window(person_id, start, end))

    def dx_counts_before(self, rows: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        """Raw DX event count of each row strictly before its cutoff ordinal."""
        if self._dx_key is None:
            is_dx = np.array([c.kind == "DX" for c in self.table.codes.entries], dtype=bool)
            self._dx_key = self.key[is_dx[self.table.code]]
        base = np.asarray(rows, dtype=np.int64) * DAY_SPAN
        return np.searchsorted(self._dx_key, base + cutoff) - np.searchsorted(self._dx_key, base)

    def dx_count_before(self, person_id: str, cutoff: datetime.date) -> int:
        """Raw DX event count strictly before `cutoff`."""
        rows = np.array([self.row_of[person_id]])
        return int(self.dx_counts_before(rows, np.array([cutoff.toordinal()]))[0])

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

        Shares person records with the parent; used for mutation checks.
        """
        row = self.row_of.get(person_id)
        if row is None:
            raise DataError(f"unknown person_id {person_id!r}")
        clone = object.__new__(Dataset)
        clone.persons = self.persons
        clone.source = self.source
        clone.persons_by_id = self.persons_by_id
        clone._set_table(self.table.replace_row(row, events))
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.source == other.source
            and self.persons == other.persons
            and self.events == other.events
        )


def _code_problem(c: Code) -> str | None:
    if c.kind not in EVENT_KINDS:
        return f"unknown event kind {c.kind!r}"
    if c.system not in SYSTEMS_FOR_KIND[c.kind]:
        return f"kind {c.kind} inconsistent with system {c.system}"
    return None


def validate_dataset(d: Dataset) -> ValidationReport:
    """Check every dataset invariant; violations are reported, not raised.

    Per-person date order and known person ids hold by construction of the
    event table, so only kinds, systems and enrollment bounds are checked
    per event.
    """
    violations: list[str] = []
    seen_ids: set[str] = set()
    for p in d.persons:
        if p.person_id in seen_ids:
            violations.append(f"duplicate person_id {p.person_id!r}")
        seen_ids.add(p.person_id)
        if p.enroll_start > p.enroll_end:
            violations.append(f"{p.person_id}: enroll_start after enroll_end")
        if p.birth_year > p.enroll_end.year:
            violations.append(f"{p.person_id}: birth_year {p.birth_year} after enrollment end")
        if p.gender not in GENDERS:
            violations.append(f"{p.person_id}: unknown gender {p.gender!r}")
        if p.source != d.source:
            violations.append(f"{p.person_id}: source {p.source!r} != dataset source {d.source!r}")
    t = d.table
    entries = t.codes.entries
    code_problem = [_code_problem(c) for c in entries]
    bad_code = np.array([problem is not None for problem in code_problem], dtype=bool)
    counts = np.bincount(t.code, minlength=len(entries))
    kind_counts = {"DX": 0, "RX": 0}
    for c, n, problem in zip(entries, counts.tolist(), code_problem):
        if problem is None:
            kind_counts[c.kind] += n
    rows = np.repeat(np.arange(len(t.ids)), np.diff(t.offsets))
    outside = (t.day < d.enroll_start[rows]) | (t.day > d.enroll_end[rows])
    for i in np.flatnonzero(bad_code[t.code] | outside).tolist():
        pid = t.ids[rows[i]]
        problem = code_problem[t.code[i]]
        if problem is not None:
            violations.append(f"{pid}: {problem}")
        if outside[i]:
            date = datetime.date.fromordinal(int(t.day[i]))
            violations.append(f"{pid}: event dated {date} outside enrollment")
    return ValidationReport(
        n_persons=len(d.persons),
        n_events=len(t),
        n_events_by_kind=kind_counts,
        violations=violations,
    )
