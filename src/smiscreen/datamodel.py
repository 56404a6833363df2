"""Core clinical record types, the columnar event store, and CSV ingestion.

Input universe is two tables: persons (demographics plus an explicit
enrollment span bounding what is observable for that person) and dated
clinical events (diagnoses and medication fills). Events outside a person's
enrollment are hard errors rather than silent drops, since downstream
matching counts would be corrupted by quiet data loss.

A `Dataset` is the one event store, and it is built one way: from
`Persons` columns plus unsorted event columns (each event's person
position, date ordinal and code id). `Dataset.from_events`, `load_events`
and `synth.generate_population` each produce those columns and call that
constructor. Each input rule is written once, as a mask over columns and
a message, in one of two ordered tables, so a file line and a hand-built
record are refused with the same text, after `path:line` or the person
id; a row that breaks several rules takes the first one's text:
  _PERSON_RULES  readable birth_year, then dates; birth year in BIRTH_YEARS,
                 gender, source, enroll_start <= enroll_end, birth year <=
                 end year (`load_persons` first refuses a repeated id)
  _EVENT_RULES   known person, kind and system (`_kind_problem`), readable
                 date, date within the person's enrollment
Each rule is checked once, where the data comes in (synth builds from a
validated config): by `load_persons` and `load_events` per block, by
`Persons.of`, `from_events` and `replace_person_events` over the columns of
their views. The constructor refuses only a repeated person id and a person
whose source is not the dataset's.

Persons and events are held as columns, never as one object per record.
`Persons` holds ids, birth years, genders, enrollment ordinals and sources
in input order. A `Dataset` keeps int arrays of date ordinals and code
ids, sorted by (person_id, date) with ties in input order, plus per-person
offsets into them; a code id names one distinct (kind, system, code)
triple of a `CodeTable`. The cohort builders read each person's
enrollment, birth year and gender from arrays by row too. The vocabulary,
features, benchmarks and the AGE18 coverage test each scan many windows
at once: one `window_events` gather of the positions inside them, then
per-code mask tests. `Person` and `ClinicalEvent` are only row views,
built on demand, and accepted by `Persons.of` and `from_events` from
callers that assemble small datasets by hand.

Every plain table (persons.csv, events.csv, phecode_map.csv,
ground_truth.csv, cohort.csv, report.csv) has one dialect: UTF-8, comma
separated, a fixed header line, LF or CRLF line ends (CRLF when written),
no quoting. Two functions own it. `write_table` refuses a field that would
need quoting. events.csv keeps its own writer, `write_events`, which makes
the same check and builds WRITE_ROWS rows at a time as bytes, so its memory
does not grow with the file: the rows' person ids, dates and codes are
gathered from three padded byte tables (each person's id, each of the
block's distinct days as `,YYYY-MM-DD,`, each code's `kind,system,code`
and line end) side by side, and the padding is dropped. `_scan` checks
a file's header, then reads it in blocks of BLOCK_BYTES. Array scans find
a block's first line that is not blank and lacks exactly n - 1 commas (n
columns), or holds a `"`, a lone carriage return or invalid UTF-8. The
block gives the line numbers and field bounds of its non-blank lines
before it, and only then is the bad line a DataError naming path:line.
Each loader checks its own rows block by block, so a load error names the
first offending line in file order, whichever check it fails:
  persons.csv: person_id,birth_year,gender,enroll_start,enroll_end,source
  events.csv:  person_id,date,kind,system,code
dates are exactly YYYY-MM-DD (ASCII digits; the basic 20100101 and week
2010-W01-1 forms are refused); kind is written lowercase (dx/rx) on disk.
`read_table` decodes every field (phecode_map.csv). persons.csv and
events.csv are mapped from the block's bytes instead: dates by array
arithmetic on their ten bytes, and every other field through an exact
interner whose distinct values go through lookups or memos in first-seen
order, once per block.
"""

from __future__ import annotations

import copy
import datetime
import functools
import re
import sys
from collections.abc import Callable, Container, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from typing import Any, NamedTuple

import numpy as np

from .dates import civil_from_days, days_from_civil, iso_text
from .errors import DataError

GENDERS = ("F", "M", "U")  # gender columns hold positions in this tuple
SOURCES = ("CLAIMS", "EHR")  # and source columns positions in this one

# The event kinds: kind=DX carries an ICD code, kind=RX an NDC fill
SYSTEMS_FOR_KIND = {"DX": frozenset({"ICD9", "ICD10"}), "RX": frozenset({"NDC"})}

PERSONS_HEADER = ["person_id", "birth_year", "gender", "enroll_start", "enroll_end", "source"]
EVENTS_HEADER = ["person_id", "date", "kind", "system", "code"]

# The AGE18 cohort dates Jan 1 of birth_year + 17 through birth_year + 19.
BIRTH_YEARS = (datetime.MINYEAR - 17, datetime.MAXYEAR - 19)

BLOCK_BYTES = 1 << 20  # every plain table is read and parsed this many bytes at a time
WRITE_ROWS = 1 << 16  # events.csv is built and written this many rows at a time

# Exceeds every date ordinal (9999-12-31 is 3,652,059), so the per-event
# key row * DAY_SPAN + ordinal sorts by (person row, date).
DAY_SPAN = 1 << 22

_CSV_SPECIAL = re.compile('[,"\r\n]')


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


@dataclass(frozen=True, eq=False)
class Persons:
    """Persons as columns, an entry per person in input order: id, birth
    year, gender (a position in GENDERS), first and last day of enrollment
    (date ordinals) and source (a position in SOURCES). An int index (so
    iteration) gives `Person` views; an index array gives the persons at
    those positions. `load_persons` and `of` check what they build; the
    constructor takes columns as they are."""

    ids: list[str]
    birth_year: np.ndarray
    gender: np.ndarray
    enroll_start: np.ndarray
    enroll_end: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i) -> "Person | Persons":
        if isinstance(i, np.ndarray):
            return Persons([self.ids[j] for j in i.tolist()], *(col[i] for col in self._columns()))
        day = datetime.date.fromordinal
        return Person(
            self.ids[i], int(self.birth_year[i]), GENDERS[self.gender[i]],
            day(int(self.enroll_start[i])), day(int(self.enroll_end[i])), SOURCES[self.source[i]],
        )

    def __iter__(self) -> Iterator[Person]:
        day = datetime.date.fromordinal
        for pid, year, gender, start, end, source in zip(self.ids, *(col.tolist() for col in self._columns())):
            yield Person(pid, year, GENDERS[gender], day(start), day(end), SOURCES[source])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Persons):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(a, b) for a, b in zip(self._columns(), other._columns())
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.birth_year, self.gender, self.enroll_start, self.enroll_end, self.source

    @classmethod
    def of(cls, persons: Iterable[Person]) -> "Persons":
        """The columns of `Person` views; the first view that a rule of
        `_PERSON_RULES` refuses is a DataError naming its id."""
        persons = list(persons)
        low, high = BIRTH_YEARS  # a year outside them is held as high + 1, which fits int64
        rows = [(p.birth_year if low <= p.birth_year <= high else high + 1, _GENDER_AT.get(p.gender, -1),
                 p.enroll_start.toordinal(), p.enroll_end.toordinal(), _SOURCE_AT.get(p.source, -1)) for p in persons]
        out = cls([p.person_id for p in persons], *np.array(rows, dtype=np.int64).reshape(-1, 5).T)
        _refuse(_PERSON_RULES, out, lambda i: asdict(persons[i]), lambda i: f"person {persons[i].person_id!r}: ")
        return out


_GENDER_AT = {g: i for i, g in enumerate(GENDERS)}
_SOURCE_AT = {s: i for i, s in enumerate(SOURCES)}
_NO_YEAR = 1 << 40  # the birth_year column of a text that `_YEAR` refuses


# The rules of persons.csv rows and `Person` views (see `_refuse`), in the
# order that words a row breaking several, over `Persons` columns: a
# birth_year text that `_YEAR` refuses reads as _NO_YEAR, a date text that
# `_iso_days` refuses as -1, an unknown gender or source as -1.
# `load_persons` puts _REPEATED_ID first; `Persons.of` leaves repeated ids
# to the `Dataset` constructor.
_PERSON_RULES = (
    (lambda p: p.birth_year == _NO_YEAR, "unparseable birth_year {birth_year!r}"),
    (lambda p: p.enroll_start < 0, "unparseable date {enroll_start!r}"),
    (lambda p: p.enroll_end < 0, "unparseable date {enroll_end!r}"),
    (
        lambda p: (p.birth_year < BIRTH_YEARS[0]) | (p.birth_year > BIRTH_YEARS[1]),
        f"birth_year {{birth_year}} outside {BIRTH_YEARS[0]}..{BIRTH_YEARS[1]}",
    ),
    (lambda p: p.gender < 0, "unknown gender token {gender!r}"),
    (lambda p: p.source < 0, "unknown source token {source!r}"),
    (lambda p: p.enroll_start > p.enroll_end, "enroll_start {enroll_start} after enroll_end {enroll_end}"),
    (
        lambda p: p.birth_year > civil_from_days(p.enroll_end)[0],
        "birth_year {birth_year} after enrollment end {enroll_end}",
    ),
)


def _repeated(p: Persons, seen: Container[str] = frozenset()) -> np.ndarray:
    """Whether each id of `p` is in `seen` or equals an earlier one of `p`."""
    first: dict[str, int] = {}
    return np.array([pid in seen or first.setdefault(pid, i) != i for i, pid in enumerate(p.ids)], dtype=bool)


# The repeated-id rule over `Persons` columns (see `_refuse`), which names
# the first repeat in input order; `load_persons` binds `seen` to the ids of
# its earlier blocks
_REPEATED_ID = (_repeated, "duplicate person_id {person_id!r}")


# Event columns: each event's position in `persons`, date ordinal and code id
_Events = NamedTuple("_Events", [("persons", Persons), ("pos", np.ndarray), ("day", np.ndarray), ("code", np.ndarray)])


def _outside(e: _Events) -> np.ndarray:
    """Whether each event is dated outside its person's enrollment."""
    if not len(e.persons):  # every position is -1, which the first rule refuses
        return np.zeros(e.pos.shape, dtype=bool)
    return (e.day < e.persons.enroll_start[e.pos]) | (e.day > e.persons.enroll_end[e.pos])


# The rules of events.csv rows and `ClinicalEvent` views (see `_refuse`), in
# the order that words a row breaking several, over `_Events` columns: an
# unknown id, a date text that `_iso_days` refuses and a code that
# `CodeTable.id` refuses read as -1
_EVENT_RULES = (
    (lambda e: e.pos < 0, "unknown person_id {person_id!r}"),
    (lambda e: e.code < 0, lambda e, i, row: _kind_problem(row["kind"], row["system"])),
    (lambda e: e.day < 0, "unparseable date {date!r}"),
    (_outside, lambda e, i, row: (  # filled from the row and its person
        "event for {person_id!r} dated {date} outside enrollment [{enroll_start}, {enroll_end}]"
    ).format_map({**asdict(e.persons[int(e.pos[i])]), **row})),
)


def _refuse(rules: Sequence[tuple], columns: Any, row: Callable[[int], dict], prefix: Callable[[int], str]) -> None:
    """Raise a DataError for the first row that a rule refuses. A rule is a
    pair: refuses(columns), the mask of the rows it refuses, and its message
    for row i, a template or problem(columns, i, fields) filled from
    row(i), the row's fields by header name as it has them (a file's text,
    a view's values). The error is prefix(i), then the message of the first
    rule, in order, that refuses row i; no other row is worded."""
    bad = functools.reduce(np.logical_or, (refuses(columns) for refuses, _ in rules))
    if bad.any():
        i = int(np.argmax(bad))
        problem, fields = next(problem for refuses, problem in rules if refuses(columns)[i]), row(i)
        message = problem.format_map(fields) if isinstance(problem, str) else problem(columns, i, fields)
        raise DataError(prefix(i) + message)


def _kind_problem(kind: str, system: str) -> str | None:
    """Why an event's kind (as written, in any case) and system are refused,
    or None if they are accepted."""
    systems = SYSTEMS_FOR_KIND.get(kind.upper())
    if systems is None:
        return f"unknown event kind {kind!r}"
    if system not in systems:
        return f"kind {kind!r} inconsistent with system {system!r}"
    return None


# A birth_year is written as `str` writes it: 0, or an optional minus and 1-9
# ASCII digits without a leading zero. int() alone also takes "+1", "1_0",
# " 1", "01", "-0" and non-ASCII digits, and may refuse over 4,300 digits.
_YEAR = re.compile(r"0|-?[1-9][0-9]{0,8}")


def _line_problem(line: bytes, name: str, n: int) -> str:
    """Why a data line (without its line end) of the plain table `name`, of
    `n` columns, breaks the dialect."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return "invalid UTF-8"
    if '"' in text:
        return f"quoted field; {name} does not support quoting"
    if "\r" in text:
        return "carriage return inside a line"
    return f"expected {n} columns, got {text.count(',') + 1}"


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


# zero bytes after a block, so that the word and date reads of its last
# line stay inside it
_PAD = bytes(16)


class _Lines(NamedTuple):
    """The non-blank lines of one block of a plain table of n columns,
    before its first line that breaks the dialect: their line numbers and
    the bounds of their fields in `raw`, the block's bytes followed by
    _PAD. `cut` holds n + 1 arrays: the byte before each line, its n - 1
    commas and its content end (its CR or LF), so field j of line i is
    raw[cut[j][i] + 1 : cut[j + 1][i]]."""

    raw: bytes
    numbers: np.ndarray
    cut: list[np.ndarray]

    def fields(self, i: int, header: list[str]) -> dict[str, str]:
        """The fields of line i by their `header` names, as written."""
        return {name: self.raw[self.cut[j][i] + 1 : self.cut[j + 1][i]].decode("utf-8") for j, name in enumerate(header)}


def _scan(path: str, name: str, header: list[str]) -> Iterator[_Lines]:
    """The plain table `name` at `path` (see the module docstring), block
    by block, after checking its header. A block ends before its first line
    that breaks the dialect, and the DataError naming that line comes after
    the block."""
    with open(path, "rb") as fh:
        _check_header(path, _decode(path, fh.readline()), header)
        lineno, carry = 2, b""
        while chunk := fh.read(BLOCK_BYTES) or carry and b"\n":  # a last line without one gets a newline
            chunk = carry + chunk
            cut = chunk.rfind(b"\n") + 1
            raw, carry = chunk[:cut] + _PAD, chunk[cut:]
            del chunk  # hold each block's bytes once, and only while the caller maps it
            if cut:
                lines, problem, lineno = _block_lines(name, len(header), raw, lineno)
                yield lines
                if problem:
                    raise DataError(f"{path}:{problem}")
                del lines, raw


def _block_lines(name: str, n: int, raw: bytes, first_line: int) -> tuple[_Lines, str | None, int]:
    """The `_Lines` of whole lines (`raw` ends with a newline, then _PAD)
    numbered from `first_line`, "line: problem" of the line that ends them
    or None, and the number of the line after `raw`. A plain function, so
    its arrays are gone before the caller maps the block."""
    a = np.frombuffer(raw, dtype=np.uint8, count=len(raw) - len(_PAD))
    sep = np.flatnonzero((a == 44) | (a == 10))  # every comma and line end
    at_end = np.flatnonzero(a[sep] == 10)
    ends = sep[at_end]
    starts = np.concatenate(([0], ends + 1))  # starts[-1] is len(raw)
    content_end = ends - ((ends > starts[:-1]) & (a[ends - 1] == 13))
    blank = content_end == starts[:-1]
    commas = np.diff(at_end, prepend=-1) - 1  # on each line
    bad = ~blank & (commas != n - 1)
    if b'"' in raw:
        bad[np.searchsorted(ends, np.flatnonzero(a == 34))] = True
    if np.count_nonzero(a == 13) > np.count_nonzero(content_end < ends):  # a CR before no LF
        cr = np.flatnonzero(a == 13)
        bad[np.searchsorted(ends, cr[a[cr + 1] != 10])] = True  # raw ends with a newline
    stop = int(np.argmax(bad)) if bad.any() else ends.size
    if not raw.isascii():
        try:
            str(memoryview(raw)[: starts[stop]], "utf-8")
        except UnicodeDecodeError as exc:  # the line holding it is the first bad one
            stop = int(np.searchsorted(ends, exc.start))
    lines = np.flatnonzero(~blank[:stop])
    first = at_end[lines] - (n - 1)  # in `sep`, each line's first comma
    cut = [starts[lines] - 1, *(sep[first + j] for j in range(n - 1)), content_end[lines]]
    problem = None
    if stop < ends.size:
        problem = f"{first_line + stop}: {_line_problem(raw[starts[stop] : content_end[stop]], name, n)}"
    return _Lines(raw, first_line + lines, cut), problem, first_line + ends.size


def read_table(path: str, name: str, header: list[str]) -> Iterator[tuple]:
    """(line number, field 1, ..., field n) of each non-blank line of the
    plain table `name` of n columns at `path`, read block by block (see
    `_scan`), so a bad line raises after its block's good rows."""
    n = len(header)
    for lines in _scan(path, name, header):
        lo = np.stack(lines.cut[:-1], axis=1).ravel() + 1
        hi = np.stack(lines.cut[1:], axis=1).ravel()
        fields = _texts(lines.raw, lo, hi)
        yield from zip(lines.numbers.tolist(), *(fields[j::n] for j in range(n)))


def _texts(raw: bytes, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """raw[lo[i]:hi[i]] of each i, decoded (`_scan` checked the UTF-8)."""
    return [raw[i:j].decode("utf-8") for i, j in zip(lo.tolist(), hi.tolist())]


# _MASKS[k] keeps the first k bytes of a little-endian word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # an odd multiplier; a product's top bits mix all of a word
# The interner hashes into 2**_SLOT_BITS slots; uint16 slots make their
# stable argsort a radix sort.
_SLOT_BITS = 16


def _words(raw: bytes) -> np.ndarray:
    """The little-endian 8-byte word starting at each byte of `raw`: an
    unaligned view, so one gather reads a field's next eight bytes."""
    return np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))


def _cover(words: np.ndarray, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last eight bytes of each field (start `lo`, `width`
    bytes) as words; a field under eight bytes gives its bytes, zero-filled,
    twice. With the width they hold every byte of a field of up to 16."""
    keep = _MASKS[np.minimum(width, 8)]
    return words[lo] & keep, words[lo + np.maximum(width - 8, 0)] & keep


def _same(words: np.ndarray, lo: np.ndarray, width: np.ndarray, cover: tuple, i, j) -> np.ndarray:
    """Whether field i equals field j byte for byte, for each pair of the
    indices (or slices) i and j: fields start at `lo`, are `width` bytes
    long and `cover` is their `_cover`. The bytes between a long field's
    first and last eight are compared a word at a time."""
    lo_i, lo_j, width_i = lo[i], lo[j], width[i]
    same = (width_i == width[j]) & (cover[0][i] == cover[0][j]) & (cover[1][i] == cover[1][j])
    live = np.flatnonzero(same & (width_i > 16))
    at = 8
    while live.size:
        equal = words[lo_i[live] + at] == words[lo_j[live] + at]
        same[live[~equal]] = False
        live = live[equal & (width_i[live] > at + 16)]
        at += 8
    return same


def _slots(words: np.ndarray, lo: np.ndarray, width: np.ndarray, cover: tuple, salt: int) -> np.ndarray:
    """Each field's slot: its width and words (see `_same`) hashed with `salt`."""
    h = (width.astype(np.uint64) + np.uint64(salt)) * _MIX
    h = ((h ^ cover[0]) * _MIX ^ cover[1]) * _MIX
    live = np.flatnonzero(width > 16)
    at = 8
    while live.size:
        h[live] = (h[live] ^ words[lo[live] + at]) * _MIX
        live = live[width[live] > at + 16]
        at += 8
    return (h >> np.uint64(64 - _SLOT_BITS)).astype(np.uint16)


def _intern(words: np.ndarray, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct byte strings among the fields (start `lo`, `width`
    bytes): the index of each one's first field, ascending, and each
    field's position among them. Each field is compared byte for byte with
    the first field of its slot; only those that differ hash again, with a
    new salt. Equal fields share every slot, so a value's fields settle
    together, on its first field, and each round settles at least the first
    field of every slot."""
    cover = _cover(words, lo, width)
    rep = np.empty(lo.size, dtype=np.int64)
    todo = np.arange(lo.size)
    salt = 0
    while todo.size:
        at = slice(None) if salt == 0 else todo  # every field, as views, in the first round
        slot = _slots(words, lo[at], width[at], (cover[0][at], cover[1][at]), salt)
        order = np.argsort(slot, kind="stable")
        sorted_slot = slot[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = sorted_slot[1:] != sorted_slot[:-1]
        first_in_slot = np.empty(todo.size, dtype=np.int64)
        first_in_slot[order] = order[np.flatnonzero(head)][np.cumsum(head) - 1]
        cand = todo[first_in_slot]
        same = _same(words, lo, width, cover, at, cand)
        rep[todo[same]] = cand[same]
        todo = todo[~same]
        salt += 1
    first = np.flatnonzero(rep == np.arange(lo.size))
    position = np.empty(lo.size, dtype=np.int64)
    position[first] = np.arange(first.size)
    return first, position[rep]


def _map_fields(raw: bytes, lo: np.ndarray, hi: np.ndarray, value: Callable[[bytes], int]) -> np.ndarray:
    """value(raw[lo[i]:hi[i]]) of each field, called once per distinct
    field in first-seen order."""
    first, position = _intern(_words(raw), lo, hi - lo)
    values = [value(raw[i:j]) for i, j in zip(lo[first].tolist(), hi[first].tolist())]
    return np.array(values, dtype=np.int64)[position]


_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9])  # of YYYY-MM-DD


def _iso_days(raw: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The date ordinal of each field raw[lo[i]:hi[i]] that writes a day of
    the calendar as exactly YYYY-MM-DD in ASCII digits, else -1."""
    text = np.ndarray((len(raw) - 9, 10), dtype=np.uint8, buffer=raw, strides=(1, 1))[lo]  # first ten bytes
    digit = text - np.uint8(48)  # wraps past 9 unless the byte is an ASCII digit
    ok = (hi - lo == 10) & (text[:, 4] == 45) & (text[:, 7] == 45) & (digit[:, _DIGITS] < 10).all(axis=1)
    # uint8 month and day wrap only where `ok` is false; only the year's digits widen
    year = digit[:, :4] @ np.array([1000, 100, 10, 1], dtype=np.int32)
    month, day = digit[:, 5] * 10 + digit[:, 6], digit[:, 8] * 10 + digit[:, 9]
    return np.where(ok, days_from_civil(year, month, day), -1)


def write_table(path: str, name: str, header: list[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the plain table `name`: CRLF line ends, each field as `str`
    gives it. A field that would need quoting is a DataError."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            line = ",".join(map(str, row))
            if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
                _plain([str(field) for field in row], name)
            fh.write(line + "\r\n")


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array, by one sort. np.unique gives
    the same, but without return_inverse or return_counts NumPy 2.3 and
    later first import numpy.ma (about 35 ms) to test for a mask."""
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def load_persons(path: str) -> Persons:
    """persons.csv as columns; its first row that `_REPEATED_ID` or a rule
    of `_PERSON_RULES` refuses is a DataError naming the line."""
    seen: dict[str, None] = {}  # the ids of the blocks before, in order
    repeated, message = _REPEATED_ID
    rules = ((functools.partial(repeated, seen=seen), message), *_PERSON_RULES)
    year_of = functools.cache(lambda raw: int(raw) if _YEAR.fullmatch(raw.decode("utf-8")) else _NO_YEAR)
    parts = [(np.zeros(0, dtype=np.int64),) * 5]
    for lines in _scan(path, "persons.csv", PERSONS_HEADER):
        raw, cut = lines.raw, lines.cut
        block = Persons(
            _texts(raw, cut[0] + 1, cut[1]), _map_fields(raw, cut[1] + 1, cut[2], year_of),
            _map_fields(raw, cut[2] + 1, cut[3], lambda key: _GENDER_AT.get(key.decode("utf-8"), -1)),
            _iso_days(raw, cut[3] + 1, cut[4]), _iso_days(raw, cut[4] + 1, cut[5]),
            _map_fields(raw, cut[5] + 1, cut[6], lambda key: _SOURCE_AT.get(key.decode("utf-8"), -1)),
        )
        _refuse(rules, block, lambda i: lines.fields(i, PERSONS_HEADER), lambda i: f"{path}:{lines.numbers[i]}: ")
        seen.update(dict.fromkeys(block.ids))
        parts.append(block._columns())
    return Persons(list(seen), *(np.concatenate(cols) for cols in zip(*parts)))


class CodeTable:
    """Interned codes; a code id is a position in `entries`. Every entry
    has a kind and system that `_kind_problem` accepts."""

    def __init__(self, entries: Iterable[Code] = ()):
        self.entries: list[Code] = list(entries)
        self._ids = {c: i for i, c in enumerate(self.entries)}
        if len(self._ids) != len(self.entries) or any(_kind_problem(c.kind, c.system) for c in self._ids):
            raise ValueError("duplicate or refused entries in a code table")

    def id(self, c: Code) -> int:
        """Id of `c`, appending it when new; -1 if `_kind_problem` refuses it."""
        cid = self._ids.get(c)
        if cid is None:
            if _kind_problem(c.kind, c.system):
                return -1
            cid = self._ids[c] = len(self.entries)
            self.entries.append(c)
        return cid


def _check_events(events: _Events, view: Callable[[int], ClinicalEvent]) -> None:
    """Refuse the first event that a rule of `_EVENT_RULES` refuses, named
    by its person (or as one that "events reference", if unknown); view(i)
    is event i, built for the refused event alone, and its kind is worded
    as stored, upper case."""
    _refuse(_EVENT_RULES, events, lambda i: {**asdict(view(i)), "kind": view(i).kind.upper()},
            lambda i: "events reference " if events.pos[i] < 0 else f"person {view(i).person_id!r}: ")


def _view_columns(events: list[ClinicalEvent], persons: Persons, pos_of: dict, codes: CodeTable) -> np.ndarray:
    """The person positions (by `pos_of`), date ordinals and code ids (from
    `codes`) of event views, as three int32 rows, after `_check_events`."""
    rows = [(pos_of.get(e.person_id, -1), e.date.toordinal(), codes.id(Code(e.kind.upper(), e.system, e.code)))
            for e in events]
    columns = np.array(rows, dtype=np.int32).reshape(-1, 3).T
    _check_events(_Events(persons, *columns), events.__getitem__)
    return columns


def load_events(path: str, persons: Persons, source: str) -> "Dataset":
    """The dataset of `persons` and the events of events.csv at `path`,
    sorted by (person_id, date); ties keep file order."""
    index = dict(zip(persons.ids, range(len(persons))))
    codes = CodeTable()

    @functools.cache
    def code_id(rest: bytes) -> int:
        kind, system, code = rest.decode("utf-8").split(",")
        return codes.id(Code(kind.upper(), system, sys.intern(code)))

    parts = [(np.zeros(0, dtype=np.int32),) * 3]
    for lines in _scan(path, "events.csv", EVENTS_HEADER):
        raw, cut = lines.raw, lines.cut
        pos = _map_fields(raw, cut[0] + 1, cut[1], lambda pid: index.get(pid.decode("utf-8"), -1))
        day = _iso_days(raw, cut[1] + 1, cut[2])
        code = _map_fields(raw, cut[2] + 1, cut[5], code_id)
        _refuse(_EVENT_RULES, _Events(persons, pos, day, code), lambda i: lines.fields(i, EVENTS_HEADER),
                lambda i: f"{path}:{lines.numbers[i]}: ")
        parts.append(tuple(col.astype(np.int32) for col in (pos, day, code)))
        del lines, raw, cut, pos, day, code  # the next block is read without them
    pos, day, code = (np.concatenate(cols) for cols in zip(*parts))
    del parts
    return Dataset(persons, source, pos, day, code, codes)


def write_persons(persons: Persons, path: str) -> None:
    """persons.csv from the columns, CRLF line ends, in input order."""
    rows = zip(
        persons.ids, persons.birth_year.tolist(), [GENDERS[g] for g in persons.gender.tolist()],
        iso_text(persons.enroll_start).astype(str).tolist(), iso_text(persons.enroll_end).astype(str).tolist(),
        [SOURCES[s] for s in persons.source.tolist()],
    )
    write_table(path, "persons.csv", PERSONS_HEADER, rows)


def _plain(texts: list[str], name: str) -> None:
    """Refuse the first text that would need quoting in `name`, by one
    search of their concatenation."""
    if _CSV_SPECIAL.search("".join(texts)):
        text = next(t for t in texts if _CSV_SPECIAL.search(t))
        raise DataError(f"cannot write {text!r} to {name}, which has no quoting")


def _text_table(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each text as rows of a zero-padded uint8 matrix,
    and the mask of the bytes that belong to the text."""
    encoded = [t.encode("utf-8") for t in texts]
    length = np.array([len(b) for b in encoded], dtype=np.int64)
    table = np.array(encoded, dtype=f"S{max(length.max(initial=0), 1)}")
    return table.view(np.uint8).reshape(len(encoded), table.itemsize), np.arange(table.itemsize) < length[:, None]


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an int array, ascending, and each value's
    position among them, through a presence map over the values' span."""
    low = int(values.min())
    present = np.zeros(int(values.max()) - low + 1, dtype=bool)
    present[values - low] = True
    return np.flatnonzero(present) + low, (np.cumsum(present, dtype=np.int32) - 1)[values - low]


def write_events(d: "Dataset", path: str) -> None:
    """events.csv from the columns, CRLF line ends, ordered like `d.events`,
    WRITE_ROWS rows at a time (see the module docstring)."""
    tails = [(c.kind.lower(), c.system, c.code) for c in d.codes.entries]
    _plain([field for tail in tails for field in tail], "events.csv")
    _plain([pid for pid, n in zip(d.ids, np.diff(d.offsets).tolist()) if n], "events.csv")
    heads, tails = _text_table(d.ids), _text_table([",".join(tail) + "\r\n" for tail in tails])
    with open(path, "wb") as fh:
        fh.write(",".join(EVENTS_HEADER).encode() + b"\r\n")
        for lo in range(0, d.n_events, WRITE_ROWS):
            hi = min(lo + WRITE_ROWS, d.n_events)
            first, last = np.searchsorted(d.offsets, [lo, hi - 1], side="right") - 1
            row = np.repeat(np.arange(first, last + 1), np.diff(np.clip(d.offsets[first : last + 2], lo, hi)))
            days, day_at = _ranks(d.day[lo:hi])
            dates = np.full((days.size, 12), 44, dtype=np.uint8)  # ",YYYY-MM-DD,"
            dates[:, 1:11] = iso_text(days).view(np.uint8).reshape(-1, 10)
            parts = [(heads, row), ((dates, np.ones(dates.shape, dtype=bool)), day_at), (tails, d.code[lo:hi])]
            block, keep = (np.concatenate([table[k].take(at, axis=0) for table, at in parts], axis=1) for k in (0, 1))
            fh.write(block[keep])


class Dataset:
    """Immutable persons (`persons`, in input order) plus their events as
    columns.

    Row r is person `ids[r]` (ids sorted; `row_of` maps an id to its row,
    `input_rows[i]` is the row of persons[i]); int64 arrays hold each row's
    `enroll_start`, `enroll_end` (date ordinals), `birth_year` and `gender`
    (a position in GENDERS). Row r's events occupy positions
    offsets[r]:offsets[r + 1] of `day` (int32 date ordinals) and `code`
    (int32 ids into `codes`), sorted by date with ties in input order.
    Construction refuses, with a `DataError` naming the person, only a
    repeated id and a person of another source: each person and event was
    checked where it came in (see the module docstring). Treat instances as
    frozen after construction: derived datasets come from
    `replace_person_events`, which checks the events it brings in.
    """

    def __init__(
        self, persons: Persons, source: str,
        person_pos: np.ndarray, day: np.ndarray, code: np.ndarray, codes: CodeTable,
    ):
        """Dataset from unsorted event columns: event i is dated `day[i]`
        (a date ordinal), has code id `code[i]` and belongs to
        persons[person_pos[i]]."""
        if source not in SOURCES:
            raise DataError(f"unknown dataset source {source!r}")
        self.persons = persons
        self.source = source
        order = np.array(sorted(range(len(persons)), key=persons.ids.__getitem__), dtype=np.int64)
        self._by_row = persons[order]
        self.ids = self._by_row.ids
        self.row_of = {pid: row for row, pid in enumerate(self.ids)}
        if len(self.row_of) < len(self.ids):
            _refuse((_REPEATED_ID,), persons, lambda i: {"person_id": persons.ids[i]}, lambda i: "")
        other = np.flatnonzero(persons.source != SOURCES.index(source))
        if other.size:
            p = persons[int(other[0])]
            raise DataError(f"person {p.person_id!r}: source {p.source!r} != dataset source {source!r}")
        self.enroll_start, self.enroll_end = self._by_row.enroll_start, self._by_row.enroll_end
        self.birth_year, self.gender = self._by_row.birth_year, self._by_row.gender
        self.input_rows = np.argsort(order)  # the inverse permutation
        key = self.input_rows[person_pos]  # each event's int64 row, then its sort key
        offsets = np.zeros(len(persons) + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=len(persons)), out=offsets[1:])
        key *= DAY_SPAN
        key += day
        sort = np.argsort(key, kind="stable")
        del key
        day, code = (np.asarray(col[sort], dtype=np.int32) for col in (day, code))
        self._set_events(offsets, day, code, codes)

    def _set_events(self, offsets: np.ndarray, day: np.ndarray, code: np.ndarray, codes: CodeTable) -> None:
        """Adopt sorted event columns, dropping what was derived from others."""
        self.offsets, self.day, self.code, self.codes = offsets, day, code, codes
        self._key: np.ndarray | None = None
        self._dx_key: np.ndarray | None = None

    @classmethod
    def from_events(
        cls, persons: Iterable[Person], events: Iterable[ClinicalEvent], source: str
    ) -> "Dataset":
        """Dataset from person and event views; kinds are stored upper case."""
        persons, codes = Persons.of(persons), CodeTable()
        pos_of = {pid: i for i, pid in enumerate(persons.ids)}
        return cls(persons, source, *_view_columns(list(events), persons, pos_of, codes), codes)

    @classmethod
    def from_files(cls, persons_path: str, events_path: str) -> "Dataset":
        persons = load_persons(persons_path)
        if not len(persons):
            raise DataError(f"{persons_path}: no persons")
        sources = [SOURCES[s] for s in distinct(persons.source).tolist()]
        if len(sources) > 1:
            raise DataError(f"{persons_path}: mixed sources {sources}")
        return load_events(events_path, persons, sources[0])

    @functools.cached_property
    def persons_by_id(self) -> dict[str, Person]:
        """Each person's `Person` view by id, built on first use."""
        return dict(zip(self.ids, self._by_row))

    @property
    def n_events(self) -> int:
        return len(self.day)

    @property
    def events(self) -> list[ClinicalEvent]:
        """Flat event list ordered by (person_id, date), built on demand."""
        return [e for pid in self.ids for e in self.events_for(pid)]

    def events_for(self, person_id: str) -> list[ClinicalEvent]:
        row = self.row_of.get(person_id)
        if row is None:
            return []
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        entries, from_ordinal = self.codes.entries, datetime.date.fromordinal
        return [
            ClinicalEvent(person_id, from_ordinal(day), *entries[c])
            for day, c in zip(self.day[lo:hi].tolist(), self.code[lo:hi].tolist())
        ]

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

    def replace_person_events(self, person_id: str, events: list[ClinicalEvent]) -> "Dataset":
        """Derived dataset with one person's events swapped out.

        Shares person records with the parent and checks only the new
        events; new codes extend a copied code table. Used for mutation
        checks.
        """
        row = self.row_of.get(person_id)
        if row is None:
            raise DataError(f"unknown person_id {person_id!r}")
        for e in events:
            if e.person_id != person_id:
                raise DataError(f"event for {e.person_id!r} cannot replace the events of {person_id!r}")
        codes = CodeTable(self.codes.entries)
        events = sorted(events, key=lambda e: e.date.toordinal())
        _, new_day, new_code = _view_columns(events, self._by_row, {person_id: row}, codes)
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        offsets = self.offsets.copy()
        offsets[row + 1 :] += len(events) - (hi - lo)
        clone = copy.copy(self)  # shares persons, ids, row_of and the enrollment arrays
        day = np.concatenate([self.day[:lo], new_day, self.day[hi:]])
        code = np.concatenate([self.code[:lo], new_code, self.code[hi:]])
        clone._set_events(offsets, day, code, codes)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.source == other.source
            and self.persons == other.persons
            and self.events == other.events
        )
