"""The person and event rules one record at a time, as scalar functions:
what `datamodel._PERSON_RULES` and `datamodel._EVENT_RULES` must refuse,
and with which text, and the date reader they assume. Tests compare the
rule tables and `datamodel._iso_days` with them."""

from __future__ import annotations

import datetime
import re

from smiscreen.datamodel import BIRTH_YEARS, GENDERS, SOURCES, _YEAR, ClinicalEvent, Person, _kind_problem

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _date(text: str) -> datetime.date | None:
    """The date `text` writes as exactly YYYY-MM-DD, or None: what
    `datamodel._iso_days` must read. The pattern comes first because
    `fromisoformat` accepts other forms on some Python versions (20100101
    and week dates from 3.11 on)."""
    if _ISO_DATE.fullmatch(text):
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:
            pass
    return None


def person_problem(p: Person) -> str | None:
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


def person_view(fields: list[str]) -> Person | None:
    """The `Person` a persons.csv row (its six fields) writes, or None if
    its birth_year or a date is text that no view holds."""
    pid, birth_raw, gender, start_raw, end_raw, source = fields
    start, end = _date(start_raw), _date(end_raw)
    if not _YEAR.fullmatch(birth_raw) or start is None or end is None:
        return None
    return Person(pid, int(birth_raw), gender, start, end, source)


def person_row_problem(fields: list[str], seen: set[str]) -> str | None:
    """Why a persons.csv row (its six fields) is refused, or None, when the
    ids in `seen` came before it."""
    pid, birth_raw, gender, start_raw, end_raw, source = fields
    if pid in seen:
        return f"duplicate person_id {pid!r}"
    if not _YEAR.fullmatch(birth_raw):
        return f"unparseable birth_year {birth_raw!r}"
    start, end = _date(start_raw), _date(end_raw)
    if start is None or end is None:
        return f"unparseable date {(start_raw if start is None else end_raw)!r}"
    return person_problem(Person(pid, int(birth_raw), gender, start, end, source))


def enrollment_problem(p: Person, date: datetime.date) -> str | None:
    """Why an event of `p` on `date` is refused, or None if it is accepted."""
    if p.enroll_start <= date <= p.enroll_end:
        return None
    return f"event for {p.person_id!r} dated {date} outside enrollment [{p.enroll_start}, {p.enroll_end}]"


def row_problem(pid: str, date_raw: str, rest: str, person: Person | None) -> str | None:
    """Why an events.csv row ("kind,system,code" in `rest`) of `person`
    (None for an unknown id) is refused, or None."""
    if person is None:
        return f"unknown person_id {pid!r}"
    kind, system, _ = rest.split(",")
    problem = _kind_problem(kind, system)
    if problem:
        return problem
    date = _date(date_raw)
    if date is None:
        return f"unparseable date {date_raw!r}"
    return enrollment_problem(person, date)


def event_view_message(e: ClinicalEvent, person: Person | None) -> str | None:
    """The DataError text for the event view `e` of `person` (None for an
    unknown id), or None: a view is named by its person, or as one that
    "events reference" if that is unknown, and its kind is worded as
    stored, upper case."""
    problem = row_problem(e.person_id, e.date.isoformat(), f"{e.kind.upper()},{e.system},{e.code}", person)
    if problem is None:
        return None
    return ("events reference " if person is None else f"person {e.person_id!r}: ") + problem
