"""The calendar of `smiscreen.dates` against `datetime` and `calendar`.

Each function is checked on every day of one 400-year cycle, on the first
and last days of the calendar, and on ordinals off it (at most 0, above
9999-12-31), which must give -1. Inputs come as int32 (what the CSV date
parser passes) and as int64.
"""

from __future__ import annotations

import calendar
import datetime

import numpy as np
import pytest

from conftest import d
from smiscreen import dates

MAX_DAY = datetime.date.max.toordinal()
CYCLE = range(d("2000-01-01").toordinal(), d("2400-01-01").toordinal())  # 146,097 days
ENDS = [*range(1, 800), *range(MAX_DAY - 800, MAX_DAY + 1)]
OFF = [-(10**9), -366, -1, 0, MAX_DAY + 1, MAX_DAY + 366, 10**9]
# month ends and leap days: window ends and shifts whose answers are known by heart
KNOWN = {
    "2014-12-17": "2013-12-18", "2016-02-29": "2015-03-01",
    "2016-03-15": "2015-03-16", "2015-02-28": "2014-03-01",
}
SHIFTS = [(-12, "2016-02-29", "2015-02-28"), (1, "2015-01-31", "2015-02-28"), (12, "2015-03-31", "2016-03-31")]
MONTHS = (-120, -12, -1, 1, 11, 12, 25)
DTYPES = [np.int32, np.int64]


def ordinals(dtype) -> np.ndarray:
    return np.array([*CYCLE, *ENDS, *OFF], dtype=dtype)


def reference_add_months(day: int, months: int) -> int:
    """The ordinal of `day` shifted by whole calendar months, clamped to
    month end, or -1 where the day or the result is off the calendar."""
    try:
        date = datetime.date.fromordinal(day)
        year, month = divmod(date.year * 12 + date.month - 1 + months, 12)
        last = calendar.monthrange(year, month + 1)[1]
        return datetime.date(year, month + 1, min(date.day, last)).toordinal()
    except (ValueError, OverflowError):
        return -1


def reference_civil(day: int) -> tuple[int, int, int]:
    if not 1 <= day <= MAX_DAY:
        return -1, -1, -1
    date = datetime.date.fromordinal(day)
    return date.year, date.month, date.day


@pytest.mark.parametrize("dtype", DTYPES)
def test_civil_from_days_follows_the_reference(dtype):
    days = ordinals(dtype)
    got = np.stack(dates.civil_from_days(days), axis=1).tolist()
    assert got == [list(reference_civil(day)) for day in days.tolist()]


@pytest.mark.parametrize("dtype", DTYPES)
def test_days_from_civil_follows_the_reference(dtype):
    days = np.array([*CYCLE, *ENDS], dtype=np.int64)
    year, month, day = (np.array(col, dtype=dtype) for col in zip(*map(reference_civil, days.tolist())))
    assert dates.days_from_civil(year, month, day).tolist() == days.tolist()
    # names of no day: year 0 and 10000, month 0 and 13, day 0, a 32nd, a 31st of a 30-day month, Feb 29s
    bad = [(0, 12, 31), (10000, 1, 1), (2010, 0, 10), (2010, 13, 10), (2010, 5, 0), (2010, 5, 32),
           (2010, 4, 31), (2010, 9, 31), (1900, 2, 29), (2023, 2, 29), (2010, 2, 30), (-1, 1, 1)]
    year, month, day = (np.array(col, dtype=dtype) for col in zip(*bad))
    assert dates.days_from_civil(year, month, day).tolist() == [-1] * len(bad)
    assert dates.days_from_civil(np.array([2000, 2400], dtype=dtype), 2, 29).tolist() == [
        d("2000-02-29").toordinal(), d("2400-02-29").toordinal()
    ]


@pytest.mark.parametrize("dtype", DTYPES)
def test_days_in_month_follows_the_reference(dtype):
    years = [*range(2000, 2400), 1, 2, 9998, 9999]
    year, month = (np.array(col, dtype=dtype) for col in zip(*[(y, m) for y in years for m in range(1, 13)]))
    want = [calendar.monthrange(y, m)[1] for y, m in zip(year.tolist(), month.tolist())]
    assert dates.days_in_month(year, month).tolist() == want


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("months", MONTHS)
def test_add_months_follows_the_reference(dtype, months):
    days = np.array([*ordinals(dtype), *(d(day).toordinal() for _, day, _ in SHIFTS)], dtype=dtype)
    want = [reference_add_months(day, months) for day in days.tolist()]
    assert dates.add_months(days, months).tolist() == want
    for shift, day, shifted in SHIFTS:
        assert dates.add_months(dtype(d(day).toordinal()), shift) == d(shifted).toordinal()


@pytest.mark.parametrize("dtype", DTYPES)
def test_window_start_for_end_follows_the_reference(dtype):
    days = np.array([*ordinals(dtype), *(d(end).toordinal() for end in KNOWN)], dtype=dtype)
    back = [reference_add_months(day, -12) for day in days.tolist()]
    got = dates.window_start_for_end(days)
    assert got.tolist() == [-1 if day < 0 else day + 1 for day in back]
    on = got >= 0
    assert set((days[on].astype(np.int64) - got[on] + 1).tolist()) == {365, 366}  # 12 months, both ends in
    for end, start in KNOWN.items():
        assert dates.window_start_for_end(dtype(d(end).toordinal())) == d(start).toordinal()


@pytest.mark.parametrize("dtype", DTYPES)
def test_iso_text_follows_the_reference(dtype):
    days = ordinals(dtype)
    want = [datetime.date.fromordinal(day).isoformat().encode() if 1 <= day <= MAX_DAY else b""
            for day in days.tolist()]
    got = dates.iso_text(days)
    assert got.dtype == np.dtype("S10") and got.tolist() == want
    assert dates.iso_text(dtype(1)) == b"0001-01-01"
