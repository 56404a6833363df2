"""One proleptic-Gregorian calendar, in integer arithmetic on date ordinals.

A day is its `datetime.date.toordinal` (0001-01-01 is 1, 9999-12-31 is
MAX_DAY). Every function works elementwise on int arrays or ints and gives
-1 for an input or a result off the calendar, so a cohort date that runs
off it drops its person. Conversions are Howard Hinnant's era algorithms
(http://howardhinnant.github.io/date_algorithms.html), whose years begin on
March 1 so that leap days come last in a 400-year era of 146,097 days.
"""

from __future__ import annotations

import numpy as np

MAX_DAY = 3_652_059  # 9999-12-31
_ERA_START = -305  # 0000-03-01, the first day of era 0
_PLACES = 10 ** np.arange(9, -1, -1, dtype=np.int64)  # of YYYY0MM0DD
_ASCII = np.array([48, 48, 48, 48, 45, 48, 48, 45, 48, 48])  # "0", and "-" for the zeros between fields


def days_in_month(year, month) -> np.ndarray:
    """The length of each month (1..12) of each year."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    return np.where(month == 2, 28 + leap, 30 + (month + month // 8) % 2)


def days_from_civil(year, month, day) -> np.ndarray:
    """The ordinal of each year, month and day, or -1 where they name no day."""
    year, month, day = (np.asarray(x, dtype=np.int64) for x in (year, month, day))
    ok = (year >= 1) & (year <= 9999) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= day <= days_in_month(year, month)
    era, year_of_era = np.divmod(year - (month <= 2), 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return np.where(ok, era * 146_097 + day_of_era + _ERA_START, -1)


def civil_from_days(days) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The year, month and day of each ordinal; -1 in all three off the calendar."""
    days = np.asarray(days, dtype=np.int64)
    era, day_of_era = np.divmod(days - _ERA_START, 146_097)
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36_524 - day_of_era // 146_096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    month_of_year = (5 * day_of_year + 2) // 153  # from March
    month = (month_of_year + 2) % 12 + 1
    day = day_of_year - (153 * month_of_year + 2) // 5 + 1
    off = (days < 1) | (days > MAX_DAY)
    return tuple(np.where(off, -1, x) for x in (era * 400 + year_of_era + (month <= 2), month, day))


def add_months(days, months) -> np.ndarray:
    """Shift each day by whole calendar months, clamped to month end (Feb 29 less 12 is Feb 28)."""
    year, month, day = civil_from_days(days)
    year, month = np.divmod(year * 12 + month - 1 + months, 12)
    return days_from_civil(year, month + 1, np.minimum(day, days_in_month(year, month + 1)))


def window_start_for_end(end) -> np.ndarray:
    """First day of each 12-month window ending on `end` (both inclusive)."""
    start = add_months(end, -12)
    return np.where(start > 0, start + 1, -1)


def iso_text(days) -> np.ndarray:
    """Each day as the 10 ASCII bytes YYYY-MM-DD (dtype S10); b"" off the calendar."""
    year, month, day = civil_from_days(days)
    digits = (year * 1_000_000 + month * 1_000 + day)[..., None] // _PLACES % 10
    return np.where(year > 0, (digits + _ASCII).astype(np.uint8).view("S10").reshape(year.shape), b"")
