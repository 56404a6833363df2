"""Calendar-month arithmetic at day resolution.

All observation windows in this package are "12 calendar months": same
day-of-month arithmetic with end-of-month clamping (the only ambiguous
inputs are month ends, e.g. shifting Feb 29 back a year lands on Feb 28).
"""

from __future__ import annotations

import calendar
import datetime


def add_months(d: datetime.date, months: int) -> datetime.date:
    """Shift a date by whole calendar months, clamping to month end."""
    total = d.year * 12 + (d.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    day = min(d.day, calendar.monthrange(year, month)[1])
    return datetime.date(year, month, day)


def window_start_for_end(end: datetime.date) -> datetime.date:
    """Start of the 12-month window ending on `end` (both inclusive)."""
    return add_months(end, -12) + datetime.timedelta(days=1)
