"""Lookups on the (date x ticker) grid that every panel shares.

The calendar is a strictly increasing tuple of ISO dates, which sort like
the dates themselves, so a date range is two binary searches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import AlignmentError, ValidationError


def check_increasing(dates: tuple[str, ...], what: str = "dates") -> None:
    for d1, d2 in zip(dates, dates[1:]):
        if d2 <= d1:
            raise ValidationError(f"{what} not strictly increasing at {d1!r} -> {d2!r}")


def date_span(dates: tuple[str, ...], start: str, end: str) -> slice:
    """Positions of the dates with start <= date <= end, on a strictly
    increasing calendar; empty (start == stop) when none qualifies."""
    lo = bisect_left(dates, start)
    return slice(lo, max(lo, bisect_right(dates, end)))


def ticker_positions(have: tuple[str, ...], want, what: str = "panel") -> list[int]:
    """Column of each wanted ticker, in the wanted order."""
    missing = [t for t in want if t not in have]
    if missing:
        raise ValidationError(f"tickers not in {what}: {missing}")
    return [have.index(t) for t in want]


def gaps_error(path: str, missing: list[tuple[str, str]]) -> AlignmentError:
    """AlignmentError listing the first 20 missing (ticker, date) cells of a file."""
    gaps = "; ".join(f"{t} missing {d}" for t, d in missing[:20])
    more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
    return AlignmentError(f"{path}: calendar gaps: {gaps}{more}")
