"""The (date x ticker) grid that every panel shares: calendar lookups, and
the long-form ``date,ticker,<numbers>`` files that fill it.

The calendar is a strictly increasing tuple of ISO dates, which sort like
the dates themselves, so a date range is two binary searches.
"""

from __future__ import annotations

import csv
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import AlignmentError, ParseError, ValidationError


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


def read_header(reader, path: str, names: tuple[str, ...] | None) -> tuple[str, ...]:
    """The header row of a csv reader: exactly ``names``, or for None
    ``date,ticker`` and at least one more column; else a ParseError at line 1."""
    want = ",".join(names) if names else "date,ticker,<one or more columns>"
    row = next(reader, None)
    if row is None:
        raise ParseError(f"{path}: line 1: empty file, expected header {want}")
    header = tuple(h.strip() for h in row)
    if not (header == names if names else (header[:2] == ("date", "ticker") and len(header) > 2)):
        raise ParseError(f"{path}: line 1: expected header {want}")
    return header


def require_blank(row: list[str], path: str, lineno: int, width: int) -> None:
    """Let a row whose field count is not ``width`` through only when it is
    blank, for the caller to skip; a ParseError naming the line otherwise."""
    if len(row) > 1 or (row and row[0].strip()):
        raise ParseError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")


def check_date(date: str, path: str, lineno: int) -> None:
    """A ParseError naming the line unless ``date`` has the YYYY-MM-DD shape."""
    if len(date) != 10 or date[4] != "-" or date[7] != "-":
        raise ParseError(f"{path}: line {lineno}: bad date {date!r} (want YYYY-MM-DD)")


def _axis(seen: dict[str, int], given) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels of an axis (``given``, else the seen ones sorted) and the
    position on it of each seen label, in first-seen order (-1: not on it)."""
    labels = tuple(sorted(seen) if given is None else given)
    at = {label: p for p, label in enumerate(labels)}
    return labels, np.array([at.get(s, -1) for s in seen], dtype=np.int64)


def read_grid(path: str, header: tuple[str, ...] | None = None,
              calendar: tuple[str, ...] | None = None, universe: tuple[str, ...] | None = None,
              ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Read a long-form ``date,ticker,<numbers>`` file (with ``header``, or
    any such header for None) onto a dense (dates, tickers, numbers) grid;
    returns (dates, tickers, grid).

    Blank rows are skipped. A row of the wrong length, a date not YYYY-MM-DD,
    a field that is not a number or a second row for one cell is a
    ParseError naming its line; a nan or inf a ValidationError naming it.
    The grid spans ``calendar`` and ``universe``, skipping rows outside them,
    or else the file's own sorted dates and tickers; cells with no row are an
    AlignmentError listing the gaps.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(read_header(reader, path, header))
        # labels by first-seen index; one entry per row in the flat buffers
        date_at: dict[str, int] = {}
        ticker_at: dict[str, int] = {}
        di, ti, lines, flat = array("q"), array("q"), array("q"), array("d")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                require_blank(row, path, lineno, width)
                continue
            date, ticker = row[0].strip(), row[1].strip()
            i = date_at.get(date)
            if i is None:
                check_date(date, path, lineno)
                i = date_at[date] = len(date_at)
            j = ticker_at.get(ticker)
            if j is None:
                j = ticker_at[ticker] = len(ticker_at)
            try:
                flat.extend(map(float, row[2:]))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            di.append(i)
            ti.append(j)
            lines.append(lineno)
    if not lines:
        raise AlignmentError(f"{path}: no data rows")

    values = np.frombuffer(flat).reshape(len(lines), width - 2)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        date, ticker = list(date_at)[di[r]], list(ticker_at)[ti[r]]
        raise ValidationError(f"{path}: non-finite value at ({date}, {ticker}), line {lines[r]}")
    dates, d = _axis(date_at, calendar)
    tickers, t = _axis(ticker_at, universe)
    d, t = d[np.frombuffer(di, dtype=np.int64)], t[np.frombuffer(ti, dtype=np.int64)]
    placed = np.flatnonzero((d >= 0) & (t >= 0))
    cells = d[placed] * len(tickers) + t[placed]
    count = np.bincount(cells, minlength=len(dates) * len(tickers))
    if (count > 1).any():
        order = np.argsort(cells, kind="stable")
        r = placed[order[1:][np.diff(cells[order]) == 0].min()]
        raise ParseError(
            f"{path}: line {lines[r]}: duplicate row for ({dates[d[r]]}, {tickers[t[r]]})")
    if not count.all():
        missing = np.argwhere(count.reshape(len(dates), len(tickers)).T == 0)
        gaps = "; ".join(f"{tickers[j]} missing {dates[i]}" for j, i in missing[:20])
        more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
        raise AlignmentError(f"{path}: calendar gaps: {gaps}{more}")
    grid = np.empty((len(dates) * len(tickers), width - 2))
    grid[cells] = values[placed]
    return dates, tickers, grid.reshape(len(dates), len(tickers), width - 2)
