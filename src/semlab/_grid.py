"""The (date x ticker) grid that every dated record shares: the ``Grid`` base
of the price, signal, feature and score panels and of the equity curve, with
its one alignment check; calendar lookups; the long-form
``date,ticker,<numbers>`` files that fill it, read by ``read_grid`` and
written by its mirror ``write_grid``; the two formats every artifact is
written through, ``write_table`` and ``write_json``; and ``read_json`` for
the JSON inputs. Files are read and written as UTF-8.

Both delimited inputs, the grid files of ``read_grid`` and the article cache
of ``signals.load_article_scores``, are read by ``read_fields`` in one of two
stages, each returning the same fields: every leading label field as a dict
of its labels in first-seen order with each row's index into it, and the
numbers as one flat array. The fast stage, ``fast_fields``, reads the file in
binary, ``_BLOCK_LINES`` lines at a time. ``_json_block`` vouches for a block
with byte checks (printable ASCII but for ``"``, ``\\``, brackets and braces;
CRLF or LF line ends; no ``true``, ``false`` or ``null``; ``width - 1``
commas on each non-blank line), quotes its label fields and turns its line
ends into commas, and ``orjson.loads`` reads the block as one JSON array,
with correctly rounded numbers (Lemire's method). The stage maps each
block's distinct labels through a dict and strips them. It declines a file
on any fault and on anything it cannot vouch for, such as a byte outside
that set, a date not YYYY-MM-DD, a number only Python's ``float`` or ``int``
reads (``1_0``, ``+5``, ``1e400``) or a zero read from an integer literal
(orjson reads ``-0`` as 0). The exact stage, ``exact_fields``, then reads
the file row by row through ``records`` and raises every error found while
reading. Either way the rows are the ones ``records`` yields, in its order,
so each reader's ``build`` runs once on the fields, and where its message
names a row's line, ``line_of`` finds that line by reading the file again.

Every delimited artifact is written by ``write_table``, byte for byte what
``csv.writer`` writes for the same fields, from columns: float and int
arrays, and sequences of str labels. It writes ``_BLOCK_ROWS`` rows at a
time and holds one block's text at a time. A block's floats are formatted by
one call of ``orjson``'s shortest round-trip formatter per column
(``_float_texts``), about ten times faster than ``repr`` one value at a
time. Its text is ``repr``'s for ``0.0``, ``-0.0`` and every finite number
with ``1e-4 <= |x| < 1e16``; ``repr`` writes any other value. A block's ints
are one ``orjson.dumps`` call, and its labels are written as they are unless
one of them is empty or holds a character csv quotes, when each distinct
label goes through ``csv.writer`` once (``_label_texts``). ``write_grid``
expands a (date x ticker) grid's arrays onto the long-form columns of
``write_table``.

The calendar is a strictly increasing tuple of ISO dates, which sort like
the dates themselves, so a date range is two binary searches. A grid holds
arrays on both axes (``ARRAYS``) and float series on the dates alone
(``SERIES``); slicing, restriction and the content hash treat both.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import ClassVar

import numpy as np
import orjson

from .errors import (
    AlignmentError,
    ConfigError,
    LabError,
    ParseError,
    RangeError,
    ValidationError,
)


def frozen(arr, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy of ``arr`` as ``dtype``, so a grid's row
    reductions round alike however its arrays were cut; or ``arr`` itself if
    it is a read-only C-contiguous ``dtype`` view of a read-only ndarray, such
    as a date slice of a frozen grid."""
    if (isinstance(arr, np.ndarray) and arr.dtype == dtype and not arr.flags.writeable
            and arr.flags.c_contiguous and isinstance(arr.base, np.ndarray)
            and not arr.base.flags.writeable):
        return arr
    out = np.array(arr, dtype=dtype, copy=True, order="C")
    out.flags.writeable = False
    return out


def check_increasing(dates: tuple[str, ...], what: str = "dates") -> None:
    for d1, d2 in zip(dates, dates[1:]):
        if d2 <= d1:
            raise ValidationError(f"{what} not strictly increasing at {d1!r} -> {d2!r}")


def date_span(dates: tuple[str, ...], start: str, end: str) -> slice:
    """Positions of the dates with start <= date <= end, on a strictly
    increasing calendar; empty (start == stop) when none qualifies."""
    lo = bisect_left(dates, start)
    return slice(lo, max(lo, bisect_right(dates, end)))


def check_unique(tickers, what: str = "panel", error: type[LabError] = ValidationError,
                 item: str = "ticker") -> None:
    """An ``error`` naming the first ticker (or other ``item``) that appears twice."""
    seen: set[str] = set()
    for t in tickers:
        if t in seen:
            raise error(f"duplicate {item} {t!r} in {what}")
        seen.add(t)


def ticker_positions(have: tuple[str, ...], want, what: str = "panel") -> list[int]:
    """Column of each wanted ticker, in the wanted order."""
    missing = [t for t in want if t not in have]
    if missing:
        raise ValidationError(f"tickers not in {what}: {missing}")
    return [have.index(t) for t in want]


@dataclass(frozen=True)
class Grid:
    """Read-only arrays on a (date x ticker) grid: a strictly increasing
    calendar ``dates`` and unique ``tickers``.

    A subclass declares its arrays in ``ARRAYS`` (field name -> dtype and the
    shape after the two grid axes, None for any) and its float series of
    shape (dates,) in ``SERIES`` (field names), and adds its value rules in
    ``__post_init__`` after calling this one. Each array and series is frozen
    as a copy, unless ``frozen`` finds it frozen already (a date slice of a
    grid); one that is None is absent. ``WHAT`` names the grid in messages.
    """

    ARRAYS: ClassVar[dict[str, tuple[type, tuple[int, ...] | None]]] = {}
    SERIES: ClassVar[tuple[str, ...]] = ()
    WHAT: ClassVar[str] = "panel"

    dates: tuple[str, ...]
    tickers: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        check_increasing(self.dates)
        check_unique(self.tickers, self.WHAT)
        grid = (len(self.dates), len(self.tickers))
        declared = [(name, dt, grid, trailing) for name, (dt, trailing) in self.ARRAYS.items()]
        declared += [(name, float, grid[:1], ()) for name in self.SERIES]
        for name, dtype, axes, trailing in declared:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = frozen(arr, dtype)
            if arr.shape[:len(axes)] != axes or (
                    trailing is not None and arr.shape[len(axes):] != trailing):
                want = axes + trailing if trailing is not None else f"({grid[0]}, {grid[1]}, ...)"
                raise ValidationError(f"{name} has shape {arr.shape}, expected {want}")
            object.__setattr__(self, name, arr)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    def check_aligned(self, other, what: str, _dates_only: bool = False) -> None:
        """An AlignmentError unless ``other`` (``what`` in the message) has
        this grid's dates and tickers in the same order, naming the axis and
        the first position that differs. Only the calendar is compared for a
        record without a ticker axis or on another universe (``_dates_only``)."""
        for axis in ("dates",) if _dates_only else ("dates", "tickers"):
            mine, theirs = getattr(self, axis), getattr(other, axis)
            if mine != theirs:
                i = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b),
                         min(len(mine), len(theirs)))
                got, want = (repr(labels[i]) if i < len(labels) else "nothing"
                             for labels in (theirs, mine))
                raise AlignmentError(f"{what} not aligned with the {self.WHAT}: "
                                     f"{axis} differ at position {i}: {got} vs {want}")

    def slice_dates(self, start: str, end: str):
        """The grid on start <= date <= end (ISO strings compare correctly);
        a RangeError when no date qualifies."""
        rows = date_span(self.dates, start, end)
        if rows.start == rows.stop:
            raise RangeError(f"no dates in [{start}, {end}] on the {self.WHAT} calendar")
        return self._select(rows, self.tickers, slice(None))

    def restrict(self, tickers: list[str] | tuple[str, ...]):
        """The grid keeping only the given tickers, in the given order."""
        cols = ticker_positions(self.tickers, tickers, self.WHAT)
        return self._select(slice(None), tuple(tickers), cols)

    def _select(self, rows: slice, tickers: tuple[str, ...], cols):
        cut = {name: (rows, cols) for name in self.ARRAYS} | {name: rows for name in self.SERIES}
        arrays = {name: None if getattr(self, name) is None else getattr(self, name)[at]
                  for name, at in cut.items()}
        return replace(self, dates=self.dates[rows], tickers=tickers, **arrays)

    def _hasher(self):
        """sha256 over the joined dates, the joined tickers and the bytes of
        each present array in ``ARRAYS`` order, then of each series in
        ``SERIES`` order."""
        h = hashlib.sha256()
        h.update(",".join(self.dates).encode())
        h.update(",".join(self.tickers).encode())
        for name in (*self.ARRAYS, *self.SERIES):
            arr = getattr(self, name)
            if arr is not None:
                h.update(arr)
        return h

    def content_hash(self) -> str:
        return self._hasher().hexdigest()


def _names(row: list[str]) -> tuple[str, ...]:
    """A header row's column names: its fields stripped."""
    return tuple(h.strip() for h in row)


def header_names(path: str) -> tuple[str, ...]:
    """The column names of a delimited file's header row as ``read_header``
    reads them, () for an empty file. A byte that is not UTF-8 comes back as
    a lone surrogate, so such a header matches no known names, and a bad
    byte further on is left for ``records`` to report."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        return _names(next(csv.reader(fh), []))


def read_header(reader, path: str, names: tuple[str, ...] | None) -> tuple[str, ...]:
    """The header row of a csv reader: exactly ``names``, or for None
    ``date,ticker`` and at least one more column; else a ParseError at line 1."""
    want = ",".join(names) if names else "date,ticker,<one or more columns>"
    row = next(reader, None)
    if row is None:
        raise ParseError(f"{path}: line 1: empty file, expected header {want}")
    header = _names(row)
    if not (header == names if names else (header[:2] == ("date", "ticker") and len(header) > 2)):
        raise ParseError(f"{path}: line 1: expected header {want}")
    return header


def records(path: str, header: tuple[str, ...] | None):
    """The data rows of a delimited file whose header ``read_header``
    accepts, each as (the physical line it starts on, its fields). Blank rows
    are skipped; any other row without one field per header column is a
    ParseError naming its line. The file is read as UTF-8, and a byte that
    does not decode is a ParseError naming its line too."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            width = len(read_header(reader, path, header))
            start = reader.line_num + 1  # a quoted field may span lines
            for row in reader:
                if len(row) == width:
                    yield start, row
                elif len(row) > 1 or (row and row[0].strip()):
                    raise ParseError(
                        f"{path}: line {start}: expected {width} fields, got {len(row)}")
                start = reader.line_num + 1
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def line_of(path: str, header: tuple[str, ...] | None, row: int) -> int:
    """The physical line of data row ``row`` (counted from 0) as ``records``
    numbers it, found by reading the file again: the read keeps no line
    numbers, since only an error message needs one."""
    return next(islice(records(path, header), row, None))[0]


def _not_utf8(path: str) -> ParseError:
    """The ParseError for a file that is not UTF-8 text, naming the line of
    its first byte that does not decode. The text decoder reads ahead in
    chunks, so the byte is found again in the whole file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end where csv.reader ends them: at LF, CR or CRLF
        head = io.StringIO(data[:exc.start].decode("utf-8") + "x", newline="")
        return ParseError(f"{path}: line {len(head.readlines())}: "
                          f"byte 0x{data[exc.start]:02x} is not UTF-8 text")
    return ParseError(f"{path}: not UTF-8 text")


# rows formatted per pass of write_table: `semlab synth` at 100 x 2500 peaked
# at 82.1-82.7 MiB for 256 to 8192 rows, and with a `validate` of its files
# after it at 90.4-92.7 MiB for 512 to 8192 against 97.1 for 16384; 4096 wrote
# the price file fastest
_BLOCK_ROWS = 4096
# the characters csv.writer quotes a field for, with its default dialect
_QUOTED = (",", '"', "\r", "\n")


def _csv_fields(labels) -> list[str]:
    """Each label as ``csv.writer`` writes it in a row of two or more fields
    (a lone empty field would be written as ``""`` instead of nothing)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        writer.writerow((label, ""))
        fields.append(buf.getvalue()[:-3])  # the empty field's "," and "\r\n"
    return fields


def _label_texts(labels, lone: bool = False) -> list[str]:
    """A block of str labels as ``csv.writer`` writes them: as they are when
    none holds one of ``_QUOTED`` or is empty, else each distinct label once
    through ``_csv_fields``. For the ``lone`` field of a one-column row, an
    empty label is written ``""``, as csv writes a row of one empty field."""
    joined = "".join(labels)
    if all(labels) and not any(c in joined for c in _QUOTED):
        return labels
    texts = dict.fromkeys(labels)
    for label, text in zip(texts, _csv_fields(texts)):
        texts[label] = '""' if lone and not label else text
    return list(map(texts.__getitem__, labels))


def _float_texts(values: np.ndarray) -> list[str]:
    """The ``repr`` of each float of a flat float64 array, formatted by one
    ``orjson.dumps`` call (a Ryu-style shortest round-trip formatter). Its
    text is ``repr``'s for ``0.0``, ``-0.0`` and every finite ``x`` with
    ``1e-4 <= |x| < 1e16``; outside that range it writes ``1e16``, ``0.00001``
    or ``null`` where ``repr`` writes ``1e+16``, ``1e-05`` or ``nan``, so any
    other value is written by ``repr`` one at a time."""
    if not values.size:
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    magnitude = np.abs(values)
    vouched = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0)  # NaN fails both
    for i in np.flatnonzero(~vouched).tolist():
        text[i] = repr(float(values[i]))
    return text


def _number_texts(values: np.ndarray) -> list[str]:
    """A block of a float or int column as ``str`` writes each number it
    holds: floats as the float64 ``repr`` (``_float_texts``), ints by one
    ``orjson.dumps`` call, whose integer text is ``str``'s."""
    if values.dtype.kind == "f":
        return _float_texts(np.ascontiguousarray(values, dtype=float))
    return orjson.dumps(np.ascontiguousarray(values),
                        option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")


def write_table(path: str, header, columns) -> None:
    """The delimited artifact format: byte for byte what ``csv.writer``
    with its defaults writes for the ``header`` row and then one row per
    index of the equally long ``columns``. A column is a float or int numpy
    array, written as ``str`` writes each float64 or int it holds, or a
    sequence of str labels, quoted where csv would quote them.

    Rows are joined and written ``_BLOCK_ROWS`` at a time: a block of labels
    by ``_label_texts`` and of numbers by ``_number_texts``, one ``orjson``
    call per column and block. A column whose length is not the first
    column's, an array that is not one-dimensional and a header of another
    width are a ValidationError before the file is created."""
    if len(columns) != len(header):
        raise ValidationError(f"{len(columns)} columns for a header of {len(header)}")
    n = len(columns[0]) if columns else 0
    for name, col in zip(header, columns):
        if isinstance(col, np.ndarray) and col.ndim != 1:
            raise ValidationError(f"column {name!r} has shape {col.shape}, expected one axis")
        if len(col) != n:
            raise ValidationError(f"column {name!r} has {len(col)} rows, "
                                  f"column {header[0]!r} has {n}")
    lone = len(columns) == 1
    texts = [_number_texts if isinstance(col, np.ndarray) and col.dtype.kind in "fiu"
             else partial(_label_texts, lone=lone) for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_label_texts(header, lone)) + "\r\n")
        for lo in range(0, n, _BLOCK_ROWS):
            fields = [text(col[lo:lo + _BLOCK_ROWS]) for text, col in zip(texts, columns)]
            fh.write("\r\n".join([*map(",".join, zip(*fields)), ""]))


def write_grid(path: str, header, dates, tickers, columns) -> None:
    """Write the long-form ``date,ticker,<numbers>`` file that ``read_grid``
    reads by ``write_table``: the ``header`` row, then one row per (date,
    ticker) cell in row-major order, with a number from each (dates, tickers)
    float array of ``columns``."""
    shape = (len(dates), len(tickers))
    columns = [np.asarray(col, dtype=float) for col in columns]
    for col in columns:
        if col.shape != shape:
            raise ValidationError(f"column has shape {col.shape}, expected {shape}")
    write_table(path, header, [[d for d in dates for _ in tickers], list(tickers) * len(dates),
                               *(col.ravel() for col in columns)])


def read_json(path: str):
    """A JSON input file's value: a config or a synthetic spec. A file that is
    not UTF-8 JSON, or holds an integer longer than Python converts, is a
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def write_json(path: str, payload) -> None:
    """The JSON artifact format: two-space indent, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_digest(payload) -> str:
    """sha256 of ``payload`` as JSON with sorted keys."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def is_date(date: str) -> bool:
    """Whether ``date`` has the YYYY-MM-DD shape, under which dates sort as
    strings in calendar order."""
    return len(date) == 10 and date[4] == "-" and date[7] == "-"


def _axis(seen: dict[str, int], given) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels of an axis (``given``, else the seen ones sorted) and the
    position on it of each seen label, in first-seen order (-1: not on it)."""
    labels = tuple(sorted(seen) if given is None else given)
    at = {label: p for p, label in enumerate(labels)}
    return labels, np.array([at.get(s, -1) for s in seen], dtype=np.int64)


# lines per block of the fast read of read_fields: 2048 and 8192 read a
# 100 x 2500 price file equally fast, and ten `semlab validate` calls on it
# and its article cache in one process peaked at 89 MiB with 2048-line blocks,
# against 94 MiB with 8192 (the whole file as one block once took 276-289)
_BLOCK_LINES = 2048
# the bytes the fast read vouches for: printable ASCII but for the quote, the
# backslash, the brackets and the braces, which would change the JSON text it
# builds, and the line ends; a tab, a NUL or a byte past ASCII sends the file
# to the exact loop
_VOUCHED = bytes(sorted(set(range(0x20, 0x7F)) - set(b'"\\[]{}'))) + b"\r\n"
# JSON literals that orjson reads in a number field and float and int do not;
# each holds a "u" or an "l", so a block holding neither is not searched
_LITERALS = (b"true", b"false", b"null")
# each line end as JSON: the CR of a CRLF a space, the LF a comma
_LINE_ENDS = bytes.maketrans(b"\r\n", b" ,")


class Declined(Exception):
    """The fast read cannot vouch for a file; the exact loop reads it."""


def _json_block(lines: list[bytes], width: int, labels: int) -> bytes | None:
    """The block's rows of ``width`` fields as one flat JSON array, the first
    ``labels`` fields of each row quoted as strings and the others left as
    they are; None for a block of blank rows. Blank rows (spaces alone) are
    dropped. Declined on a byte outside ``_VOUCHED``, a CR not before an LF,
    any of ``_LITERALS`` and a row without ``width - 1`` commas, so each
    field of a row is one JSON value and a number field holds no string."""
    data = b"".join(lines)
    if data.translate(None, _VOUCHED) or (
            (b"u" in data or b"l" in data) and any(word in data for word in _LITERALS)):
        raise Declined
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if b"\r" in data and not np.array_equal(np.flatnonzero(raw == ord("\r")), ends - 1):
        raise Declined  # not a CRLF at every line end
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    commas = np.flatnonzero(raw == ord(","))
    if (np.diff(np.searchsorted(commas, ends), prepend=0) != width - 1).any():
        kept = [line for line in lines if line.strip()]
        if len(kept) == len(lines):
            raise Declined
        return _json_block(kept, width, labels) if kept else None
    cuts = commas.reshape(-1, width - 1)[:, :labels]
    quotes = np.concatenate([[0], ends[:-1] + 1, cuts.ravel(), cuts[:, :-1].ravel() + 1])
    text = np.insert(raw, quotes, ord('"')).tobytes().translate(_LINE_ENDS)
    return b"[" + text.removesuffix(b",") + b"]"


def fast_fields(path: str, header: tuple[str, ...] | None, labels: int, number,
                date_field: int):
    """The data rows of a delimited file whose header ``read_header``
    accepts, read ``_BLOCK_LINES`` lines at a time by ``orjson``: for each of
    the ``labels`` leading label fields, a dict of its stripped labels in
    first-seen order and each row's index into it; then the other fields of
    every row, read as ``number`` (``float`` or ``int``), as one flat array.
    Declined on any fault, on a label of field ``date_field`` that is not
    YYYY-MM-DD, and on anything it cannot vouch for.

    ``_json_block`` vouches for a block's bytes and makes it one JSON array,
    which ``orjson.loads`` reads; its numbers are correctly rounded, as
    Python's ``float`` and ``int`` read them. orjson rejects what JSON does
    not spell (``1_0``, ``+5``, ``.5``, ``inf``, ``1e400``), and the read
    declines on it. A float file also declines on a zero read from an integer
    literal, since orjson reads ``-0`` as the integer 0, and the integer
    cache on any number that does not come out as ``int64``. Each block's
    labels are mapped through a dict of its distinct raw labels, then
    stripped."""
    label_at: list[dict[str, int]] = [{} for _ in range(labels)]
    indices = [array("q") for _ in range(labels)]
    # each block's numbers, joined once at the end: a bytearray grown block by
    # block left about 5.5 MiB more peak RSS after reading a 30 x 2500 price
    # file in a process that had just written it
    flat = [np.empty(0, dtype=number)]
    try:
        with open(path, "rb") as fh:
            # a quote left open raises under strict, a CR inside the line anyway
            row = csv.reader([fh.readline().decode("ascii")], strict=True)
            width = len(read_header(row, path, header))
            while lines := list(islice(fh, _BLOCK_LINES)):
                block = _json_block(lines, width, labels)
                if block is None:
                    continue
                values = orjson.loads(block)
                columns = [values[k::width] for k in range(labels)]
                for k in range(labels):
                    del values[::width - k]
                if number is float:
                    numbers = np.array(values, dtype=float)
                    if any(type(values[i]) is int for i in np.flatnonzero(numbers == 0).tolist()):
                        raise Declined  # perhaps -0
                else:
                    numbers = np.array(values)
                    if numbers.dtype != np.int64:
                        raise Declined
                for column, at, out in zip(columns, label_at, indices):
                    local = dict.fromkeys(column)
                    for raw in local:
                        local[raw] = at.setdefault(raw.strip(), len(at))
                    out.extend(map(local.__getitem__, column))
                flat.append(numbers)
    except Exception:  # whatever the fault, the exact loop reports it
        raise Declined from None
    if not all(map(is_date, label_at[date_field])):
        raise Declined
    return label_at, indices, np.concatenate(flat)


def exact_fields(path: str, header: tuple[str, ...] | None, labels: int, number,
                 date_field: int):
    """What ``fast_fields`` returns, read row by row from ``records``, which
    names the line of a row with the wrong field count. Within a row, the
    date in field ``date_field`` is checked the first time it is seen, then
    the numbers are read by ``number``; each fault is a ParseError naming the
    line."""
    label_at: list[dict[str, int]] = [{} for _ in range(labels)]
    indices = [array("q") for _ in range(labels)]
    flat = array("d" if number is float else "q")
    seen = label_at[date_field]
    for lineno, row in records(path, header):
        fields = [field.strip() for field in row[:labels]]
        date = fields[date_field]
        if date not in seen and not is_date(date):
            raise ParseError(f"{path}: line {lineno}: bad date {date!r} (want YYYY-MM-DD)")
        for label, at, out in zip(fields, label_at, indices):
            out.append(at.setdefault(label, len(at)))
        try:
            flat.extend(map(number, row[labels:]))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond int64
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return label_at, indices, np.frombuffer(flat, dtype=number)


def read_fields(path: str, header: tuple[str, ...] | None, labels: int, number,
                date_field: int, build):
    """``build`` applied once to the fields of ``fast_fields`` (orjson over
    the blocks whose bytes it vouches for), or, when it declines, to those of
    ``exact_fields`` (the row loop), and to ``line_of`` for the file. Both
    stages yield the rows of ``records`` in its order, so the result or error
    is the same whichever stage read the file."""
    try:
        fields = fast_fields(path, header, labels, number, date_field)
    except Declined:
        fields = exact_fields(path, header, labels, number, date_field)
    return build(*fields, partial(line_of, path, header))


def _place(path, calendar, universe, label_at, indices, flat, line_of):
    """The dense grid of ``read_grid`` from the fields of ``read_fields``;
    ``line_of`` names the line of a non-finite or duplicate row."""
    (date_at, ticker_at), (di, ti) = label_at, indices
    if not di:
        raise AlignmentError(f"{path}: no data rows")
    values = flat.reshape(len(di), -1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        date, ticker = list(date_at)[di[r]], list(ticker_at)[ti[r]]
        raise ValidationError(f"{path}: non-finite value at ({date}, {ticker}), line {line_of(r)}")
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
            f"{path}: line {line_of(r)}: duplicate row for ({dates[d[r]]}, {tickers[t[r]]})")
    if not count.all():
        missing = np.argwhere(count.reshape(len(dates), len(tickers)).T == 0)
        gaps = "; ".join(f"{tickers[j]} missing {dates[i]}" for j, i in missing[:20])
        more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
        raise AlignmentError(f"{path}: calendar gaps: {gaps}{more}")
    grid = np.empty((len(dates) * len(tickers), values.shape[1]))
    grid[cells] = values[placed]
    return dates, tickers, grid.reshape(len(dates), len(tickers), values.shape[1])


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

    The file is read by ``read_fields``: orjson reads it as JSON where
    ``fast_fields`` vouches for its bytes, and the exact row loop reads any
    other file.
    """
    return read_fields(path, header, 2, float, 0,
                       partial(_place, path, calendar, universe))
