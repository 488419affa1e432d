"""The long-form input files: the rules the price, dense-block and article
loaders share, where the grid reader places rows, and its fast read against
the exact loop it falls back to."""

import contextlib
import csv
import io
import json
import math
import warnings
from decimal import Decimal
from functools import partial
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from semlab import MarketPanel, _grid, signals
from semlab._grid import read_grid, write_grid, write_table
from semlab.cli import main as cli_main
from semlab.errors import AlignmentError, ParseError, ValidationError
from semlab.panels import load_price_panel, write_price_panel
from semlab.signals import CACHE_HEADER, ArticleTable, load_article_scores, write_article_scores

import scalar_write
from conftest import business_days, float_bits

DATES = ("2020-01-02", "2020-01-03")
TICKERS = ("AA", "BB")

# kind -> (header, row for a (date, ticker) cell, loader)
LOADERS = {
    "prices": ("date,ticker,open,high,low,close,volume", "{d},{t},5,5,5,5,10", load_price_panel),
    "dense": ("date,ticker,f0,f1", "{d},{t},1,2",
              lambda path: read_grid(path, None, DATES, TICKERS)[2]),
    "articles": (",".join(CACHE_HEADER), "s-{d}-{t},{t},{d},1,2,3,4", load_article_scores),
}
GRIDS = ("prices", "dense")


def _write(tmp_path, kind, rows=None, header=None):
    """The kind's file holding ``rows`` (default: one row per cell of the grid)."""
    head, fmt, _ = LOADERS[kind]
    if rows is None:
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([head if header is None else header, *rows]) + "\n")
    return str(path)


def _load(kind, path):
    out = LOADERS[kind][2](path)
    if isinstance(out, MarketPanel):
        return out.content_hash()
    return out.tobytes() if isinstance(out, np.ndarray) else out


class TestSharedRules:
    @pytest.mark.parametrize("kind", LOADERS)
    def test_whitespace_only_rows_are_skipped(self, tmp_path, kind):
        rows = [LOADERS[kind][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        expected = _load(kind, _write(tmp_path, kind, rows))
        padded = ["   ", *rows[:2], "", "\t", *rows[2:], " "]
        assert _load(kind, _write(tmp_path, kind, padded)) == expected

    @pytest.mark.parametrize("kind", LOADERS)
    def test_empty_file_is_parse_error_at_line_1(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_text("")
        with pytest.raises(ParseError, match=rf"{kind}\.csv: line 1: empty file"):
            LOADERS[kind][2](str(path))

    @pytest.mark.parametrize("kind, header", [
        ("prices", "a,b,c"),
        ("prices", "date,ticker,open,high,low,close"),
        ("dense", "a,b,c"),
        ("dense", "date,tick,f0"),
        ("dense", "date,ticker"),
        ("articles", "a,b,c"),
    ])
    def test_bad_header_is_parse_error_at_line_1(self, tmp_path, kind, header):
        path = _write(tmp_path, kind, header=header)
        with pytest.raises(ParseError, match=rf"{kind}\.csv: line 1: expected header"):
            LOADERS[kind][2](path)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_wrong_field_count_names_the_line(self, tmp_path, kind):
        rows = [LOADERS[kind][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        rows[2] += ",9"
        with pytest.raises(ParseError, match=rf"{kind}\.csv: line 4: expected \d+ fields"):
            LOADERS[kind][2](_write(tmp_path, kind, rows))

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("fault", ["date", "number", "range"])
    def test_line_numbers_are_physical_lines(self, tmp_path, kind, fault):
        # the first record's last field is quoted and holds a newline (int and
        # float both accept it), so that record spans lines 2-3; a bad date or
        # number is caught in the row loop, a value out of range after it
        fmt = LOADERS[kind][1]
        head, last = fmt.format(d=DATES[0], t="AA").rsplit(",", 1)
        bad = fmt.format(d="2020/01/03" if fault == "date" else DATES[1], t="BB")
        if fault != "date":
            value = "x" if fault == "number" else "9" if kind == "articles" else "inf"
            bad = bad.rsplit(",", 1)[0] + "," + value
        path = _write(tmp_path, kind, [f'{head},"{last}\n"', bad])
        with pytest.raises(ParseError if fault != "range" else ValidationError,
                           match=rf"{kind}\.csv: .*line 4\b"):
            LOADERS[kind][2](path)

    @pytest.mark.parametrize("kind", ["prices", "articles"])
    @pytest.mark.parametrize("date_line, number_line", [(2, 3), (3, 2), (2, 2)])
    def test_the_first_fault_in_row_order_is_named(self, tmp_path, kind, date_line,
                                                   number_line):
        # rows are checked one at a time, and within a row the date before
        # the numbers, so a later line's fault never masks an earlier one's
        fmt = LOADERS[kind][1]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        rows[date_line - 2] = rows[date_line - 2].replace(DATES[0], "2020/01/02")
        rows[number_line - 2] = rows[number_line - 2].rsplit(",", 1)[0] + ",x"
        fault = "bad date" if date_line <= number_line else "(could not convert|invalid literal)"
        with pytest.raises(ParseError, match=rf"{kind}\.csv: line 2: {fault}"):
            LOADERS[kind][2](_write(tmp_path, kind, rows))

    @pytest.mark.parametrize("kind", GRIDS)
    def test_duplicate_cell_names_the_second_line(self, tmp_path, kind):
        fmt = LOADERS[kind][1]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        rows.insert(3, fmt.format(d=DATES[0], t="BB"))
        with pytest.raises(
            ParseError, match=rf"{kind}\.csv: line 5: duplicate row for \(2020-01-02, BB\)$"
        ):
            LOADERS[kind][2](_write(tmp_path, kind, rows))

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("bad", ["2020/01/03", "20200103", "Jan 3 2020"])
    def test_bad_date_names_the_line(self, tmp_path, kind, bad):
        fmt = LOADERS[kind][1]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        rows.append(fmt.format(d=bad, t="AA"))
        with pytest.raises(ParseError, match=rf"{kind}\.csv: line 6: bad date"):
            LOADERS[kind][2](_write(tmp_path, kind, rows))

    @pytest.mark.parametrize("name", ["open", "high", "low", "close"])
    def test_non_positive_price_names_file_and_cell(self, tmp_path, name):
        fmt = LOADERS["prices"][1]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        fields = rows[3].split(",")
        fields[2 + ("open", "high", "low", "close").index(name)] = "0"
        rows[3] = ",".join(fields)
        with pytest.raises(ValidationError,
                           match=rf"prices\.csv: non-positive {name} at \(2020-01-03, BB\)$"):
            load_price_panel(_write(tmp_path, "prices", rows))

    def test_negative_volume_names_file_and_cell(self, tmp_path, capsys):
        fmt = LOADERS["prices"][1]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        rows[0] = rows[0].rsplit(",", 1)[0] + ",0"  # no volume recorded: legal
        rows[3] = rows[3].rsplit(",", 1)[0] + ",-1"
        path = _write(tmp_path, "prices", rows)
        with pytest.raises(ValidationError,
                           match=r"prices\.csv: negative volume at \(2020-01-03, BB\)$"):
            load_price_panel(path)
        assert cli_main(["validate", path]) == 2
        assert "[FAIL] price_panel: " in capsys.readouterr().out

    def test_validate_fails_a_duplicate_price_row(self, tmp_path, capsys):
        fmt = LOADERS["prices"][1]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        path = _write(tmp_path, "prices", [*rows, rows[0]])
        assert cli_main(["validate", path]) == 2
        assert "[FAIL] price_panel:" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, given, bad_row", [
        ("prices", "price_panel", "2020-01-02,AA,5,5,5,-5,10"),
        ("articles", "signal_cache", "s-x,AA,2020/01/03,1,2,3,4"),
    ])
    def test_validate_rejects_a_second_file_of_a_kind(self, tmp_path, capsys, kind, given,
                                                      bad_row):
        # the first file used to be dropped: a bad panel before a good one passed
        (tmp_path / "bad").mkdir()
        bad, good = _write(tmp_path / "bad", kind, [bad_row]), _write(tmp_path, kind)
        assert cli_main(["validate", bad, good]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"config error: two {given} files given, {bad} and {good}" in err

    @pytest.mark.parametrize("row, failed", [
        ("s-x,AA,2020/01/03,1,2,3,4", "[FAIL] signal_cache: "),
        ("s-x,ZZ,2020-01-03,1,2,3,4", "[FAIL] cache_tickers_in_universe: unknown tickers: ['ZZ']"),
    ])
    def test_validate_fails_a_bad_article_cache(self, tmp_path, capsys, row, failed):
        prices = _write(tmp_path, "prices")
        fmt = LOADERS["articles"][1]
        cache = _write(tmp_path, "articles", [fmt.format(d=DATES[1], t="BB"), row])
        assert cli_main(["validate", prices, cache]) == 2
        assert failed in capsys.readouterr().out

    @pytest.mark.parametrize("kind, given", [("prices", "price_panel"),
                                             ("articles", "signal_cache")])
    @pytest.mark.parametrize("spelling", ["spaced", "quoted"])
    def test_validate_sniffs_a_header_the_loaders_accept(self, tmp_path, capsys, kind, given,
                                                         spelling):
        names = LOADERS[kind][0].split(",")
        header = (", ".join(names) if spelling == "spaced"
                  else ",".join(f'"{name}"' for name in names))
        path = _write(tmp_path, kind, header=header)
        LOADERS[kind][2](path)
        assert cli_main(["validate", path]) == 0
        assert f"[PASS] {given}: " in capsys.readouterr().out

    def test_validate_rejects_an_unknown_header(self, tmp_path, capsys):
        path = _write(tmp_path, "prices", header=" date ,ticker,price")
        assert cli_main(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: unrecognised header 'date,ticker,price'\n")



class TestNotUtf8:
    """A byte that is not UTF-8 is a ParseError naming its line, in the
    loaders and through both commands, never a UnicodeDecodeError."""

    def _bad_ticker(self, tmp_path, kind, line_end=b"\n", pad_rows=0):
        """The kind's file with ticker ``B\xffB`` on its last line; returns
        the path and that line's number."""
        head, fmt, _ = LOADERS[kind]
        rows = [fmt.format(d=d, t=t) for d in DATES for t in TICKERS]
        rows = [rows[0]] * pad_rows + rows  # a duplicate is read as far as the bad byte
        lines = [line.encode() for line in (head, *rows)]
        lines.append(fmt.format(d=DATES[1], t="B\udcffB").encode("utf-8", "surrogateescape"))
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(line_end.join([*lines, b""]))
        return str(path), len(lines)

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"])
    def test_the_loaders_name_the_line(self, tmp_path, kind, line_end):
        path, line = self._bad_ticker(tmp_path, kind, line_end)
        with pytest.raises(ParseError, match=rf"{kind}\.csv: line {line}: "
                                             r"byte 0xff is not UTF-8 text$"):
            LOADERS[kind][2](path)

    def test_a_byte_past_the_first_read_chunk_names_its_line(self, tmp_path):
        path, line = self._bad_ticker(tmp_path, "prices", pad_rows=2000)
        with pytest.raises(ParseError, match=rf"line {line}: byte 0xff is not UTF-8 text$"):
            load_price_panel(path)

    @pytest.mark.parametrize("kind, given", [("prices", "price_panel"),
                                             ("articles", "signal_cache")])
    def test_validate_prints_a_fail_line(self, tmp_path, capsys, kind, given):
        path, line = self._bad_ticker(tmp_path, kind)
        assert cli_main(["validate", path]) == 2
        assert (f"[FAIL] {given}: {path}: line {line}: byte 0xff is not UTF-8 text"
                in capsys.readouterr().out)

    def test_validate_refuses_a_header_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,ticker,\xffopen,high,low,close,volume\n")
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: unrecognised header 'date,ticker,\\udcffopen,high,"
            "low,close,volume'\n")

    def test_run_is_a_data_error_naming_the_line(self, tmp_path, capsys):
        path, line = self._bad_ticker(tmp_path, "prices")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "sfp", "seed": 1, "output_dir": str(tmp_path / "out"),
            "data": {"price_panel": path},
            "ranges": {"train": [DATES[0]] * 2, "test": [DATES[1]] * 2}}))
        assert cli_main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: line {line}: byte 0xff is not UTF-8 text\n")

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_a_json_input_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"universe": ["B\xffB"]}')
        argv = [command, str(path)] + (["1"] if command == "synth" else [])
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: not valid JSON: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_a_json_integer_too_long_to_convert_is_a_config_error(self, tmp_path, capsys,
                                                                 command):
        path = tmp_path / "in.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        argv = [command, str(path)] + (["1"] if command == "synth" else [])
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: not valid JSON: Exceeds the limit")


# ---------------------------------------------------------------------------
# Placement: a complete grid reads back the same whatever the row order
# and whatever rows lie outside a given calendar and universe
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def grids(draw):
    n_d, n_t, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dates = business_days("2020-01-02", n_d)
    tickers = tuple(sorted(draw(st.sets(st.text("ABCXYZ", min_size=1, max_size=3),
                                        min_size=n_t, max_size=n_t))))
    values = np.array(draw(st.lists(finite, min_size=n_d * n_t * k, max_size=n_d * n_t * k)))
    return dates, tickers, values.reshape(n_d, n_t, k)


def _grid_file(path, grid, extra, rnd):
    """The grid's cells, plus a row per (date, ticker) in ``extra``, shuffled."""
    dates, tickers, values = grid
    rows = [[d, t, *map(repr, values[i, j].tolist())]
            for i, d in enumerate(dates) for j, t in enumerate(tickers)]
    rows += [[d, t, *["1.5"] * values.shape[2]] for d, t in extra]
    rnd.shuffle(rows)
    header = ["date", "ticker", *(f"c{c}" for c in range(values.shape[2]))]
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return str(path)


@given(grids(), st.randoms(use_true_random=False))
def test_any_row_order_reads_the_same_grid(tmp_path_factory, grid, rnd):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    dates, tickers, values = read_grid(_grid_file(path, grid, [], rnd))
    assert (dates, tickers) == grid[:2]
    assert values.tobytes() == grid[2].tobytes()


@given(grids(), st.randoms(use_true_random=False))
def test_rows_outside_a_given_calendar_and_universe_are_skipped(tmp_path_factory, grid, rnd):
    dates, tickers, _ = grid
    extra = [("2019-12-31", tickers[0]), (dates[-1], "QQQQ"), ("2021-06-01", "QQQQ")]
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    got = read_grid(_grid_file(path, grid, extra, rnd), None, dates, tickers)
    assert got[:2] == grid[:2]
    assert got[2].tobytes() == grid[2].tobytes()


positive = st.floats(min_value=1e-300, max_value=1e300)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_price_panel_write_then_load_is_bit_exact(tmp_path_factory, n_d, n_t, data):
    def block(elements):
        return np.array(data.draw(st.lists(elements, min_size=n_d * n_t, max_size=n_d * n_t)),
                        dtype=float).reshape(n_d, n_t)

    panel = MarketPanel(
        dates=business_days("2020-01-02", n_d), tickers=tuple(f"T{j}" for j in range(n_t)),
        close=block(positive), open=block(positive), high=block(positive), low=block(positive),
        volume=block(st.floats(min_value=0.0, max_value=1e300)),
    )
    path = str(tmp_path_factory.mktemp("prices") / "prices.csv")
    write_price_panel(panel, path)
    loaded = load_price_panel(path)
    assert (loaded.dates, loaded.tickers) == (panel.dates, panel.tickers)
    for name in ("close", "open", "high", "low", "volume"):
        assert getattr(loaded, name).tobytes() == getattr(panel, name).tobytes(), name


# labels csv must quote or must not drop: empty, delimiter, quote, space, newline
awkward_labels = st.lists(
    st.one_of(st.sampled_from(["", ",", '"', " ", "\n"]), st.text('ab ,"\n', max_size=4)),
    min_size=1, max_size=4, unique=True,
)


@given(st.integers(1, 70), awkward_labels, st.booleans(), st.data())
def test_price_panel_writer_matches_the_scalar_oracle(tmp_path_factory, n_d, labels, pooled,
                                                      data):
    # up to 70 dates: many of the writer's blocks; a pooled panel repeats a
    # few numbers within and across columns, and its volumes hold -0.0 beside
    # 0.0, equal but printed apart
    tickers = tuple(sorted(labels))  # the loader's ticker order
    shape = (n_d, len(tickers))
    prices, volumes = positive, st.floats(min_value=0.0, max_value=1e300)
    if pooled:
        pool = data.draw(st.lists(positive, min_size=1, max_size=3), label="pool")
        prices, volumes = st.sampled_from(pool), st.sampled_from([0.0, -0.0, *pool])

    def block(elements):
        size = n_d * len(tickers)
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    def maybe(elements):
        return block(elements) if data.draw(st.booleans(), label="present") else None

    panel = MarketPanel(
        dates=business_days("2020-01-02", n_d), tickers=tickers,
        close=block(prices), open=maybe(prices), high=maybe(prices), low=maybe(prices),
        volume=maybe(volumes),
    )
    tmp = tmp_path_factory.mktemp("writer")
    write_price_panel(panel, str(tmp / "grid.csv"))
    scalar_write.write_price_panel(panel, str(tmp / "scalar.csv"))
    assert (tmp / "grid.csv").read_bytes() == (tmp / "scalar.csv").read_bytes()

    if all(t == t.strip() for t in tickers):  # read_grid strips labels
        loaded = load_price_panel(str(tmp / "grid.csv"))
        assert (loaded.dates, loaded.tickers) == (panel.dates, panel.tickers)
        for name, want in (("open", panel.open), ("high", panel.high), ("low", panel.low),
                           ("close", panel.close)):
            want = panel.close if want is None else want
            assert getattr(loaded, name).tobytes() == want.tobytes(), name
        volume = np.zeros(shape) if panel.volume is None else panel.volume
        assert loaded.volume.tobytes() == volume.tobytes()


@given(st.lists(float_bits, max_size=40))
def test_float_texts_are_reprs(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    assert _grid._float_texts(values) == [repr(x) for x in values.tolist()]


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# the edges of the range orjson's text is trusted in, and numbers whose
# shortest text is an integer
EDGES = [*_around(1e-4), *_around(-1e-4), *_around(1e16), *_around(-1e16), *_around(2.0 ** 53),
         1.0, -3.0, 100.0, 123456789.0, 1e15, 4503599627370496.0, 0.0, -0.0,
         5e-324, 1.7976931348623157e308, np.nan, -np.nan, np.inf, -np.inf]


def test_float_texts_at_the_edges_are_reprs():
    values = np.array(EDGES)
    assert _grid._float_texts(values) == [repr(x) for x in values.tolist()]
    assert _grid._float_texts(np.array([])) == []


def test_grid_writer_rejects_a_column_off_the_grid(tmp_path):
    with pytest.raises(ValidationError, match=r"column has shape \(2, 1\), expected \(2, 2\)"):
        write_grid(str(tmp_path / "grid.csv"), ("date", "ticker", "x"), DATES, TICKERS,
                   [np.ones((2, 1))])
    # a column of another length than the first is refused before the file is made
    path = tmp_path / "table.csv"
    with pytest.raises(ValidationError, match=r"^column 'weight' has 3 rows, column 'date' has 2$"):
        write_table(str(path), ("date", "weight"), [DATES, np.ones(3)])
    with pytest.raises(ValidationError, match=r"^column 'x' has shape \(2, 2\), expected one axis$"):
        write_table(str(path), ("date", "x"), [DATES, np.ones((2, 2))])
    with pytest.raises(ValidationError, match=r"^1 columns for a header of 2$"):
        write_table(str(path), ("date", "x"), [DATES])
    assert not path.exists()
    # a one-column table keeps csv's rule for a row of one empty field: it is
    # written "", where a row of two empty fields is a lone comma
    write_table(str(path), ("x",), [["", "a", ",", ""]])
    assert path.read_bytes() == b'x\r\n""\r\na\r\n","\r\n""\r\n'
    write_table(str(path), ("x", "y"), [["", "a"], ["", ""]])
    assert path.read_bytes() == b"x,y\r\n,\r\na,\r\n"


# ---------------------------------------------------------------------------
# The fast read: whatever orjson reads, read_grid returns or raises exactly
# what the row-by-row loop does, and clean files never reach that loop
# ---------------------------------------------------------------------------

@given(st.lists(float_bits, max_size=40))
def test_orjson_reads_float_reprs_bit_for_bit(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    values = values[np.isfinite(values)]
    texts = [repr(x) for x in values.tolist()]
    got = orjson.loads("[" + ",".join(texts) + "]")
    assert np.array(got, dtype=float).tobytes() == values.tobytes()


@st.composite
def decimal_texts(draw):
    """Decimal numbers of 17 to 25 significant digits: random digits at any
    exponent, or an exact halfway point between two adjacent doubles, as it
    is or one unit in its last digit away."""
    sign = draw(st.sampled_from(["", "-"]))
    if draw(st.booleans()):
        digits = str(draw(st.integers(10 ** 16, 10 ** 25 - 1)))
        return f"{sign}{digits[0]}.{digits[1:]}e{draw(st.integers(-360, 300))}"
    low = float(draw(st.integers(2 ** 50, 2 ** 83)))
    mid = (Decimal(low) + Decimal(np.nextafter(low, np.inf))) / 2  # exact in 28 digits
    _, digits, exponent = mid.as_tuple()
    mantissa = int("".join(map(str, digits))) + draw(st.sampled_from([-1, 0, 1]))
    return f"{sign}{mantissa}e{exponent}"


@settings(max_examples=500)
@given(decimal_texts())
def test_orjson_reads_long_decimals_as_float_does(text):
    want = float(text)
    if math.isinf(want):  # where float overflows, orjson raises
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
    else:
        assert np.float64(orjson.loads(text)).tobytes() == np.float64(want).tobytes()


def test_orjson_reads_minus_zero_as_the_integer_zero():
    # the one spelling where orjson's number and float's differ in sign, so
    # the fast read declines a zero read from an integer literal
    assert orjson.loads("-0") == 0 and type(orjson.loads("-0")) is int
    assert math.copysign(1, orjson.loads("-0.0")) == -1


@pytest.mark.parametrize("zero, fast", [("-0.0", True), ("-0", False)])
def test_a_negative_zero_volume_keeps_its_sign(tmp_path, zero, fast):
    rows = [LOADERS["prices"][1].format(d=d, t=t) for d in DATES for t in TICKERS]
    rows[1] = rows[1].rsplit(",", 1)[0] + "," + zero
    with _fast_only() if fast else contextlib.nullcontext():
        volume = load_price_panel(_write(tmp_path, "prices", rows)).volume
    assert math.copysign(1, volume[0, 1]) == -1
    assert (volume == [[10, 0], [10, 10]]).all()


def _exact(path, header=None, calendar=None, universe=None):
    """``read_grid`` through the exact loop alone."""
    fields = _grid.exact_fields(path, header, 2, float, 0)
    return _grid._place(path, calendar, universe, *fields, partial(_grid.line_of, path, header))


def _outcome(read, *args):
    """What a read returns, or the type and message of what it raises."""
    try:
        dates, tickers, grid = read(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return dates, tickers, grid.shape, grid.tobytes()


def _fast_only(block_lines=_grid._BLOCK_LINES):
    """A context in which the fast read reads ``block_lines`` lines per block
    and falling back to the exact loop fails the test."""
    return mock.patch.multiple(_grid, _BLOCK_LINES=block_lines, exact_fields=mock.Mock(
        side_effect=AssertionError("the fast read declined")))


# number spellings where JSON and Python's float part ways: -0 is JSON's
# integer 0, 1e400 no JSON number, true a JSON literal, [1] a JSON array
JSON_NUMBERS = ["-0", "0", "1E5", "1e400", "-1e-400", "true", "false", "null",
                "123456789012345678901234567890", "[1]", "{}"]
# labels the fast read's JSON text would misread, or whose bytes it does not
# vouch for: longer than the old fixed-width fields, a NUL, a JSON escape
# (backslash t), a backslash, brackets, a brace and a byte past ASCII
ODD_LABELS = ["T" * 20, "A\0", "A\\tB", "A\\", "[A", "A]", "{", "A\xe9"]
# those spellings, spellings Python's float reads and JSON does not, numbers
# that are no numbers, and padding and quoting the csv module strips
odd_numbers = st.sampled_from(["1_0", "\u0661", "inf", "-nan", "", "x", "0x10", " 2.5 ", "+.5",
                               "1e3", "-0.0", "\t7\t", '"3"', '" 4 "', "\xa05", "\u30005",
                               "\x1c6", "6\x1f", *JSON_NUMBERS])
MUTATIONS = ("extra field", "duplicate", "gap", "bad date", "odd label", "odd number",
             "line end")


def _mutate_line_end(draw, text):
    """``text`` with one line end replaced by a lone CR, a CRLF, an LF or a
    CR CR LF, so its line ends may be mixed."""
    at = draw(st.sampled_from([i for i, c in enumerate(text) if c == "\n"]))
    start = at - 1 if text[at - 1:at] == "\r" else at
    return text[:start] + draw(st.sampled_from(["\r", "\r\n", "\n", "\r\r\n"])) + text[at + 1:]


@st.composite
def grid_files(draw):
    """(file text, header argument, calendar, universe) for a grid file with
    awkward labels and spellings, written through csv or joined raw, with up
    to two mutations that may make it fail (each perhaps to a line end), and
    up to two blank rows."""
    k = draw(st.integers(1, 3))
    dates = business_days("2020-01-02", draw(st.integers(1, 3)))
    label = st.text("AB", min_size=1, max_size=4) | st.text('AB ,"\n\r\t', min_size=1, max_size=4)
    tickers = draw(st.lists(label, min_size=1, max_size=3, unique_by=str.strip))
    header = ["date", "ticker", *(f"c{c}" for c in range(k))]
    rows = [[d, t, *map(repr, draw(st.lists(finite, min_size=k, max_size=k)))]
            for d in dates for t in tickers]
    rows = draw(st.permutations(rows))
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))
    for mutation in mutations:
        r = draw(st.integers(0, len(rows) - 1))
        if mutation == "extra field":
            rows[r] = [*rows[r], ""]
        elif mutation == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[r]))
        elif mutation == "gap" and len(rows) > 1:
            del rows[r]
        elif mutation == "bad date":
            rows[r] = ["2020/01/02", *rows[r][1:]]
        elif mutation == "odd label":
            old, new = rows[r][1], draw(st.sampled_from(ODD_LABELS))
            rows = [[row[0], new if row[1] == old else row[1], *row[2:]] for row in rows]
        elif mutation == "odd number" and len(rows[r]) > 2:
            rows[r] = [*rows[r][:2], draw(odd_numbers), *rows[r][3:]]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [""], ["  "]])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from(["minimal", "all", "raw"]))
    if quoting == "raw":  # labels unquoted: a stray quote or newline stays as it is
        text = "".join(",".join(row) + newline for row in [header, *rows])
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=newline,
                   quoting=csv.QUOTE_ALL if quoting == "all" else csv.QUOTE_MINIMAL
                   ).writerows([header, *rows])
        text = buf.getvalue()
    for _ in range(mutations.count("line end")):
        text = _mutate_line_end(draw, text)
    labels = sorted({t.strip() for t in tickers} | {"QQ"})
    calendar = draw(st.none() | st.lists(st.sampled_from([*dates, "2021-01-04"]), min_size=1,
                                         unique=True).map(sorted).map(tuple))
    universe = draw(st.none() | st.lists(st.sampled_from(labels), min_size=1,
                                         unique=True).map(tuple))
    return text, draw(st.sampled_from([None, tuple(header)])), calendar, universe


@settings(max_examples=500)
@given(grid_files(), st.integers(1, 5) | st.just(_grid._BLOCK_LINES))
def test_read_grid_equals_the_exact_loop(tmp_path_factory, file, block_lines):
    text, header, calendar, universe = file
    path = tmp_path_factory.mktemp("fast") / "grid.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(_grid, "_BLOCK_LINES", block_lines):
        got = _outcome(read_grid, str(path), header, calendar, universe)
    assert got == _outcome(_exact, str(path), header, calendar, universe)


@given(grids(), st.randoms(use_true_random=False), st.integers(1, 5))
def test_clean_files_take_the_fast_read(tmp_path_factory, grid, rnd, block_lines):
    dates, tickers, values = grid
    extra = [("2019-12-31", tickers[0]), (dates[-1], "QQQQ")]
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    with _fast_only(block_lines):
        got = read_grid(_grid_file(path, grid, extra, rnd), None, dates, tickers)
    assert got[:2] == grid[:2]
    assert got[2].tobytes() == values.tobytes()


class TestFastRead:
    @pytest.mark.parametrize("kind", GRIDS)
    def test_trailing_extra_field_names_its_line(self, tmp_path, kind):
        rows = [LOADERS[kind][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        rows[1] += ","
        n = LOADERS[kind][0].count(",") + 1
        with pytest.raises(ParseError,
                           match=rf"{kind}\.csv: line 3: expected {n} fields, got {n + 1}$"):
            LOADERS[kind][2](_write(tmp_path, kind, rows))

    def test_a_label_longer_than_the_fast_field_reads_whole(self, tmp_path):
        long = "T" * 20
        rows = [LOADERS["prices"][1].format(d=d, t=t) for d in DATES for t in ("AA", long)]
        panel = load_price_panel(_write(tmp_path, "prices", rows))
        assert panel.tickers == ("AA", long)

    def test_a_padded_long_label_is_not_cut_onto_another(self, tmp_path):
        # cut to the old 16-character label field, the second label would strip to AB
        path = tmp_path / "grid.csv"
        path.write_text(f"date,ticker,x\n2020-01-02,AB,1\n2020-01-03,{' ' * 14}ABCD,2\n")
        with pytest.raises(AlignmentError, match=r"calendar gaps: AB missing 2020-01-03; "):
            read_grid(str(path))

    @pytest.mark.parametrize("number", ["\x1c5", "5\x1f"])
    def test_a_number_only_loadtxt_reads_names_its_line(self, tmp_path, number):
        # Python's float does not strip the separators U+001C-U+001F
        rows = [LOADERS["prices"][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        rows[2] = rows[2].rsplit(",", 1)[0] + "," + number
        with pytest.raises(ParseError, match=r"prices\.csv: line 4: could not convert"):
            load_price_panel(_write(tmp_path, "prices", rows))

    def test_underscored_number_reads_as_float_does(self, tmp_path):
        rows = [LOADERS["prices"][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        rows[0] = rows[0].rsplit(",", 1)[0] + ",1_0"
        assert load_price_panel(_write(tmp_path, "prices", rows)).volume[0, 0] == 10.0

    def test_a_nul_in_a_label_is_kept(self, tmp_path):
        # the fast read declines a NUL, and the exact loop keeps it
        path = tmp_path / "grid.csv"
        path.write_text("date,ticker,x\n2020-01-02,A\0,1\n2020-01-02,B,2\n")
        assert read_grid(str(path))[1] == ("A\0", "B")

    def test_a_quoted_field_across_blocks_names_its_line(self, tmp_path):
        # read alone, the second line would pass for a row dated 2020-01-0"
        path = tmp_path / "grid.csv"
        path.write_text('date,ticker,x\n2020-01-02,AA,"1\n2020-01-0",AA,2\n')
        with mock.patch.object(_grid, "_BLOCK_LINES", 1), pytest.raises(
                ParseError, match=r"grid\.csv: line 2: expected 3 fields, got 5$"):
            read_grid(str(path))

    @pytest.mark.parametrize("text", [
        *(f"date,ticker,x\n2020-01-02,AA,1\n2020-01-02,BB,{n}\n" for n in JSON_NUMBERS),
        *(f"date,ticker,x\n2020-01-02,AA,1\n2020-01-02,{t},2\n" for t in ODD_LABELS),
        "date,ticker,x\r\n2020-01-02,AA,1\r2020-01-02,BB,2\r\n",  # a lone CR
        "date,ticker,x\r\n2020-01-02,AA,1\n2020-01-02,BB,2\r\n",  # CRLF and LF
        "date,ticker,x\r\n2020-01-02\r,AA,1\n2020-01-02,BB,2\r\n",  # as many CRs as LFs
        "date,ticker,x\n2020-01-02,AA,\t1\n2020-01-02,BB,2\n",
        "date,ticker,x\n2020-01-02,AA,[1]\n2020-01-02,BB,[2]\n",  # every number a JSON array
        'date,ticker,"x\n2020-01-02,AA,1\n',  # the header's quote left open
    ])
    def test_where_json_and_python_part_ways_reads_as_the_exact_loop(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_bytes(text.encode())
        assert _outcome(read_grid, str(path)) == _outcome(_exact, str(path))

    @pytest.mark.parametrize("block_lines", [1, _grid._BLOCK_LINES])
    def test_a_duplicate_row_read_fast_names_its_line(self, tmp_path, block_lines):
        # the fast read keeps no line numbers: the line is found past the blank rows
        rows = [LOADERS["prices"][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        path = _write(tmp_path, "prices", ["", *rows, "  ", rows[1]])
        with _fast_only(block_lines), pytest.raises(
                ParseError, match=r"prices\.csv: line 8: duplicate row for \(2020-01-02, BB\)$"):
            load_price_panel(path)

    @pytest.mark.parametrize("kind", GRIDS)
    def test_blank_rows_read_without_a_warning(self, tmp_path, kind):
        rows = [LOADERS[kind][1].format(d=d, t=t) for d in DATES for t in TICKERS]
        padded = ["", *rows[:2], "", "", "", *rows[2:], "", ""]
        expected = _load(kind, _write(tmp_path, kind, rows))
        path = _write(tmp_path, kind, padded)
        with warnings.catch_warnings(), _fast_only(block_lines=2):  # a block of blanks
            warnings.simplefilter("error")
            assert _load(kind, path) == expected


# ---------------------------------------------------------------------------
# The article cache's fast read: the same stages over three label fields and
# integer scores, equal to its exact loop in result, error type and message
# ---------------------------------------------------------------------------

def _exact_cache(path):
    """``load_article_scores`` through the exact loop alone."""
    fields = _grid.exact_fields(path, CACHE_HEADER, 3, int, 2)
    return signals._articles(path, *fields, partial(_grid.line_of, path, CACHE_HEADER))


def _cache_outcome(read, path):
    """What a cache read returns, or the type and message of what it raises."""
    try:
        table = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return table.source_ids, table.tickers, table.dates, table.scores.shape, table.scores.tobytes()


# score spellings where JSON and Python's int part ways: 3.0 and 3e0 are JSON
# numbers, but not ints, 2**63 and 2**64 do not fit int64
JSON_SCORES = ["3.0", "3e0", "1E5", "1e400", "-1e-400", "true", "false", "null", "[1]", "{}",
               "9223372036854775808", "18446744073709551616"]
# those spellings, spellings Python's int reads and JSON does not, numbers out
# of int64 or out of [1, 5], and padding the csv module strips
odd_scores = st.sampled_from(["1_0", "٣", "\x1c3", "3\x1f", " +3 ", "\t2\t", "\xa02",
                              "　4", "３", "03", "-0", "0", "6", "-1", "1e0", "", "x", '"3"',
                              "99999999999999999999", "5\x0b", "\x853", *JSON_SCORES])
CACHE_MUTATIONS = ("extra field", "bad date", "long id", "nul", "odd score", "out of range",
                   "quoted newline", "odd label", "line end")


@st.composite
def cache_files(draw):
    """The text of an article cache with plain or awkward ids and tickers,
    written through csv or joined raw, with up to two mutations that may make
    it fail (each perhaps to a line end), and up to two blank rows."""
    dates = business_days("2020-01-02", 3)
    label = st.text('AB ,"\n\r\t' if draw(st.booleans()) else "AB", min_size=1, max_size=4)
    rows = [[draw(label), draw(label), draw(st.sampled_from(dates)),
             *map(str, draw(st.lists(st.integers(1, 5), min_size=4, max_size=4)))]
            for _ in range(draw(st.integers(1, 6)))]
    mutations = draw(st.lists(st.sampled_from(CACHE_MUTATIONS), max_size=2))
    for mutation in mutations:
        r = draw(st.integers(0, len(rows) - 1))
        if mutation == "extra field":
            rows[r] = [*rows[r], ""]
        elif mutation == "bad date":
            rows[r][2] = draw(st.sampled_from(["2020/01/02", " 2020-01-02", "20200102"]))
        elif mutation == "long id":  # as long as the old fixed-width id field, or longer
            rows[r][0] = "I" * draw(st.sampled_from([32, 40]))
        elif mutation == "nul":
            rows[r][draw(st.integers(0, 1))] += "\0"
        elif mutation == "odd score":
            rows[r][draw(st.integers(3, 6))] = draw(odd_scores)
        elif mutation == "out of range":
            rows[r][draw(st.integers(3, 6))] = draw(st.sampled_from(["0", "6", "-1", " 9"]))
        elif mutation == "quoted newline":  # int reads "3\n"; the record spans lines
            rows[r][6] += "\n"
        elif mutation == "odd label":
            rows[r][draw(st.integers(0, 1))] += draw(st.sampled_from(ODD_LABELS))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [""], ["  "]])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from(["minimal", "all", "raw"]))
    table = [list(CACHE_HEADER), *rows]
    if quoting == "raw":
        text = "".join(",".join(row) + newline for row in table)
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=newline, quoting=csv.QUOTE_ALL if quoting == "all"
                   else csv.QUOTE_MINIMAL).writerows(table)
        text = buf.getvalue()
    for _ in range(mutations.count("line end")):
        text = _mutate_line_end(draw, text)
    return text


@settings(max_examples=500)
@given(cache_files(), st.integers(1, 5) | st.just(_grid._BLOCK_LINES))
def test_load_article_scores_equals_the_exact_loop(tmp_path_factory, text, block_lines):
    path = tmp_path_factory.mktemp("cache") / "cache.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(_grid, "_BLOCK_LINES", block_lines):
        got = _cache_outcome(load_article_scores, str(path))
    assert got == _cache_outcome(_exact_cache, str(path))


@given(st.lists(st.tuples(st.text("AB -.", min_size=1, max_size=6).map(str.strip),
                          st.sampled_from(TICKERS), st.sampled_from(DATES),
                          st.lists(st.integers(1, 5), min_size=4, max_size=4)), max_size=12),
       st.integers(1, 5))
def test_clean_cache_takes_the_fast_read(tmp_path_factory, rows, block_lines):
    articles = ArticleTable([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
                            np.array([r[3] for r in rows], dtype=np.int64).reshape(-1, 4))
    path = str(tmp_path_factory.mktemp("cache") / "cache.csv")
    write_article_scores(articles, path)
    with mock.patch.object(_grid, "_BLOCK_LINES", block_lines), mock.patch.object(
            _grid, "exact_fields", side_effect=AssertionError("the fast read declined")):
        assert load_article_scores(path) == articles


class TestCacheFastRead:
    def _cache(self, tmp_path, score="1", source_id="s-1"):
        """A two-row cache whose second row's last score is ``score`` and
        whose first row's id is ``source_id``, read with no quote in it."""
        rows = [f"{source_id},AA,{DATES[0]},1,2,3,4", f"s-2,BB,{DATES[1]},1,2,3,{score}"]
        return _write(tmp_path, "articles", rows)

    @pytest.mark.parametrize("score", ["\x1c3", "3\x1f"])
    def test_a_score_only_loadtxt_reads_names_its_line(self, tmp_path, score):
        # Python's int does not strip the separators U+001C-U+001F
        with pytest.raises(ParseError, match=r"articles\.csv: line 3: invalid literal"):
            load_article_scores(self._cache(tmp_path, score))

    @pytest.mark.parametrize("score", JSON_SCORES)
    def test_a_json_score_reads_as_the_exact_loop(self, tmp_path, score):
        path = self._cache(tmp_path, score)
        assert _cache_outcome(load_article_scores, path) == _cache_outcome(_exact_cache, path)

    @pytest.mark.parametrize("score", ["0_3", "٣", "３"])
    def test_a_score_only_int_reads_reads_as_int_does(self, tmp_path, score):
        assert load_article_scores(self._cache(tmp_path, score)).scores[1, 3] == 3

    def test_an_overflowing_score_names_its_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"articles\.csv: line 3: int too big to convert$"):
            load_article_scores(self._cache(tmp_path, "9" * 20))

    @pytest.mark.parametrize("extra", [0, 8])
    def test_an_id_as_long_as_the_fast_field_reads_whole(self, tmp_path, extra):
        source_id = "I" * (32 + extra)  # the old fixed-width id field held 31
        table = load_article_scores(self._cache(tmp_path, source_id=source_id))
        assert table.source_ids == (source_id, "s-2")

    def test_a_padded_long_id_is_not_cut_onto_another(self, tmp_path):
        # cut to the old 32-character id field, the padded id would strip to s-2
        source_id = " " * 29 + "s-2X"
        table = load_article_scores(self._cache(tmp_path, source_id=source_id))
        assert table.source_ids == ("s-2X", "s-2")

    @pytest.mark.parametrize("block_lines", [1, _grid._BLOCK_LINES])
    def test_a_score_out_of_range_read_fast_names_its_line(self, tmp_path, block_lines):
        rows = ["", f"s-1,AA,{DATES[0]},1,2,3,4", "", f"s-2,BB,{DATES[1]},1,2,3,6"]
        with _fast_only(block_lines), pytest.raises(ValidationError, match=(
                r"articles\.csv: line 5: volatility_forecast score 6 outside \[1, 5\] "
                r"for \(2020-01-03, BB\)$")):
            load_article_scores(_write(tmp_path, "articles", rows))

    def test_a_nul_in_an_id_is_kept(self, tmp_path):
        # the fast read declines a NUL, and the exact loop keeps it
        assert load_article_scores(self._cache(tmp_path, source_id="s\0")).source_ids[0] == "s\0"

    def test_a_quoted_field_across_blocks_names_its_line(self, tmp_path):
        # read alone, the second line would pass for a row with the id s-2"
        path = tmp_path / "articles.csv"
        path.write_text(",".join(CACHE_HEADER) + f'\ns-1,AA,{DATES[0]},1,2,3,"4\n'
                        f's-2",BB,{DATES[1]},1,2,3,4\n')
        with mock.patch.object(_grid, "_BLOCK_LINES", 1), pytest.raises(
                ParseError, match=r"articles\.csv: line 2: expected 7 fields, got 13$"):
            load_article_scores(str(path))
