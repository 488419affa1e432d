"""The long-form input files: the rules the price, dense-block and article
loaders share, and where the grid reader places rows."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlab import MarketPanel
from semlab._grid import read_grid, write_grid
from semlab.cli import main as cli_main
from semlab.errors import ParseError, ValidationError
from semlab.experiments import _load_dense_block
from semlab.panels import load_price_panel, write_price_panel
from semlab.signals import CACHE_HEADER, load_article_scores

import scalar_write
from conftest import business_days

DATES = ("2020-01-02", "2020-01-03")
TICKERS = ("AA", "BB")

# kind -> (header, row for a (date, ticker) cell, loader)
LOADERS = {
    "prices": ("date,ticker,open,high,low,close,volume", "{d},{t},5,5,5,5,10", load_price_panel),
    "dense": ("date,ticker,f0,f1", "{d},{t},1,2",
              lambda path: _load_dense_block(path, DATES, TICKERS)),
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


@given(st.integers(1, 70), awkward_labels, st.data())
def test_price_panel_writer_matches_the_scalar_oracle(tmp_path_factory, n_d, labels, data):
    tickers = tuple(sorted(labels))  # the loader's ticker order
    shape = (n_d, len(tickers))

    def block(elements):
        size = n_d * len(tickers)
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    def maybe(elements):
        return block(elements) if data.draw(st.booleans(), label="present") else None

    panel = MarketPanel(
        dates=business_days("2020-01-02", n_d), tickers=tickers,
        close=block(positive), open=maybe(positive), high=maybe(positive), low=maybe(positive),
        volume=maybe(st.floats(min_value=0.0, max_value=1e300)),
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


def test_grid_writer_rejects_a_column_off_the_grid(tmp_path):
    with pytest.raises(ValidationError, match=r"column has shape \(2, 1\), expected \(2, 2\)"):
        write_grid(str(tmp_path / "grid.csv"), ("date", "ticker", "x"), DATES, TICKERS,
                   [np.ones((2, 1))])
