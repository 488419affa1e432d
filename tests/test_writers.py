"""The artifact writers against their row-by-row oracles in ``scalar_write``:
``_grid.write_table`` writes the bytes ``csv.writer`` does for the same
fields, whatever the labels, floats and ints, and across its blocks."""

import csv
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from semlab import _grid
from semlab._grid import write_table
from semlab.backtest import write_equity_curve
from semlab.env import write_episode_log
from semlab.metrics import REPORT_COLUMNS, write_report_table
from semlab.signals import write_article_scores
from semlab.stats import TEST_RESULT_COLUMNS, write_test_results

import scalar_write
from conftest import float_bits

# labels csv must quote or must keep as they are: the delimiter, the quote,
# CR, LF, leading and trailing spaces, the empty label and non-ASCII text
labels = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", " a", "a ", "é", "日本"]),
                   st.text('ab ,"\r\né日', max_size=5))
floats = float_bits.map(lambda bits: float(np.uint64(bits).view(float)))
ints = st.integers(-2**63, 2**63 - 1)


def same_bytes(tmp_path, write, oracle, *args):
    """Whether ``write`` and its ``oracle`` write the same bytes for ``args``."""
    write(*args, str(tmp_path / "table.csv"))
    oracle(*args, str(tmp_path / "oracle.csv"))
    return (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def float_array(values) -> np.ndarray:
    return np.array(values, dtype=float)


@settings(max_examples=60)
@given(st.integers(0, 12), st.lists(labels, min_size=1, max_size=4, unique=True), st.data())
def test_equity_curve_and_holdings_match_the_oracle(tmp_path_factory, n, tickers, data):
    # the writer reads the curve's fields only, so any floats can go in them
    def column(elements, size=n):
        return data.draw(st.lists(elements, min_size=size, max_size=size))

    weights = float_array(column(st.one_of(st.just(0.0), floats), n * len(tickers)))
    curve = SimpleNamespace(dates=tuple(column(labels)), tickers=tuple(tickers),
                            wealth=float_array(column(floats)),
                            daily_returns=float_array(column(floats)),
                            cost_paid=float_array(column(floats)),
                            holdings=weights.reshape(n, len(tickers)))
    tmp = tmp_path_factory.mktemp("curve")
    write_equity_curve(curve, str(tmp / "curve.csv"), str(tmp / "holdings.csv"))
    scalar_write.write_equity_curve(curve, str(tmp / "curve0.csv"), str(tmp / "holdings0.csv"))
    for name in ("curve", "holdings"):
        assert (tmp / f"{name}.csv").read_bytes() == (tmp / f"{name}0.csv").read_bytes(), name


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 10**6), labels, st.lists(floats, min_size=5, max_size=5),
                          st.booleans()), max_size=12))
def test_episode_log_matches_the_oracle(tmp_path_factory, steps):
    infos = [dict(step=step, date=date, gated=gated,
                  **dict(zip(("wealth", "peak", "reward", "penalty", "turbulence"), values)))
             for step, date, values, gated in steps]
    assert same_bytes(tmp_path_factory.mktemp("log"), write_episode_log,
                      scalar_write.write_episode_log, infos)


@settings(max_examples=60)
@given(st.lists(st.tuples(labels, labels, labels, st.lists(ints, min_size=4, max_size=4)),
                max_size=12))
def test_article_cache_matches_the_oracle(tmp_path_factory, rows):
    # the writer reads the table's columns only, so any labels and ints can go in them
    source_ids, tickers, dates, scores = zip(*rows) if rows else ((), (), (), ())
    articles = SimpleNamespace(source_ids=source_ids, tickers=tickers, dates=dates,
                               scores=np.array(scores, dtype=np.int64).reshape(-1, 4))
    assert same_bytes(tmp_path_factory.mktemp("cache"), write_article_scores,
                      scalar_write.write_article_scores, articles)


@settings(max_examples=60)
@given(st.lists(st.tuples(labels, st.lists(floats, min_size=10, max_size=10)), max_size=8))
def test_report_table_and_test_results_match_the_oracles(tmp_path_factory, drawn):
    tmp = tmp_path_factory.mktemp("report")
    report = [{"strategy": label, **dict(zip(REPORT_COLUMNS, values))} for label, values in drawn]
    assert same_bytes(tmp, write_report_table, scalar_write.write_report_table, report)
    tests = [{"comparison": label, **dict(zip(TEST_RESULT_COLUMNS[1:], values))}
             for label, values in drawn]
    assert same_bytes(tmp, write_test_results, scalar_write.write_test_results, tests)


def csv_table(header, columns, path) -> None:
    """The oracle of ``write_table``: each row through ``csv.writer``, as
    Python floats (whose ``str`` is ``repr``), ints and labels."""
    scalar_write.write_csv(path, header, zip(*[
        col.tolist() if isinstance(col, np.ndarray) else col for col in columns]))


@st.composite
def tables(draw):
    """A header and equally long columns of each kind, zero to 30 rows."""
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(["labels", "floats", "ints"]), min_size=1, max_size=4))
    elements = {"labels": labels, "floats": floats, "ints": ints}
    columns = [draw(st.lists(elements[kind], min_size=n, max_size=n)) for kind in kinds]
    columns = [col if kind == "labels" else np.array(col, dtype=float if kind == "floats"
                                                     else np.int64)
               for kind, col in zip(kinds, columns)]
    return draw(st.lists(labels, min_size=len(kinds), max_size=len(kinds))), columns


@settings(max_examples=150)
@given(tables(), st.integers(1, 7))
def test_table_matches_csv_in_any_blocks(tmp_path_factory, table, block):
    # blocks of one to seven rows put every kind of field at a block's edges
    header, columns = table
    tmp = tmp_path_factory.mktemp("table")
    with mock.patch.object(_grid, "_BLOCK_ROWS", block):
        write_table(str(tmp / "table.csv"), header, columns)
    csv_table(header, columns, str(tmp / "oracle.csv"))
    assert (tmp / "table.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()


def test_table_longer_than_a_block_with_unvouched_floats_at_the_block_edges(tmp_path):
    # orjson's text is not repr's for these, so repr writes them, at the first
    # and the last row of each full block and at the last row of the table
    rows = 2 * _grid._BLOCK_ROWS + 5
    values = np.random.default_rng(0).standard_normal(rows)
    edges = [0, _grid._BLOCK_ROWS - 1, _grid._BLOCK_ROWS, 2 * _grid._BLOCK_ROWS - 1, rows - 1]
    values[edges] = [1e-5, 1e16, np.nan, -np.inf, 5e-324]
    header = ("date", "x", "n")
    columns = [[f"d{i}" for i in range(rows)], values, np.arange(rows) - 7]
    write_table(str(tmp_path / "table.csv"), header, columns)
    csv_table(header, columns, str(tmp_path / "oracle.csv"))
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    with open(tmp_path / "table.csv", newline="") as fh:
        written = [row[1] for row in csv.reader(fh)][1:]
    assert [written[i] for i in edges] == ["1e-05", "1e+16", "nan", "-inf", "5e-324"]


def test_zero_row_tables_are_their_header(tmp_path):
    empty = SimpleNamespace(dates=(), tickers=("A",), wealth=float_array([]),
                            daily_returns=float_array([]), cost_paid=float_array([]),
                            holdings=np.zeros((0, 1)))
    write_equity_curve(empty, str(tmp_path / "curve.csv"), str(tmp_path / "holdings.csv"))
    assert (tmp_path / "curve.csv").read_bytes() == b"date,wealth,daily_return,cost_paid\r\n"
    assert (tmp_path / "holdings.csv").read_bytes() == b"date,ticker,weight\r\n"
    for write, oracle, rows in ((write_episode_log, scalar_write.write_episode_log, []),
                                (write_report_table, scalar_write.write_report_table, []),
                                (write_test_results, scalar_write.write_test_results, [])):
        assert same_bytes(tmp_path, write, oracle, rows)
