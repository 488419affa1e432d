"""The whole-grid top-k ranking against the day-by-day scalar oracle.

Both fill the same targets from the same scores with the same arithmetic, so
holdings must match bit for bit, and the basket-shrink warning must fire
exactly when the oracle counts a short day.
"""

import logging

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from semlab import BacktestConfig, CompositeScore, backtest_topk

from conftest import make_panel
from scalar_topk import topk_targets

# ties, signed zeros and non-finite cells are all common in this pool
POOL = (-1.0, -0.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf)
NAMES = ("AA", "B", "BA", "C", "CB", "D")


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def run_with_warnings(values, tickers, k, weighting):
    panel = make_panel(np.full(values.shape, 10.0), tickers=tickers)
    scores = CompositeScore(dates=panel.dates, tickers=panel.tickers, values=values)
    handler = _Messages()
    logger = logging.getLogger("semlab.backtest")
    logger.addHandler(handler)
    try:
        curve = backtest_topk(scores, panel, BacktestConfig(k=k, cost_rate=0.0),
                              weighting=weighting)
    finally:
        logger.removeHandler(handler)
    return curve, handler.messages


@st.composite
def score_grids(draw):
    n_t = draw(st.integers(1, len(NAMES)))
    n_d = draw(st.integers(1, 12))
    tickers = draw(st.permutations(NAMES[:n_t]))
    if n_t > 1 and list(tickers) == sorted(tickers):
        tickers = tickers[::-1]  # never lexicographic, so column order cannot stand in
    values = draw(arrays(float, (n_d, n_t), elements=st.sampled_from(POOL)))
    empty = draw(arrays(bool, n_d))
    values[empty] = np.nan
    k = draw(st.integers(1, n_t + 2))
    return values, tuple(tickers), k


@given(score_grids(), st.sampled_from(["equal", ("scw", 0.5), ("scw", 3.0)]))
def test_holdings_and_shrink_warning_match_oracle(grid, weighting):
    values, tickers, k = grid
    want, short_days = topk_targets(values, tickers, k, weighting)
    curve, messages = run_with_warnings(values, tickers, k, weighting)
    np.testing.assert_array_equal(curve.holdings, want)
    shrink = [m for m in messages if "shrank" in m]
    if short_days:
        assert shrink == [f"basket shrank below k={k} on {short_days} of "
                          f"{len(values)} days (not enough scored tickers)"]
    else:
        assert shrink == []


WIDE = tuple(f"T{i:02d}" for i in range(20))


@st.composite
def wide_grids(draw):
    """Baskets of 8-16 names, where numpy's pairwise summation starts, with
    days of every basket size, short days and empty days in one grid."""
    n_t = draw(st.integers(8, len(WIDE)))
    n_d = draw(st.integers(1, 30))
    tickers = draw(st.permutations(WIDE[:n_t]))
    cells = st.one_of(st.floats(-50, 50), st.sampled_from(POOL))
    values = draw(arrays(float, (n_d, n_t), elements=cells))
    # a per-day count of unscored cells makes short baskets of mixed sizes
    for d in range(n_d):
        gone = draw(st.integers(0, n_t))
        values[d, draw(st.permutations(range(n_t)))[:gone]] = np.nan
    k = draw(st.integers(8, 16))
    return values, tuple(tickers), k


@given(wide_grids(), st.sampled_from([0.05, 0.3, 1.0, 2.5, 40.0]))
def test_scw_weights_of_wide_baskets_match_oracle(grid, temperature):
    values, tickers, k = grid
    want, _ = topk_targets(values, tickers, k, ("scw", temperature))
    curve, _ = run_with_warnings(values, tickers, k, ("scw", temperature))
    np.testing.assert_array_equal(curve.holdings, want)


def test_equal_scores_break_ties_by_name_not_column():
    values = np.ones((3, 3))
    curve, _ = run_with_warnings(values, ("B", "A", "C"), 1, "equal")
    np.testing.assert_array_equal(curve.holdings, [[0, 1, 0]] * 3)
