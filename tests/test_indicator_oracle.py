"""The whole-grid indicators against the ticker-by-ticker scalar oracle.

Recursions, rolling means and the RSI/ADX branches keep the oracle's
per-element arithmetic, so MACD, RSI and the SMAs must match bit for bit.
The rolling sigma and CCI's mean absolute deviation sum each window in a
different order, so everything is held to a relative bound of 1e-12, a few
thousand float64 ulps.

The recursions step every series that shares them at once, and only the
named indicators' series are stacked; so any subset of names, in any order,
must give bit for bit the columns of the full block.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlab import MarketPanel, SyntheticSpec, compute_indicators, synth_panel
from semlab.panels import INDICATORS_ALL

from conftest import business_days
from scalar_indicators import scalar_indicators

BIT_IDENTICAL = ("macd", "rsi_30", "sma_30", "sma_60")
REL_BOUND = 1e-12


def assert_matches_oracle(panel: MarketPanel) -> None:
    got = compute_indicators(panel).values
    want = scalar_indicators(panel, INDICATORS_ALL)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    defined = ~np.isnan(want)
    err = np.abs(got[defined] - want[defined])
    assert np.all(err <= REL_BOUND * np.maximum(np.abs(want[defined]), 1.0)), err.max()
    for name in BIT_IDENTICAL:
        k = INDICATORS_ALL.index(name)
        np.testing.assert_array_equal(got[..., k], want[..., k], err_msg=name)


def assert_subsets_match_the_full_block(panel: MarketPanel) -> None:
    full = compute_indicators(panel).values
    for k, name in enumerate(INDICATORS_ALL):
        alone = compute_indicators(panel, (name,)).values
        assert alone.tobytes() == full[..., k : k + 1].tobytes(), name
    backwards = compute_indicators(panel, INDICATORS_ALL[::-1]).values
    assert backwards.tobytes() == full[..., ::-1].tobytes()


@pytest.mark.parametrize("tickers,days", [(30, 1500), (100, 2500)], ids=["S", "M"])
def test_synthetic_panel_matches_oracle(tickers, days):
    panel, _, _ = synth_panel(SyntheticSpec(tickers=tickers, days=days, seed=11))
    assert_matches_oracle(panel)


def test_synthetic_subsets_match_the_full_block():
    panel, _, _ = synth_panel(SyntheticSpec(tickers=30, days=1500, seed=11))
    assert_subsets_match_the_full_block(panel)


@st.composite
def segmented_panels(draw):
    """OHLC panels built from runs: each run repeats a short pattern of
    close moves and holds one high/low spread, so flat closes, flat typical
    prices, zero true ranges and unchanged highs and lows all last long
    enough to fill a 30-day window."""
    n_tickers = draw(st.integers(1, 5))
    n_days = draw(st.integers(61, 160))
    close = np.empty((n_days, n_tickers))
    spread = np.empty((n_days, n_tickers))
    moves = st.sampled_from([0.0, 0.0, 0.25, -0.5, 1.0 / 3.0, 2.0])
    for j in range(n_tickers):
        day, level = 0, 500.0
        while day < n_days:
            length = draw(st.integers(1, 45))
            pattern = draw(st.lists(moves, min_size=1, max_size=3))
            width = draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
            for i in range(day, min(day + length, n_days)):
                level += pattern[(i - day) % len(pattern)]
                close[i, j], spread[i, j] = level, width
            day += length
    return MarketPanel(
        dates=business_days("2020-01-02", n_days),
        tickers=tuple(f"T{j}" for j in range(n_tickers)),
        close=close, high=close + spread, low=close - spread,
    )


@given(segmented_panels())
def test_segmented_panels_match_oracle(panel):
    assert_matches_oracle(panel)


@given(segmented_panels())
def test_segmented_subsets_match_the_full_block(panel):
    assert_subsets_match_the_full_block(panel)
