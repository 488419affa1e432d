import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from semlab import (
    BacktestConfig,
    CompositeScore,
    MarketPanel,
    backtest_topk,
    baseline,
    subperiod_report,
)
from semlab.backtest import run_weight_schedule, write_equity_curve
from semlab.errors import RangeError, ValidationError
from semlab.metrics import metrics

import scalar_ledger
from conftest import make_panel


def make_scores(panel, values):
    return CompositeScore(dates=panel.dates, tickers=panel.tickers,
                          values=np.asarray(values, dtype=float))


class TestLedger:
    def test_three_day_hand_ledger(self):
        # oracle derived with exact fraction arithmetic:
        # day 0: buy A with all cash (cost 0.1% of notional 1.0)
        # day 1: A 100->110, wealth 1.1 - 0.001; rotate fully into B
        #        traded notional 1.1 + 1.099, cost 0.002199
        # day 2: B 90->99, wealth 1.099*99/90 - 0.002199
        panel = make_panel(np.array([[100.0, 100.0], [110.0, 90.0], [105.0, 99.0]]),
                           tickers=("A", "B"))
        scores = make_scores(panel, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        curve = backtest_topk(scores, panel, BacktestConfig(k=1, cost_rate=0.001))
        np.testing.assert_allclose(curve.wealth, [1.0, 1.099, 1.206701], atol=1e-12, rtol=0)
        np.testing.assert_allclose(curve.cost_paid, [0.0, 0.001, 0.002199], atol=1e-12, rtol=0)
        np.testing.assert_array_equal(curve.holdings, [[1, 0], [0, 1], [0, 1]])

    def test_ledger_conservation_on_random_runs(self):
        # conviction weighting makes targets differ every day, so the engine
        # trades daily and the recorded weights are the actual positions
        rng = np.random.default_rng(0)
        for trial in range(10):
            n_d, n_t = 40, 5
            close = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, (n_d, n_t)), axis=0))
            panel = make_panel(close)
            scores = make_scores(panel, rng.normal(size=(n_d, n_t)))
            curve = backtest_topk(scores, panel,
                                  BacktestConfig(k=2, cost_rate=0.002),
                                  weighting=("scw", 1.0))
            # wealth[d] = wealth[d-1] + value change of held positions - cost booked at d
            for d in range(1, n_d):
                shares_value = curve.holdings[d - 1] * curve.wealth[d - 1]
                change = float(np.sum(shares_value * (close[d] / close[d - 1] - 1.0)))
                rhs = curve.wealth[d - 1] + change - curve.cost_paid[d]
                assert curve.wealth[d] == pytest.approx(rhs, abs=1e-9)

    def test_constant_scores_tie_rule_and_zero_turnover(self):
        rng = np.random.default_rng(1)
        n_d, n_t = 30, 6
        close = 50 * np.exp(np.cumsum(rng.normal(0, 0.01, (n_d, n_t)), axis=0))
        panel = make_panel(close, tickers=("DD", "AA", "FF", "BB", "EE", "CC"))
        scores = make_scores(panel, np.ones((n_d, n_t)))
        cost = 0.001
        curve = backtest_topk(scores, panel, BacktestConfig(k=3, cost_rate=cost))
        # lexicographic tie break picks AA, BB, CC
        basket = [panel.tickers[j] for j in np.where(curve.holdings[0] > 0)[0]]
        assert sorted(basket) == ["AA", "BB", "CC"]
        assert np.all(curve.cost_paid[2:] == 0.0)  # only the initial trade pays
        # curve equals equal-weight buy-and-hold of that basket minus the cost
        idx = [panel.tickers.index(t) for t in ("AA", "BB", "CC")]
        bh_index = (close[:, idx] / close[0, idx]).mean(axis=1)
        np.testing.assert_allclose(curve.wealth[1:], bh_index[1:] - cost, atol=1e-12)

    def test_cost_monotonicity_pointwise(self):
        rng = np.random.default_rng(2)
        n_d, n_t = 50, 4
        close = 20 * np.exp(np.cumsum(rng.normal(0, 0.02, (n_d, n_t)), axis=0))
        panel = make_panel(close)
        scores = make_scores(panel, rng.normal(size=(n_d, n_t)))
        free = backtest_topk(scores, panel, BacktestConfig(k=2, cost_rate=0.0))
        paid = backtest_topk(scores, panel, BacktestConfig(k=2, cost_rate=0.001))
        assert np.all(free.wealth[1:] > paid.wealth[1:])
        np.testing.assert_array_equal(free.holdings, paid.holdings)

    def test_per_date_constant_shift_is_bit_identical(self):
        rng = np.random.default_rng(3)
        n_d, n_t = 25, 5
        close = 30 * np.exp(np.cumsum(rng.normal(0, 0.015, (n_d, n_t)), axis=0))
        panel = make_panel(close)
        raw = rng.normal(size=(n_d, n_t))
        shifted = raw + rng.normal(size=(n_d, 1))  # different constant per date
        c1 = backtest_topk(make_scores(panel, raw), panel,
                           BacktestConfig(k=2, cost_rate=0.001))
        c2 = backtest_topk(make_scores(panel, shifted), panel,
                           BacktestConfig(k=2, cost_rate=0.001))
        np.testing.assert_array_equal(c1.wealth, c2.wealth)
        np.testing.assert_array_equal(c1.holdings, c2.holdings)
        # conviction weights are shift-invariant up to float rounding
        s1 = backtest_topk(make_scores(panel, raw), panel,
                           BacktestConfig(k=2, cost_rate=0.001), ("scw", 0.7))
        s2 = backtest_topk(make_scores(panel, shifted), panel,
                           BacktestConfig(k=2, cost_rate=0.001), ("scw", 0.7))
        np.testing.assert_allclose(s1.wealth, s2.wealth, atol=1e-12, rtol=0)

    def test_basket_shrinks_with_warning(self, caplog):
        panel = make_panel(np.full((6, 3), 10.0))
        values = np.full((6, 3), np.nan)
        values[:, 0] = 1.0  # only one scored ticker
        scores = make_scores(panel, values)
        with caplog.at_level(logging.WARNING, logger="semlab.backtest"):
            curve = backtest_topk(scores, panel, BacktestConfig(k=2, cost_rate=0.0))
        assert "shrank" in caplog.text
        assert curve.holdings[0, 0] == 1.0  # full weight on the only scored name

    def test_no_scores_holds_previous(self):
        panel = make_panel(np.full((5, 2), 10.0))
        values = np.array([[1.0, 0.0]] + [[np.nan, np.nan]] * 4)
        scores = make_scores(panel, values)
        curve = backtest_topk(scores, panel, BacktestConfig(k=1, cost_rate=0.0))
        np.testing.assert_array_equal(curve.holdings[:, 0], np.ones(5))
        assert np.all(curve.cost_paid == 0.0)

    def test_weight_schedule_validates(self):
        panel = make_panel(np.full((4, 2), 5.0))
        bad = np.full((4, 2), 0.8)  # sums to 1.6
        with pytest.raises(ValidationError, match="sum"):
            run_weight_schedule(panel, bad, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_named_by_date_and_ticker(self, value):
        # NaN fails both the long-only and the sum check, and would turn the
        # wealth NaN from the day after its trade on
        panel = make_panel(np.full((6, 3), 5.0), tickers=("A", "B", "C"))
        targets = np.full((6, 3), 0.25)
        targets[2, 1] = value
        targets[4, 0] = value
        with pytest.raises(ValidationError,
                           match=rf"non-finite target weight at \({panel.dates[2]}, B\)"):
            run_weight_schedule(panel, targets, 0.001)

    def test_panel_without_dates_rejected(self):
        panel = MarketPanel(dates=(), tickers=("A", "B"), close=np.empty((0, 2)))
        with pytest.raises(ValidationError, match="no dates"):
            run_weight_schedule(panel, np.empty((0, 2)), 0.0)

    def test_export_round_trips_values(self, tmp_path):
        panel = make_panel(np.array([[100.0, 100.0], [110.0, 90.0], [105.0, 99.0]]))
        scores = make_scores(panel, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        curve = backtest_topk(scores, panel, BacktestConfig(k=1, cost_rate=0.001))
        path = tmp_path / "curve.csv"
        hpath = tmp_path / "holdings.csv"
        write_equity_curve(curve, str(path), str(hpath))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "date,wealth,daily_return,cost_paid"
        assert len(lines) == 4
        assert float(lines[2].split(",")[1]) == curve.wealth[1]


    def test_holdings_export_matches_per_cell_scan(self, tmp_path):
        # conviction weights hold two tickers a day, so most cells are zero
        rng = np.random.default_rng(3)
        panel = make_panel(50 * np.exp(np.cumsum(rng.normal(0, 0.02, (30, 5)), axis=0)))
        scores = make_scores(panel, rng.normal(size=(30, 5)))
        curve = backtest_topk(scores, panel, BacktestConfig(k=2, cost_rate=0.001),
                              weighting=("scw", 1.0))
        hpath = tmp_path / "holdings.csv"
        write_equity_curve(curve, str(tmp_path / "curve.csv"), str(hpath))
        expected = ["date,ticker,weight"] + [
            f"{d},{t},{float(curve.holdings[i, j])!r}"
            for i, d in enumerate(curve.dates) for j, t in enumerate(curve.tickers)
            if float(curve.holdings[i, j]) != 0.0
        ]
        assert hpath.read_text().splitlines() == expected


@st.composite
def price_paths(draw, max_days=30, max_tickers=4):
    """Positive closes: a start price and day-on-day ratios in [0.5, 2], so a
    fully invested book paying at most 1 % on twice its value stays solvent."""
    n_d = draw(st.integers(2, max_days))
    n_t = draw(st.integers(1, max_tickers))
    start = draw(arrays(float, n_t, elements=st.floats(1.0, 100.0)))
    ratios = draw(arrays(float, (n_d - 1, n_t), elements=st.floats(0.5, 2.0)))
    return np.vstack([start, start * np.cumprod(ratios, axis=0)])


@st.composite
def weight_schedules(draw, n_d, n_t):
    """Long-only targets drawn from a few rows, with runs of repeated rows so
    that positions drift between trades; an all-zero row is a move to cash."""
    rows = draw(st.lists(arrays(float, n_t, elements=st.floats(0.0, 1.0)),
                         min_size=1, max_size=4))
    rows = [r / max(1.0, r.sum()) for r in rows]
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n_d, max_size=n_d))
    repeat = draw(arrays(bool, n_d))
    for d in range(1, n_d):
        if repeat[d]:
            picks[d] = picks[d - 1]
    return np.array([rows[i] for i in picks])


@st.composite
def ledger_cases(draw, max_tickers=4):
    close = draw(price_paths(max_tickers=max_tickers))
    targets = draw(weight_schedules(*close.shape))
    cost_rate = draw(st.floats(0.0, 0.01))
    return close, targets, cost_rate


class TestLedgerProperties:
    @given(ledger_cases())
    def test_cash_and_positions_are_conserved_and_costs_booked_once(self, case):
        close, targets, cost_rate = case
        curve = run_weight_schedule(make_panel(close), targets, cost_rate)
        n_d, n_t = close.shape
        cash, shares, last = 1.0, np.zeros(n_t), np.zeros(n_t)
        assert curve.cost_paid[0] == 0.0
        for d in range(n_d - 1):
            value = curve.wealth[d]
            cost = 0.0
            if not np.array_equal(targets[d], last):
                traded = np.abs(targets[d] * value - shares * close[d]).sum()
                cost = cost_rate * traded
                shares = targets[d] * value / close[d]
                cash = value - (targets[d] * value).sum() - cost
                last = targets[d]
            # the trade's cost shows up once, in the next day's mark
            assert curve.cost_paid[d + 1] == pytest.approx(cost, rel=1e-12, abs=1e-15)
            marked = cash + (shares * close[d + 1]).sum()
            assert curve.wealth[d + 1] == pytest.approx(marked, rel=1e-12)

    # 12 tickers: a row of 8 or more is summed pairwise, so a mark summed in
    # another order than one day's positions would differ in the last bits
    @given(ledger_cases(max_tickers=12), st.sampled_from("CF"))
    def test_ledger_matches_the_scalar_oracle_bit_for_bit(self, case, order):
        close, targets, cost_rate = case
        # the panel holds a Fortran-ordered input's closes in C order
        panel = make_panel(np.asarray(close, order=order))
        curve = run_weight_schedule(panel, targets, cost_rate)
        wealth, cost_paid, daily_returns = scalar_ledger.ledger(close, targets, cost_rate)
        assert np.array_equal(curve.wealth, wealth)
        assert np.array_equal(curve.cost_paid, cost_paid)
        assert np.array_equal(curve.daily_returns, daily_returns)

    @given(ledger_cases(), st.lists(st.floats(0.0, 0.01), min_size=2, max_size=4))
    def test_final_wealth_does_not_rise_with_cost(self, case, cost_rates):
        close, targets, _ = case
        panel = make_panel(close)
        final = [run_weight_schedule(panel, targets, c).wealth[-1] for c in sorted(cost_rates)]
        # a few ulps of slack: two nearly equal rates may round either way
        assert all(b <= a * (1 + 1e-12) for a, b in zip(final, final[1:])), final


class TestBaselines:
    def test_single_ticker_baselines_coincide_with_price_path(self):
        rng = np.random.default_rng(5)
        n_d = 160
        close = (20 * np.exp(np.cumsum(rng.normal(0, 0.01, n_d))))[:, None]
        panel = make_panel(close)
        period = (panel.dates[130], panel.dates[-1])
        cfg = BacktestConfig(k=1, cost_rate=0.0, period=period)
        path = close[130:, 0] / close[130, 0]
        for kind in ("ew_buy_and_hold", "momentum_topk", "equal_vol"):
            curve = baseline(panel, kind, cfg, lookback=100, vol_window=60)
            np.testing.assert_allclose(curve.wealth, path, atol=1e-12)

    def test_ew_buy_and_hold_is_mean_normalised_price(self):
        close = np.array([[10.0, 50.0], [12.0, 45.0], [11.0, 55.0]])
        panel = make_panel(close)
        curve = baseline(panel, "ew_buy_and_hold", BacktestConfig(k=1, cost_rate=0.001))
        expected = (close / close[0]).mean(axis=1)
        np.testing.assert_allclose(curve.wealth, expected, atol=1e-14)
        assert np.all(curve.cost_paid == 0.0)  # buy-and-hold never pays

    def test_momentum_ties_break_lexicographically(self):
        n_d = 140
        close = np.full((n_d, 3), 25.0)
        panel = make_panel(close, tickers=("CC", "AA", "BB"))
        cfg = BacktestConfig(k=1, cost_rate=0.0, period=(panel.dates[130], panel.dates[-1]))
        curve = baseline(panel, "momentum_topk", cfg, lookback=100)
        assert curve.holdings[0, panel.tickers.index("AA")] == 1.0

    def test_momentum_requires_history(self):
        panel = make_panel(np.full((50, 2), 10.0))
        cfg = BacktestConfig(k=1, cost_rate=0.0, period=(panel.dates[10], panel.dates[-1]))
        with pytest.raises(RangeError, match="lookback"):
            baseline(panel, "momentum_topk", cfg, lookback=126)

    def test_unknown_kind(self):
        panel = make_panel(np.full((5, 2), 10.0))
        with pytest.raises(ValidationError, match="unknown baseline"):
            baseline(panel, "carry", BacktestConfig())


class TestSubperiod:
    def _curve(self, seed=33, n_d=120):
        rng = np.random.default_rng(seed)
        close = 50 * np.exp(np.cumsum(rng.normal(0.0005, 0.01, (n_d, 3)), axis=0))
        panel = make_panel(close)
        cfg = BacktestConfig(k=3, cost_rate=0.0)
        curve = baseline(panel, "ew_buy_and_hold", cfg)
        rng2 = np.random.default_rng(seed + 1)
        scores = make_scores(panel, rng2.normal(size=(n_d, 3)))
        strat = backtest_topk(scores, panel, BacktestConfig(k=1, cost_rate=0.001))
        return strat, curve

    def test_single_period_matches_full_sample(self):
        strat, bench = self._curve()
        rows = subperiod_report(strat, bench, [("all", strat.dates[0], strat.dates[-1])])
        rep = metrics(strat)
        assert rows[0]["cr"] == pytest.approx(rep.cr, abs=1e-12)
        assert rows[0]["sharpe"] == pytest.approx(rep.sharpe, abs=1e-12)
        assert rows[0]["days"] == rep.n_days

    def test_compounding_identity_over_partition(self):
        strat, bench = self._curve(seed=34)
        mid = 57
        rows = subperiod_report(strat, bench, [
            ("first", strat.dates[0], strat.dates[mid]),
            ("second", strat.dates[mid + 1], strat.dates[-1]),
        ])
        combined = (1 + rows[0]["cr"]) * (1 + rows[1]["cr"]) - 1
        assert combined == pytest.approx(metrics(strat).cr, abs=1e-10)

    def test_random_partitions_compound(self):
        rng = np.random.default_rng(35)
        strat, bench = self._curve(seed=36)
        for _ in range(10):
            cuts = sorted(rng.choice(np.arange(1, 119), size=3, replace=False))
            bounds = [0, *cuts, 119]
            periods = [
                (f"p{i}", strat.dates[a if i == 0 else a + 1], strat.dates[b])
                for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            ]
            rows = subperiod_report(strat, bench, periods)
            combined = np.prod([1 + r["cr"] for r in rows]) - 1
            assert combined == pytest.approx(metrics(strat).cr, abs=1e-10)

    @given(ledger_cases(), st.data())
    def test_partition_compounds_to_the_whole_curve(self, case, data):
        close, targets, cost_rate = case
        n_d = close.shape[0]
        panel = make_panel(close)
        curve = run_weight_schedule(panel, targets, cost_rate)
        # the benchmark trades its own schedule on the same calendar
        bench_targets = data.draw(weight_schedules(*close.shape))
        bench = run_weight_schedule(panel, bench_targets, data.draw(st.floats(0.0, 0.01)))
        # a contiguous partition of the return dates 1 .. n_d - 1
        cuts = data.draw(st.sets(st.integers(2, max(2, n_d - 1)), max_size=n_d - 2))
        starts = [data.draw(st.sampled_from([0, 1])), *sorted(cuts)]
        ends = [s - 1 for s in starts[1:]] + [n_d - 1]
        periods = [(f"p{i}", curve.dates[s], curve.dates[e])
                   for i, (s, e) in enumerate(zip(starts, ends))]
        rows = subperiod_report(curve, bench, periods)
        assert sum(r["days"] for r in rows) == n_d - 1
        for key, c in (("cr", curve), ("benchmark_cr", bench)):
            compounded = np.prod([1.0 + r[key] for r in rows])
            assert compounded == pytest.approx(c.wealth[-1] / c.wealth[0], rel=1e-12)

    def test_empty_slice_is_range_error(self):
        strat, bench = self._curve(seed=37)
        with pytest.raises(RangeError):
            subperiod_report(strat, bench, [("none", "1999-01-01", "1999-01-05")])

    def test_overlapping_periods_rejected(self):
        strat, bench = self._curve(seed=38)
        with pytest.raises(ValidationError, match="overlap"):
            subperiod_report(strat, bench, [
                ("a", strat.dates[0], strat.dates[50]),
                ("b", strat.dates[40], strat.dates[-1]),
            ])
