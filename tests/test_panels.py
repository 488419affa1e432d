import numpy as np
import pytest

from semlab import MarketPanel, compute_indicators, compute_turbulence, forward_returns
from semlab.errors import (
    AlignmentError,
    ParseError,
    RangeError,
    ValidationError,
    WarmupError,
)
from semlab.panels import INDICATORS_ALL, load_price_panel, write_price_panel

from conftest import make_panel


def _write_rows(path, rows):
    lines = ["date,ticker,open,high,low,close,volume"] + rows
    path.write_text("\n".join(lines) + "\n")


class TestLoadPricePanel:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "prices.csv"
        rows = []
        for d in ("2020-01-02", "2020-01-03", "2020-01-06"):
            for t, px in (("AA", 10.0), ("BB", 20.0)):
                rows.append(f"{d},{t},{px},{px},{px},{px},1000")
        _write_rows(p, rows)
        panel = load_price_panel(str(p))
        assert panel.close.shape == (3, 2)
        assert panel.tickers == ("AA", "BB")

    def test_zero_close_rejected(self, tmp_path):
        p = tmp_path / "prices.csv"
        _write_rows(p, ["2020-01-02,AA,1,1,1,0,10"])
        with pytest.raises(ValidationError, match="2020-01-02"):
            load_price_panel(str(p))

    def test_missing_middle_date_reports_gap(self, tmp_path):
        p = tmp_path / "prices.csv"
        rows = []
        for d in ("2020-01-02", "2020-01-03", "2020-01-06"):
            rows.append(f"{d},AA,5,5,5,5,10")
        rows.append("2020-01-02,BB,5,5,5,5,10")
        rows.append("2020-01-06,BB,5,5,5,5,10")  # BB misses 2020-01-03
        _write_rows(p, rows)
        with pytest.raises(AlignmentError, match="BB missing 2020-01-03"):
            load_price_panel(str(p))

    @pytest.mark.parametrize("row", [
        "2020-01-03,AA,5,5,5,inf,10",
        "2020-01-03,AA,5,nan,5,5,10",
        "2020-01-03,AA,5,5,5,5,inf",
    ])
    def test_non_finite_value_carries_cell_and_line(self, tmp_path, row):
        p = tmp_path / "prices.csv"
        _write_rows(p, ["2020-01-02,AA,5,5,5,5,10", row])
        with pytest.raises(ValidationError, match=r"non-finite value at \(2020-01-03, AA\), line 3"):
            load_price_panel(str(p))

    def test_malformed_row_carries_line_number(self, tmp_path):
        p = tmp_path / "prices.csv"
        _write_rows(p, ["2020-01-02,AA,5,5,5,5,10", "2020-01-03,AA,5,5,bad,5,10"])
        with pytest.raises(ParseError, match="line 3"):
            load_price_panel(str(p))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = make_panel(100 * np.exp(rng.normal(0, 0.01, size=(5, 3))))
        path = tmp_path / "out.csv"
        write_price_panel(panel, str(path))
        loaded = load_price_panel(str(path))
        assert loaded.dates == panel.dates
        np.testing.assert_array_equal(loaded.close, panel.close)


class TestPanelInvariants:
    def test_dates_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            MarketPanel(
                dates=("2020-01-03", "2020-01-02"), tickers=("A",),
                close=np.ones((2, 1)),
            )

    @pytest.mark.parametrize("name", ["close", "open", "high", "low", "volume"])
    def test_non_finite_prices_rejected(self, name):
        arrays = {n: np.full((3, 2), 10.0) for n in ("close", "open", "high", "low", "volume")}
        arrays[name][1, 1] = np.inf if name != "volume" else np.nan
        with pytest.raises(ValidationError, match=rf"non-finite {name} at \(2020-01-03, T01\)"):
            MarketPanel(dates=("2020-01-02", "2020-01-03", "2020-01-06"),
                        tickers=("T00", "T01"), **arrays)

    def test_duplicate_ticker_rejected(self):
        with pytest.raises(ValidationError, match="duplicate ticker 'A' in panel"):
            MarketPanel(dates=("2020-01-02",), tickers=("A", "B", "A"), close=np.ones((1, 3)))
        panel = make_panel(np.full((3, 2), 10.0))
        with pytest.raises(ValidationError, match="duplicate ticker 'T00'"):
            panel.restrict(["T00", "T00"])

    def test_arrays_are_frozen(self):
        panel = make_panel(np.full((3, 2), 10.0))
        with pytest.raises(ValueError):
            panel.close[0, 0] = 5.0

    def test_restrict_and_slice(self):
        panel = make_panel(np.arange(1, 13).reshape(4, 3).astype(float))
        sub = panel.restrict(["T02", "T00"])
        assert sub.tickers == ("T02", "T00")
        np.testing.assert_array_equal(sub.close[:, 1], panel.close[:, 0])
        view = panel.slice_dates(panel.dates[1], panel.dates[2])
        assert view.dates == panel.dates[1:3]
        with pytest.raises(RangeError):
            panel.slice_dates("2031-01-01", "2031-01-02")


class TestIndicators:
    def test_constant_series_conventions(self):
        panel = make_panel(np.full((80, 1), 50.0))
        panel = MarketPanel(
            dates=panel.dates, tickers=panel.tickers, close=panel.close,
            high=panel.close, low=panel.close,
        )
        feats = compute_indicators(panel)
        idx = {n: k for k, n in enumerate(feats.names)}
        row = feats.values[feats.warmup]
        assert row[0, idx["rsi_30"]] == 50.0
        assert row[0, idx["macd"]] == 0.0
        assert row[0, idx["boll_ub"]] == 50.0
        assert row[0, idx["boll_lb"]] == 50.0
        assert row[0, idx["cci_30"]] == 0.0
        assert row[0, idx["adx_30"]] == 0.0
        assert row[0, idx["sma_30"]] == 50.0

    def test_linear_ramp_sma_lag(self):
        # arithmetic series: 30-day mean trails the close by 14.5 steps x slope
        slope = 0.5
        close = 100.0 + slope * np.arange(100)
        panel = make_panel(close[:, None])
        feats = compute_indicators(panel, names=("sma_30",))
        k = feats.names.index("sma_30")
        for d in range(feats.warmup, 100):
            assert feats.values[d, 0, k] == pytest.approx(close[d] - 14.5 * slope, abs=1e-9)

    def test_rsi_matches_hand_wilder_recursion(self):
        # n=3 hand calculation: seed = simple average of the first three
        # moves, then s += (x - s)/n; closes 10, 11, 10.5, 11.5, 12, 11
        # give RSI 80, 84.615..., 50
        from semlab.panels import _rsi

        close = np.array([10.0, 11.0, 10.5, 11.5, 12.0, 11.0])
        rsi = _rsi(close, 3)
        assert np.isnan(rsi[:3]).all()
        assert rsi[3] == pytest.approx(80.0, abs=1e-12)
        assert rsi[4] == pytest.approx(100.0 - 100.0 / 6.5, abs=1e-12)
        assert rsi[5] == pytest.approx(50.0, abs=1e-12)

    def test_cci_on_ramp_hits_closed_form(self):
        # arithmetic ramp with a 30-day window: deviation 14.5*s over mean
        # absolute deviation 7.5*s gives 14.5 / (0.015 * 7.5) everywhere
        close = (100.0 + 0.25 * np.arange(120))[:, None]
        panel = make_panel(close)
        panel = MarketPanel(dates=panel.dates, tickers=panel.tickers,
                            close=panel.close, high=panel.close, low=panel.close)
        feats = compute_indicators(panel, names=("cci_30",))
        vals = feats.values[feats.warmup:, 0, 0]
        np.testing.assert_allclose(vals, 14.5 / (0.015 * 7.5), atol=1e-9)

    def test_macd_on_ramp_approaches_slope_gap(self):
        # recursive exponential means lag a ramp by (span-1)/2 steps, so the
        # 12/26 difference converges to 7 * slope
        slope = 0.5
        close = (50.0 + slope * np.arange(300))[:, None]
        panel = make_panel(close)
        feats = compute_indicators(panel, names=("macd",))
        assert feats.values[-1, 0, 0] == pytest.approx(7.0 * slope, abs=1e-6)

    def test_bollinger_alternating_series(self):
        # alternating 10/12 closes: window mean 11, population sigma 1
        close = np.where(np.arange(80) % 2 == 0, 10.0, 12.0)[:, None]
        panel = make_panel(close)
        feats = compute_indicators(panel, names=("boll_ub", "boll_lb"))
        ub = feats.values[feats.warmup:, 0, 0]
        lb = feats.values[feats.warmup:, 0, 1]
        np.testing.assert_allclose(ub, 13.0, atol=1e-12)
        np.testing.assert_allclose(lb, 9.0, atol=1e-12)

    def test_warmup_error_for_short_panel(self):
        panel = make_panel(np.full((59, 1), 10.0))
        panel = MarketPanel(dates=panel.dates, tickers=panel.tickers, close=panel.close,
                            high=panel.close, low=panel.close)
        with pytest.raises(WarmupError, match="sma_60|adx_30"):
            compute_indicators(panel)

    def test_deterministic(self, planted_workspace):
        panel, _, _ = planted_workspace
        a = compute_indicators(panel)
        b = compute_indicators(panel)
        np.testing.assert_array_equal(a.values, b.values)

    def test_finite_past_warmup(self, planted_workspace):
        panel, _, _ = planted_workspace
        feats = compute_indicators(panel)
        assert feats.names == INDICATORS_ALL
        assert np.all(np.isfinite(feats.values[feats.warmup:]))


class TestTurbulence:
    def _iid_panel(self, seed=0, n_t=5, n_d=700):
        rng = np.random.default_rng(seed)
        log_rets = 0.01 * rng.standard_normal((n_d - 1, n_t))
        close = 100 * np.exp(np.vstack([np.zeros(n_t), np.cumsum(log_rets, axis=0)]))
        return make_panel(close)

    def test_iid_mean_near_ticker_count(self):
        # out-of-sample squared Mahalanobis distance of an iid gaussian day
        # has expectation ~ n_tickers (chi-squared property)
        means = []
        for seed in range(3):
            panel = self._iid_panel(seed)
            turb = compute_turbulence(panel, window=252)
            vals = turb.values[np.isfinite(turb.values)]
            means.append(vals.mean())
        assert np.mean(means) == pytest.approx(5.0, rel=0.15)

    def test_day_equal_to_trailing_mean_scores_zero(self):
        # dyadic growth factors keep every float operation exact: twenty
        # alternating days average to a return of exactly 0.125, and the
        # final day's return is exactly 0.125 as well
        n_d, n_t = 22, 3
        factors = [1.5 if i % 2 == 0 else 0.75 for i in range(20)] + [1.125]
        close = np.empty((n_d, n_t))
        close[0] = 64.0
        for d in range(1, n_d):
            close[d] = close[d - 1] * factors[d - 1]
        panel = make_panel(close)
        turb = compute_turbulence(panel, window=20)
        assert np.isfinite(turb.values[21])
        assert turb.values[21] == 0.0

    def test_gate_thresholds(self):
        panel = self._iid_panel(1)
        turb = compute_turbulence(panel, window=252)
        # the flag is true exactly on available days whose value clears the bar
        np.testing.assert_array_equal(
            turb.gate(380.0), np.isfinite(turb.values) & (turb.values > 380.0)
        )
        assert not turb.gate(380.0).any()  # calm synthetic panel never trips 380
        tight_level = float(np.nanmedian(turb.values))
        tight = turb.gate(threshold=tight_level)
        assert tight.sum() > 0
        np.testing.assert_array_equal(
            tight, np.isfinite(turb.values) & (turb.values > tight_level)
        )

    def test_gate_monotone_in_threshold(self):
        panel = self._iid_panel(2)
        turb = compute_turbulence(panel, window=252)
        thresholds = np.linspace(0, 20, 15)
        counts = [turb.gate(threshold=t).sum() for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_window_precondition(self):
        panel = self._iid_panel(3, n_t=10, n_d=100)
        with pytest.raises(ValidationError, match="window"):
            compute_turbulence(panel, window=11)


class TestForwardReturns:
    def test_simple_return_value(self):
        close = np.array([[100.0], [102.0], [104.0], [106.0], [108.0], [110.0], [111.0]])
        panel = make_panel(close)
        fwd = forward_returns(panel, 5)
        assert fwd[0, 0] == pytest.approx(0.10)
        assert np.isnan(fwd[-5:, 0]).all()

    def test_flat_series_zero(self):
        panel = make_panel(np.full((10, 2), 7.0))
        fwd = forward_returns(panel, 3)
        assert np.nanmax(np.abs(fwd)) == 0.0

    def test_horizon_out_of_range(self):
        panel = make_panel(np.full((3, 1), 7.0))
        with pytest.raises(RangeError):
            forward_returns(panel, 5)

    def test_subrange_consistency(self, planted_workspace):
        # values on a date subrange match a fresh computation on that subrange
        panel, _, _ = planted_workspace
        h = 5
        full = forward_returns(panel, h)
        sub = panel.slice_dates(panel.dates[50], panel.dates[199])
        again = forward_returns(sub, h)
        np.testing.assert_allclose(full[50:195], again[:145], atol=0, rtol=0)
