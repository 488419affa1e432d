import numpy as np
import pytest

from semlab import metrics
from semlab.errors import UndefinedMetricError, ValidationError
from semlab.metrics import (
    annualized_return,
    calmar_ratio,
    cvar5,
    max_drawdown,
    rachev_ratio,
    sharpe_ratio,
    sortino_ratio,
    write_report_table,
)



def curve_from_returns(returns):
    """Minimal curve stand-in: wealth path compounded from daily returns."""
    from semlab.backtest import EquityCurve
    from conftest import business_days

    r = np.concatenate([[0.0], np.asarray(returns, dtype=float)])
    wealth = np.cumprod(1.0 + r)
    n = len(r)
    return EquityCurve(
        dates=business_days("2019-01-02", n),
        wealth=wealth, daily_returns=r,
        holdings=np.zeros((n, 1)), cost_paid=np.zeros(n),
        tickers=("X",),
    )


class TestDrawdown:
    def test_hand_ledger(self):
        # 1.0 -> 1.1 -> 0.99: trough over running peak is 0.99/1.1 - 1 = -10%
        assert max_drawdown([1.0, 1.1, 0.99]) == pytest.approx(-0.10, abs=1e-12)

    def test_monotone_wealth_zero(self):
        assert max_drawdown([1.0, 1.01, 1.05, 1.2]) == 0.0

    def test_rescale_invariance(self):
        rng = np.random.default_rng(0)
        w = np.cumprod(1 + rng.normal(0, 0.01, 100))
        assert max_drawdown(w) == pytest.approx(max_drawdown(7.3 * w), abs=1e-12)


class TestConventionClosure:
    def test_benchmark_row(self):
        # (CR, MDD) from the published benchmark row reconcile to Calmar 0.764
        ar = annualized_return(2.43574, 1258)
        assert calmar_ratio(ar, -0.36705) == pytest.approx(0.764, abs=0.002)

    def test_factor_row(self):
        ar = annualized_return(3.07199, 1258)
        assert calmar_ratio(ar, -0.35643) == pytest.approx(0.911, abs=0.002)

    def test_cr_ar_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cr = float(rng.uniform(-0.5, 3.0))
            n = int(rng.integers(10, 3000))
            ar = annualized_return(cr, n)
            assert (1 + ar) ** (n / 252) - 1 == pytest.approx(cr, abs=1e-10)


class TestReport:
    def test_full_report_consistency(self):
        rng = np.random.default_rng(2)
        curve = curve_from_returns(rng.normal(0.0005, 0.01, 500))
        rep = metrics(curve)
        assert rep.cr == pytest.approx(np.prod(1 + curve.daily_returns[1:]) - 1, abs=1e-10)
        assert rep.calmar * abs(rep.mdd) - rep.ar == pytest.approx(0.0, abs=1e-9)
        assert rep.n_days == 500
        assert rep.cvar5 < 0
        assert rep.rachev > 0

    def test_monotone_curve_calmar_undefined(self):
        curve = curve_from_returns(np.full(30, 0.01))
        with pytest.raises(UndefinedMetricError, match="drawdown"):
            metrics(curve)

    def test_zero_volatility_sharpe_undefined(self):
        with pytest.raises(UndefinedMetricError, match="volatility"):
            sharpe_ratio(np.zeros(50))

    def test_sharpe_scale_invariance(self):
        rng = np.random.default_rng(3)
        r = rng.normal(0.001, 0.02, 400)
        assert sharpe_ratio(r) == pytest.approx(sharpe_ratio(5.0 * r), abs=1e-9)

    def test_sortino_uses_downside_only(self):
        r = np.array([0.02, -0.01, 0.03, -0.02, 0.01, 0.0, 0.015, -0.005])
        dd = np.sqrt(np.mean(np.minimum(r, 0.0) ** 2))
        assert sortino_ratio(r) == pytest.approx(r.mean() / dd * np.sqrt(252), abs=1e-12)

    def test_all_positive_sortino_undefined(self):
        with pytest.raises(UndefinedMetricError):
            sortino_ratio(np.full(30, 0.01))

    def test_rachev_and_cvar_tails(self):
        # 100 returns: worst five average -4%, best five average +5%
        r = np.concatenate([
            np.full(5, -0.04), np.full(90, 0.001), np.full(5, 0.05)
        ])
        assert cvar5(r) == pytest.approx(-4.0, abs=1e-12)
        assert rachev_ratio(r) == pytest.approx(0.05 / 0.04, abs=1e-12)

    def test_too_short_curve(self):
        with pytest.raises(ValidationError):
            metrics(curve_from_returns([0.01]))

    def test_table_export_column_order(self, tmp_path):
        rng = np.random.default_rng(4)
        rep = metrics(curve_from_returns(rng.normal(0.0005, 0.01, 300)))
        path = tmp_path / "report.csv"
        write_report_table([rep.row("demo")], str(path))
        header = path.read_text().splitlines()[0]
        assert header == "strategy,cr_pct,sharpe,sortino,mdd_pct,rachev,cvar5,calmar"
