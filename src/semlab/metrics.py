"""Performance metrics shared by every strategy table.

Conventions are pinned once here so all tables reconcile: simple daily
returns, geometric annualisation over the observed span at 252 days/year,
Sharpe with sample std and zero risk-free rate, drawdown from the running
wealth peak, and 5% tails for the Rachev / CVaR columns. Undefined values
(zero volatility, zero drawdown) raise instead of returning infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._grid import write_table
from .errors import UndefinedMetricError, ValidationError

TRADING_DAYS_PER_YEAR = 252
TAIL = 0.05  # the Rachev and CVaR tail fraction

# Exact column order used by the strategy comparison tables.
REPORT_COLUMNS = ("cr_pct", "sharpe", "sortino", "mdd_pct", "rachev", "cvar5", "calmar")


@dataclass(frozen=True)
class MetricsReport:
    cr: float        # cumulative return, fraction
    ar: float        # annual return, fraction / yr
    sharpe: float
    sortino: float
    mdd: float       # maximum drawdown, fraction in [-1, 0]
    calmar: float
    rachev: float
    cvar5: float     # mean of the worst 5% daily returns, in percent (signed)
    n_days: int      # number of daily return observations

    def row(self, label: str) -> dict:
        return {
            "strategy": label,
            "cr_pct": self.cr * 100.0,
            "sharpe": self.sharpe,
            "sortino": self.sortino,
            "mdd_pct": self.mdd * 100.0,
            "rachev": self.rachev,
            "cvar5": self.cvar5,
            "calmar": self.calmar,
        }


def annualized_return(cr: float, n_days: int) -> float:
    """Geometric annualisation: (1 + CR)^(252 / n_days) - 1."""
    if n_days < 1:
        raise ValidationError(f"need at least one return observation, got {n_days}")
    if cr <= -1.0:
        raise ValidationError(f"cumulative return {cr} implies non-positive wealth")
    return float((1.0 + cr) ** (TRADING_DAYS_PER_YEAR / n_days) - 1.0)


def calmar_ratio(ar: float, mdd: float) -> float:
    """AR / |MDD|; undefined when the drawdown is zero."""
    if mdd == 0.0:
        raise UndefinedMetricError("Calmar undefined: maximum drawdown is zero")
    return float(ar / abs(mdd))


def sharpe_ratio(returns: np.ndarray) -> float:
    """Annualised mean/std of daily returns; sample std, zero risk-free rate."""
    r = np.asarray(returns, dtype=float)
    if r.size < 2:
        raise ValidationError(f"need >= 2 daily returns, got {r.size}")
    sd = r.std(ddof=1)
    if sd == 0.0:
        raise UndefinedMetricError("Sharpe undefined: zero return volatility")
    return float(r.mean() / sd * math.sqrt(TRADING_DAYS_PER_YEAR))


def sortino_ratio(returns: np.ndarray) -> float:
    """Annualised mean over downside deviation vs a zero target.

    Downside deviation is the root-mean-square of the negative parts over the
    full sample.
    """
    r = np.asarray(returns, dtype=float)
    if r.size < 2:
        raise ValidationError(f"need >= 2 daily returns, got {r.size}")
    downside = np.minimum(r, 0.0)
    dd = math.sqrt(float(np.mean(downside**2)))
    if dd == 0.0:
        raise UndefinedMetricError("Sortino undefined: no downside observations")
    return float(r.mean() / dd * math.sqrt(TRADING_DAYS_PER_YEAR))


def max_drawdown(wealth: np.ndarray) -> float:
    """min over d of wealth[d] / running-peak[d] - 1, in [-1, 0]."""
    w = np.asarray(wealth, dtype=float)
    if w.size < 1 or np.any(w <= 0):
        raise ValidationError("wealth path must be positive")
    peaks = np.maximum.accumulate(w)
    return float(np.min(w / peaks - 1.0))


def _tail_count(n: int) -> int:
    return max(1, int(math.floor(TAIL * n)))


def rachev_ratio(returns: np.ndarray) -> float:
    """Mean of the best ``TAIL`` fraction of daily returns over the absolute
    mean of the worst, both tails the same size."""
    r = np.sort(np.asarray(returns, dtype=float))
    k = _tail_count(r.size)
    worst = float(r[:k].mean())
    best = float(r[-k:].mean())
    if worst == 0.0:
        raise UndefinedMetricError("Rachev undefined: lower tail mean is zero")
    return best / abs(worst)


def cvar5(returns: np.ndarray) -> float:
    """Signed mean of the worst ``TAIL`` fraction of daily returns, in percent."""
    r = np.sort(np.asarray(returns, dtype=float))
    k = _tail_count(r.size)
    return float(r[:k].mean() * 100.0)


def metrics(curve) -> MetricsReport:
    """Full report for an equity curve.

    The first curve date carries no return observation; everything is
    computed on the remaining daily returns and the full wealth path.
    """
    r = np.asarray(curve.daily_returns, dtype=float)[1:]
    if r.size < 2:
        raise ValidationError("curve needs at least 2 daily return observations")
    cr = float(np.prod(1.0 + r) - 1.0)
    ar = annualized_return(cr, r.size)
    mdd = max_drawdown(curve.wealth)
    calmar = calmar_ratio(ar, mdd)
    return MetricsReport(
        cr=cr,
        ar=ar,
        sharpe=sharpe_ratio(r),
        sortino=sortino_ratio(r),
        mdd=mdd,
        calmar=calmar,
        rachev=rachev_ratio(r),
        cvar5=cvar5(r),
        n_days=int(r.size),
    )


def write_report_table(rows: list[dict], path: str) -> None:
    """One row per strategy, fixed column order, deterministic formatting."""
    write_table(path, ["strategy", *REPORT_COLUMNS], [
        [row["strategy"] for row in rows],
        *([f"{row[c]:.6f}" for row in rows] for c in REPORT_COLUMNS)])
