"""Daily top-k long-only backtests, baselines, and sub-period breakdowns.

One ledger drives everything: a target-weight schedule is executed at each
day's close, positions drift until the targets change, and per-leg costs are
charged on traded notional. Wealth is marked at the close before that day's
trade, so the curve starts at exactly 1.0 and the cost of a trade shows up in
the next day's mark. All tie-breaking is lexicographic by ticker, making
every run deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._grid import Grid, date_span, write_csv
from .errors import LabError, RangeError, ValidationError
from .factors import CompositeScore, scw_weights
from .metrics import sharpe_ratio
from .panels import MarketPanel, simple_returns

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BacktestConfig:
    k: int = 10
    cost_rate: float = 0.001
    period: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"basket size must be >= 1, got {self.k}")
        if self.cost_rate < 0:
            raise ValidationError(f"cost rate must be >= 0, got {self.cost_rate}")


@dataclass(frozen=True)
class EquityCurve(Grid):
    """Daily portfolio record: post-trade target weights on the grid; wealth
    (start 1.0), returns and costs (booked on the day the trade's P&L first
    accrues) per date."""

    ARRAYS = {"holdings": (float, ())}
    SERIES = ("wealth", "daily_returns", "cost_paid")
    WHAT = "equity curve"

    holdings: np.ndarray
    wealth: np.ndarray
    daily_returns: np.ndarray
    cost_paid: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(self.wealth[0] - 1.0) > 1e-12:
            raise ValidationError("wealth must start at 1.0")
        if np.any(self.cost_paid < 0):
            raise ValidationError("cost_paid must be non-negative")
        if np.any(self.holdings < -1e-12) or np.any(self.holdings.sum(axis=1) > 1.0 + 1e-9):
            raise ValidationError("holdings must be long-only weights summing to <= 1")

    def restrict(self, tickers):
        """Refused: the wealth of the whole basket is not that of fewer tickers."""
        raise ValidationError("an equity curve cannot be restricted to some of its tickers: "
                              "its wealth covers the whole basket")


def write_equity_curve(curve: EquityCurve, path: str, holdings_path: str | None = None) -> None:
    """Delimited export: date,wealth,daily_return,cost_paid (+ optional holdings file)."""
    write_csv(path, ["date", "wealth", "daily_return", "cost_paid"], (
        [d, repr(float(curve.wealth[i])), repr(float(curve.daily_returns[i])),
         repr(float(curve.cost_paid[i]))] for i, d in enumerate(curve.dates)))
    if holdings_path is not None:
        ii, jj = np.nonzero(curve.holdings)
        write_csv(holdings_path, ["date", "ticker", "weight"], (
            [curve.dates[i], curve.tickers[j], repr(w)] for i, j, w in
            zip(ii.tolist(), jj.tolist(), curve.holdings[ii, jj].tolist())))


# ---------------------------------------------------------------------------
# The ledger engine
# ---------------------------------------------------------------------------

def run_weight_schedule(panel: MarketPanel, targets: np.ndarray, cost_rate: float) -> EquityCurve:
    """Execute a per-date target-weight schedule against the panel.

    Trading happens at a day's close only when that day's target vector
    differs from the previous one; otherwise positions drift. Costs are
    cost_rate x traded notional, charged on both buys and sells, and no trade
    runs at the final close (there is no accrual day left to fund). Targets
    must be finite, long-only and sum to at most 1 on each day.
    """
    n_d, n_t = panel.n_dates, panel.n_tickers
    if n_d == 0:
        raise ValidationError("cannot run a weight schedule on a panel with no dates")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n_d, n_t):
        raise ValidationError(f"targets shape {targets.shape}, expected {(n_d, n_t)}")
    finite = np.isfinite(targets)
    if not finite.all():
        d, t = np.argwhere(~finite)[0]
        raise ValidationError(
            f"non-finite target weight at ({panel.dates[d]}, {panel.tickers[t]})")
    if np.any(targets < -1e-12) or np.any(targets.sum(axis=1) > 1.0 + 1e-9):
        raise ValidationError("target weights must be long-only and sum to <= 1")

    # a trade on each day whose targets differ from the day before's (from
    # all cash before the first day), never on the last day
    trades = np.empty(n_d, dtype=bool)
    trades[0] = np.any(targets[0] != 0.0)
    trades[1:] = np.any(targets[1:] != targets[:-1], axis=1)
    trades[-1] = False

    # between two trades the book only drifts, so a run of days is marked at
    # once: a row sum of the (C-ordered) closes is bit-equal to the sum of
    # that day's positions
    close = panel.close
    cash = 1.0
    shares = np.zeros(n_t)
    wealth = np.empty(n_d)
    cost_paid = np.zeros(n_d)
    held_from = 0
    for d in np.flatnonzero(trades).tolist():
        if held_from < d:
            wealth[held_from:d] = cash + (close[held_from:d] * shares).sum(axis=1)
        pos_val = shares * close[d]
        value = cash + pos_val.sum()
        wealth[d] = value
        target_val = targets[d] * value
        cost = cost_rate * np.abs(target_val - pos_val).sum()
        shares = target_val / close[d]
        cash = value - target_val.sum() - cost
        cost_paid[d + 1] = cost  # booked in the next day's mark
        held_from = d + 1
    wealth[held_from:] = cash + (close[held_from:] * shares).sum(axis=1)

    daily_returns = np.zeros(n_d)
    daily_returns[1:] = wealth[1:] / wealth[:-1] - 1.0
    return EquityCurve(
        dates=panel.dates, wealth=wealth, daily_returns=daily_returns,
        holdings=targets, cost_paid=cost_paid, tickers=panel.tickers,
    )


def backtest_topk(
    scores: CompositeScore,
    panel: MarketPanel,
    config: BacktestConfig,
    weighting: str | tuple[str, float] = "equal",
) -> EquityCurve:
    """Daily top-k long-only portfolio driven by a score matrix.

    ``scores`` carries (dates, tickers, values) aligned with the panel over
    the configured period. ``weighting`` is "equal" or ("scw", temperature)
    for softmax conviction weights within the basket. Days with fewer scored
    tickers than k shrink the basket (with a logged warning); days with no
    scored tickers hold the previous positions.
    """
    sub_panel, sub_scores = panel, scores
    if config.period is not None:
        sub_panel = sub_panel.slice_dates(*config.period)
        sub_scores = sub_scores.slice_dates(*config.period)
    sub_panel.check_aligned(sub_scores, "scores")

    n_d, n_t = sub_panel.n_dates, sub_panel.n_tickers
    tickers = sub_panel.tickers
    mode = weighting if isinstance(weighting, str) else weighting[0]
    if mode not in ("equal", "scw"):
        raise ValidationError(f"unknown weighting {weighting!r}")
    temperature = None if mode == "equal" else float(weighting[1])

    # rank every day at once: finite scores first, then score descending, then
    # ticker name (``restrict`` may leave the columns in any order)
    values = sub_scores.values
    finite = np.isfinite(values)
    name_rank = np.argsort(sorted(range(n_t), key=tickers.__getitem__))
    keys = (np.broadcast_to(name_rank, values.shape), -np.where(finite, values, 0.0), ~finite)
    order = np.lexsort(keys, axis=1)
    sizes = np.minimum(finite.sum(axis=1), config.k)
    short_days = np.count_nonzero((sizes > 0) & (sizes < config.k))

    targets = np.zeros((n_d, n_t))
    if mode == "equal":
        in_basket = np.arange(n_t) < sizes[:, None]
        np.put_along_axis(targets, order, in_basket / np.maximum(sizes, 1)[:, None], axis=1)
    else:
        for d in np.flatnonzero(sizes):
            basket = order[d, : sizes[d]]
            names = [tickers[j] for j in basket]
            w = scw_weights(dict(zip(names, values[d, basket].tolist())), names, temperature)
            targets[d, basket] = [w[t] for t in names]
    # a day with no scored ticker holds the previous day's targets
    held = np.maximum.accumulate(np.where(sizes > 0, np.arange(n_d), 0))
    targets = targets[held]
    if short_days:
        logger.warning(
            "basket shrank below k=%d on %d of %d days (not enough scored tickers)",
            config.k, short_days, n_d,
        )
    return run_weight_schedule(sub_panel, targets, config.cost_rate)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def baseline(
    panel: MarketPanel,
    kind: str,
    config: BacktestConfig,
    lookback: int = 126,
    vol_window: int = 63,
) -> EquityCurve:
    """Passive and rule-based comparators.

    * ``ew_buy_and_hold`` — equal-weight price-average index: buy once at the
      first close, never rebalance, no cost at any point.
    * ``momentum_topk`` — rank by trailing ``lookback``-day return, reuse the
      top-k machinery at the configured cost.
    * ``equal_vol`` — weights proportional to inverse trailing volatility
      over ``vol_window`` days, renormalised daily.

    Momentum and equal-vol need enough panel history before the configured
    period to cover their lookbacks.
    """
    period = config.period or (panel.dates[0], panel.dates[-1])

    def first_in_period() -> int:
        first = date_span(panel.dates, period[0], panel.dates[-1]).start
        if first == panel.n_dates:
            raise RangeError(f"no panel dates at or after {period[0]}")
        return first

    if kind == "ew_buy_and_hold":
        view = panel.slice_dates(*period)
        targets = np.zeros((view.n_dates, view.n_tickers))
        targets[:] = 1.0 / view.n_tickers
        return run_weight_schedule(view, targets, 0.0)

    if kind == "momentum_topk":
        if first_in_period() < lookback:
            raise RangeError(
                f"momentum lookback {lookback} needs {lookback} rows before {period[0]}"
            )
        rel = np.full_like(panel.close, np.nan)
        rel[lookback:] = panel.close[lookback:] / panel.close[:-lookback] - 1.0
        scores = CompositeScore(dates=panel.dates, tickers=panel.tickers, values=rel)
        return backtest_topk(scores, panel, replace(config, period=period))

    if kind == "equal_vol":
        first = first_in_period()
        rets = simple_returns(panel)
        vol = np.full_like(panel.close, np.nan)
        for d in range(vol_window + 1, panel.n_dates):
            vol[d] = rets[d - vol_window : d].std(axis=0, ddof=1)
        if first < vol_window + 1:
            raise RangeError(
                f"equal-vol window {vol_window} needs {vol_window + 1} rows before {period[0]}"
            )
        view = panel.slice_dates(*period)
        vol_view = vol[date_span(panel.dates, *period)]
        if np.any(vol_view <= 0):
            vol_view = np.where(vol_view <= 0, np.nan, vol_view)
        inv = 1.0 / vol_view
        # a dead (zero-vol) column would break renormalisation; spread equally
        inv = np.where(np.isfinite(inv), inv, 1.0)
        targets = inv / inv.sum(axis=1, keepdims=True)
        return run_weight_schedule(view, targets, config.cost_rate)

    raise ValidationError(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# Sub-periods
# ---------------------------------------------------------------------------

def subperiod_report(
    curve: EquityCurve,
    benchmark: EquityCurve,
    periods: list[tuple[str, str, str]],
) -> list[dict]:
    """Per-period breakdown: (name, start, end) -> days, CR, benchmark CR,
    excess, Sharpe.

    A period's compounded return covers the return observations whose dates
    fall inside it; the very first curve date carries no observation. Periods
    must lie inside the curve and must not overlap. The benchmark must share
    the curve's calendar; it may hold other tickers.
    """
    curve.check_aligned(benchmark, "benchmark", _dates_only=True)
    seen: list[tuple[str, str]] = []
    rows = []
    for name, start, end in periods:
        if start > end:
            raise RangeError(f"period {name}: start {start} after end {end}")
        for s2, e2 in seen:
            if start <= e2 and s2 <= end:
                raise ValidationError(f"period {name} overlaps an earlier period")
        seen.append((start, end))
        span = date_span(curve.dates, start, end)
        idx = slice(max(span.start, 1), span.stop)
        if idx.start >= idx.stop:
            raise RangeError(f"period {name}: no return observations in [{start}, {end}]")
        r = curve.daily_returns[idx]
        rb = benchmark.daily_returns[idx]
        cr = float(np.prod(1.0 + r) - 1.0)
        cr_b = float(np.prod(1.0 + rb) - 1.0)
        try:
            sharpe = sharpe_ratio(r)
        except LabError:
            sharpe = float("nan")  # degenerate period (too short or flat)
        rows.append({
            "period": name,
            "start": start,
            "end": end,
            "days": idx.stop - idx.start,
            "cr": cr,
            "benchmark_cr": cr_b,
            "excess_cr": cr - cr_b,
            "sharpe": sharpe,
        })
    return rows
