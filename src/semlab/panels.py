"""Price panels, technical features, forward returns, and the turbulence index.

The panel is the numerical substrate for everything else: a dense
(date x ticker) grid of closes (plus optional open/high/low/volume) with a
strictly increasing trading calendar. Loading is strict by design — tickers
with missing dates produce an alignment error rather than a silent
forward-fill, so every downstream estimator sees identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._grid import Grid, check_increasing, date_span, frozen, read_grid, write_grid
from .errors import NumericalError, RangeError, ValidationError, WarmupError

PANEL_HEADER = ("date", "ticker", "open", "high", "low", "close", "volume")

# Standard indicator inventory. The default layout carries all eight names;
# the observation dimension downstream is driven by whatever list is
# configured here, so shorter lists are fully supported.
INDICATORS_ALL = (
    "macd",
    "boll_ub",
    "boll_lb",
    "rsi_30",
    "cci_30",
    "adx_30",
    "sma_30",
    "sma_60",
)

_INDICATOR_WARMUP = {
    "macd": 0,
    "boll_ub": 19,
    "boll_lb": 19,
    "rsi_30": 30,
    "cci_30": 29,
    "adx_30": 59,
    "sma_30": 29,
    "sma_60": 59,
}


@dataclass(frozen=True)
class MarketPanel(Grid):
    """Aligned (date x ticker) price grid, immutable after construction:
    finite positive prices and a finite volume >= 0 (zero when not recorded)."""

    ARRAYS = {name: (float, ()) for name in ("close", "volume", "open", "high", "low")}

    close: np.ndarray
    volume: np.ndarray | None = None
    open: np.ndarray | None = None
    high: np.ndarray | None = None
    low: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in self.ARRAYS:
            arr = getattr(self, name)
            if arr is None:
                continue
            # NaN fails both comparisons, so only a clean array skips the search
            least = arr.min(initial=np.inf)
            if (least >= 0 if name == "volume" else least > 0) and arr.max(initial=0.0) < np.inf:
                continue
            finite = np.isfinite(arr)
            bad = ~finite | (arr < 0 if name == "volume" else arr <= 0)
            if bad.any():
                d, t = np.argwhere(bad)[0]
                fault = ("non-finite" if not finite[d, t]
                         else "negative" if name == "volume" else "non-positive")
                raise ValidationError(f"{fault} {name} at ({self.dates[d]}, {self.tickers[t]})")

    def date_index(self, date: str) -> int:
        span = date_span(self.dates, date, date)
        if span.start == span.stop:
            raise RangeError(f"date {date} not in panel calendar")
        return span.start


@dataclass(frozen=True)
class FeaturePanel(Grid):
    """Per-(date, ticker) technical indicator block with a flagged warm-up prefix.

    Rows before ``warmup`` may contain NaN; rows at or past it are finite
    everywhere. The indicator list and ordering are fixed per run.
    """

    ARRAYS = {"values": (float, None)}

    values: np.ndarray  # (dates, tickers, indicators)
    names: tuple[str, ...]
    warmup: int

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "names", tuple(self.names))
        expected = (self.n_dates, self.n_tickers, len(self.names))
        if self.values.shape != expected:
            raise ValidationError(f"values has shape {self.values.shape}, expected {expected}")
        if not np.all(np.isfinite(self.values[self.warmup :])):
            raise ValidationError("non-finite indicator values past the warm-up prefix")


@dataclass(frozen=True)
class TurbulenceSeries:
    """Per-date cross-sectional turbulence (squared Mahalanobis distance).

    Warm-up entries are NaN, never zero-filled; ``available`` marks the rows
    with a defined value; ``gate`` flags the days above a threshold.
    """

    dates: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        check_increasing(self.dates)
        values = frozen(self.values)
        if values.shape != (len(self.dates),):
            raise ValidationError(
                f"values has shape {values.shape}, expected ({len(self.dates)},)"
            )
        finite = values[np.isfinite(values)]
        if finite.size and finite.min() < 0:
            raise ValidationError("turbulence values must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def available(self) -> np.ndarray:
        return np.isfinite(self.values)

    def gate(self, threshold: float) -> np.ndarray:
        """Boolean no-buy flag per date: value strictly above the threshold."""
        out = np.zeros(len(self.dates), dtype=bool)
        avail = self.available
        out[avail] = self.values[avail] > threshold
        return out


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_price_panel(path: str) -> MarketPanel:
    """Load the long-form delimited panel ``date,ticker,open,high,low,close,volume``
    on its own calendar by ``_grid.read_grid``: every ticker must cover every
    date, and gaps raise an AlignmentError instead of being forward-filled."""
    dates, tickers, values = read_grid(path, PANEL_HEADER)
    columns = {name: values[:, :, c] for c, name in enumerate(PANEL_HEADER[2:])}
    try:
        return MarketPanel(dates=dates, tickers=tickers, **columns)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_price_panel(panel: MarketPanel, path: str) -> None:
    """Write a panel back to the long-form interchange format by
    ``_grid.write_grid``: the close stands in for a missing open, high or
    low, and ``0.0`` for a missing volume."""
    close = panel.close
    write_grid(path, PANEL_HEADER, panel.dates, panel.tickers, [
        close if panel.open is None else panel.open,
        close if panel.high is None else panel.high,
        close if panel.low is None else panel.low,
        close,
        np.zeros_like(close) if panel.volume is None else panel.volume,
    ])


# ---------------------------------------------------------------------------
# Technical indicators
# ---------------------------------------------------------------------------

# Every helper runs down axis 0 (time) over a whole (dates, tickers) grid.
# The recursions step once per date over every series that shares the loop:
# both MACD spans in one EMA pass, and RSI's and ADX's five move series side
# by side in one Wilder pass. Each element's arithmetic is the one a lone
# series gets, so stacking series never changes a bit.

def _emas(x: np.ndarray, spans: tuple[int, ...]) -> np.ndarray:
    """Recursive exponential means of the (dates, tickers) grid ``x``, one per
    span, seeded with the first observation: (dates, spans, tickers), with
    s[i] = alpha * x[i] + (1 - alpha) * s[i-1] stepped for all spans at once."""
    alpha = [2.0 / (span + 1.0) for span in spans]
    keep = np.array([1 - a for a in alpha])[:, None]
    # alpha * x[i] reads no earlier step, so it is taken for every date up front
    out = np.array(alpha)[:, None] * x[:, None, :]
    out[0] = x[0]
    for prev, cur in zip(out[:-1], out[1:]):
        cur += keep * prev
    return out


def _wilder(x: np.ndarray, n: int) -> np.ndarray:
    """Wilder smoothing of each column of the (dates, series) grid ``x``:
    simple-average seed over the first n rows, then
    s[i] = s[i-1] + (x[i] - s[i-1]) / n. Leading rows before the seed are NaN."""
    out = np.full(x.shape, np.nan)
    if len(x) < n:
        return out
    # each series' seed is summed along one contiguous row, in the order
    # np.mean sums a lone series, so it does not depend on the series count
    out[n - 1] = np.mean(np.ascontiguousarray(x[:n].T), axis=-1)
    for x_i, prev, cur in zip(x[n:], out[n - 1 : -1], out[n:]):
        np.subtract(x_i, prev, out=cur)
        cur /= n
        cur += prev
    return out


def _windows(x: np.ndarray, n: int) -> list[np.ndarray]:
    """The n offset views x[k : k + m], k = 0..n-1; row r of them together
    holds the trailing window that ends at row r + n - 1."""
    m = len(x) - n + 1
    return [x[k : k + m] for k in range(n)] if m > 0 else []


def _rolling_mean(x: np.ndarray, n: int) -> np.ndarray:
    out = np.full(x.shape, np.nan)
    if len(x) >= n:
        c = np.concatenate([np.zeros((1,) + x.shape[1:]), np.cumsum(x, axis=0)])
        out[n - 1 :] = (c[n:] - c[:-n]) / n
    return out


def _rolling_std(x: np.ndarray, n: int, ddof: int = 0) -> np.ndarray:
    # Std over the window (population by default, divisor n - ddof), two-pass
    # per window, as ``np.std`` takes it along axis 0: the window mean
    # first, then the squared deviations from it, which keeps it robust to
    # the catastrophic cancellation the cumsum-of-squares shortcut invites.
    # Both passes accumulate over the n window offsets, so no
    # (days x tickers x n) temporary is ever built.
    out = np.full(x.shape, np.nan)
    windows = _windows(x, n)
    mean = sum(windows) / n
    out[n - 1 :] = np.sqrt(sum((w - mean) ** 2 for w in windows) / (n - ddof))
    return out


# RSI and ADX each come in two halves around the shared Wilder pass: the
# inputs are the day-over-day move series (dates - 1 rows each), the finish
# reads their smoothed averages from row n - 1 on, where row i of the result
# sees the averages through row i - 1.

def _rsi_inputs(close: np.ndarray) -> list[np.ndarray]:
    delta = close[1:] - close[:-1]
    return [np.maximum(delta, 0.0), np.maximum(-delta, 0.0)]


def _rsi_finish(g: np.ndarray, l: np.ndarray, n: int) -> np.ndarray:
    out = np.full((len(g) + n, g.shape[1]), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        rsi = 100.0 - 100.0 / (1.0 + g / l)
    # flat-series convention: 50 with no moves at all, 100 with no losses
    out[n:] = np.where(l == 0.0, np.where(g == 0.0, 50.0, 100.0), rsi)
    return out


def _cci(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    tp = (high + low + close) / 3.0
    sma = _rolling_mean(tp, n)[n - 1 :]
    # mean absolute deviation from the window's SMA, accumulated over offsets
    md = sum(np.abs(w - sma) for w in _windows(tp, n)) / n
    out = np.full(tp.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[n - 1 :] = np.where(md == 0.0, 0.0, (tp[n - 1 :] - sma) / (0.015 * md))
    return out


def _adx_inputs(high: np.ndarray, low: np.ndarray, close: np.ndarray) -> list[np.ndarray]:
    up_move = high[1:] - high[:-1]
    dn_move = low[:-1] - low[1:]
    up = np.where((up_move > dn_move) & (up_move > 0), up_move, 0.0)
    dn = np.where((dn_move > up_move) & (dn_move > 0), dn_move, 0.0)
    tr = np.maximum(
        high[1:] - low[1:],
        np.maximum(np.abs(high[1:] - close[:-1]), np.abs(low[1:] - close[:-1])),
    )
    return [up, dn, tr]


def _adx_finish(s_up: np.ndarray, s_dn: np.ndarray, atr: np.ndarray, n: int) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        di_p = 100.0 * s_up / atr
        di_m = 100.0 * s_dn / atr
        denom = di_p + di_m
        dx = np.where((atr == 0.0) | (denom == 0.0), 0.0, 100.0 * np.abs(di_p - di_m) / denom)
    out = np.full((len(dx) + n, dx.shape[1]), np.nan)
    out[2 * n - 1 :] = _wilder(dx, n)[n - 1 :]
    return out


def compute_indicators(
    panel: MarketPanel, names: tuple[str, ...] = INDICATORS_ALL
) -> FeaturePanel:
    """Compute the configured indicator block for every ticker.

    Formulas are the textbook conventions: MACD = EMA12 - EMA26 (recursive,
    first-value seed), Bollinger bands at SMA20 +/- 2 population sigma,
    RSI/ADX with Wilder smoothing over 30 periods, CCI with the 0.015
    constant, plain rolling means for the SMAs. Deterministic for fixed
    input. CCI and ADX need high/low columns.

    Each indicator is computed once over the whole (dates, tickers) grid.
    The recursions step once per date for every series that shares them:
    one EMA loop for both MACD spans, one Wilder loop for the move series of
    whichever of RSI and ADX are named (gains, losses; up, down, true range),
    and a second for ADX's DX. Only the named indicators' series are stacked.
    The rolling sigma and CCI's mean absolute deviation stay two-pass per
    window, with both passes summed over the window offsets rather than
    over days. Bollinger's SMA20 and sigma are computed once for both bands.
    """
    if not names:
        raise ValidationError("need at least one indicator name")
    unknown = [n for n in names if n not in _INDICATOR_WARMUP]
    if unknown:
        raise ValidationError(f"unknown indicator names: {unknown}")
    warmup = max(_INDICATOR_WARMUP[n] for n in names)
    if panel.n_dates < warmup + 1:
        longest = max(names, key=lambda n: _INDICATOR_WARMUP[n])
        raise WarmupError(
            f"{longest} requires at least {warmup + 1} rows, panel has {panel.n_dates}"
        )
    needs_hl = any(n.startswith(("cci", "adx")) for n in names)
    if needs_hl and (panel.high is None or panel.low is None):
        raise ValidationError("cci/adx indicators require high and low columns")

    close, high, low = panel.close, panel.high, panel.low
    if "macd" in names:
        ema = _emas(close, (12, 26))
    if {"boll_ub", "boll_lb"} & set(names):
        boll_mid, boll_width = _rolling_mean(close, 20), 2.0 * _rolling_std(close, 20)
    moves = ((_rsi_inputs(close) if "rsi_30" in names else [])
             + (_adx_inputs(high, low, close) if "adx_30" in names else []))
    if moves:
        smoothed = np.split(_wilder(np.concatenate(moves, axis=1), 30)[29:], len(moves), axis=1)
        rsi_avgs = smoothed[:2] if "rsi_30" in names else []
        adx_avgs = smoothed[len(rsi_avgs):]
    values = np.full((panel.n_dates, panel.n_tickers, len(names)), np.nan)
    for k, name in enumerate(names):
        if name == "macd":
            col = ema[:, 0] - ema[:, 1]
        elif name == "boll_ub":
            col = boll_mid + boll_width
        elif name == "boll_lb":
            col = boll_mid - boll_width
        elif name == "rsi_30":
            col = _rsi_finish(*rsi_avgs, 30)
        elif name == "cci_30":
            col = _cci(high, low, close, 30)
        elif name == "adx_30":
            col = _adx_finish(*adx_avgs, 30)
        elif name == "sma_30":
            col = _rolling_mean(close, 30)
        elif name == "sma_60":
            col = _rolling_mean(close, 60)
        values[:, :, k] = col
    return FeaturePanel(
        dates=panel.dates, tickers=panel.tickers, values=values,
        names=tuple(names), warmup=warmup,
    )


# ---------------------------------------------------------------------------
# Turbulence and returns
# ---------------------------------------------------------------------------

def simple_returns(panel: MarketPanel) -> np.ndarray:
    """(dates, tickers) simple daily returns; the first row is NaN."""
    out = np.full_like(panel.close, np.nan)
    out[1:] = panel.close[1:] / panel.close[:-1] - 1.0
    return out


# Trailing windows are stacked this many scored days at a time: about 1 MB
# of windows at 30 tickers. Longer chunks were no faster at 30 tickers and
# slower at 100.
_TURBULENCE_CHUNK = 16


def compute_turbulence(panel: MarketPanel, window: int = 252) -> TurbulenceSeries:
    """Squared Mahalanobis distance of each day's cross-sectional return vector
    against the mean and covariance of the trailing ``window`` days (the day
    itself excluded). The covariance gets a fixed diagonal ridge of
    1e-6 * trace/N so near-singular windows stay invertible.

    The days are scored a chunk at a time: one stacked mean, covariance
    (``np.cov``'s own operations, a syrk per day), ridge and solve for every
    day of the chunk, each bit for bit what a day-by-day loop returns. A day
    that sits exactly on its trailing mean scores 0.0 without a solve, so
    its covariance may be singular; any other singular day raises, naming
    the first such day.
    """
    n = panel.n_tickers
    if window < n + 2:
        raise ValidationError(f"window {window} must be >= tickers + 2 = {n + 2}")
    rets = simple_returns(panel)
    values = np.full(panel.n_dates, np.nan)
    if panel.n_dates <= window + 1:
        return TurbulenceSeries(dates=panel.dates, values=values)
    # hists[d - window] is day d's trailing window rets[d - window : d]
    hists = np.lib.stride_tricks.sliding_window_view(rets, window, axis=0).transpose(0, 2, 1)
    diagonal = (slice(None),) + np.diag_indices(n)
    scale = np.true_divide(1, window - 1)
    for start in range(window + 1, panel.n_dates, _TURBULENCE_CHUNK):
        days = slice(start, min(start + _TURBULENCE_CHUNK, panel.n_dates))
        hist = hists[days.start - window : days.stop - window]
        mu = hist.mean(axis=1)
        x = (hist - mu[:, None, :]).transpose(0, 2, 1)
        cov = np.matmul(x, x.transpose(0, 2, 1))
        cov *= scale
        cov[diagonal] += (1e-6 * np.trace(cov, axis1=1, axis2=2) / n)[:, None]
        diff = rets[days] - mu
        moved = np.flatnonzero(diff.any(axis=1))  # the rest sit on the trailing mean
        q = np.zeros(len(diff))
        if moved.size:
            try:
                sol = np.linalg.solve(cov[moved], diff[moved, :, None])
            except np.linalg.LinAlgError:
                for j in moved:
                    try:
                        np.linalg.solve(cov[j], diff[j])
                    except np.linalg.LinAlgError:
                        raise NumericalError(
                            f"singular return covariance at {panel.dates[start + j]}"
                        ) from None
                raise
            q[moved] = np.matmul(diff[moved, None, :], sol)[:, 0, 0]
        values[days] = np.where(q > 0.0, q, 0.0)
    return TurbulenceSeries(dates=panel.dates, values=values)


def forward_returns(panel: MarketPanel, horizon: int) -> np.ndarray:
    """(dates, tickers) simple returns close[d+h]/close[d] - 1.

    The last ``horizon`` rows are NaN (unavailable), never zero.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if horizon >= panel.n_dates:
        raise RangeError(
            f"horizon {horizon} >= panel length {panel.n_dates}"
        )
    out = np.full_like(panel.close, np.nan)
    out[:-horizon] = panel.close[horizon:] / panel.close[:-horizon] - 1.0
    return out
