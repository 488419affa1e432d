"""Price panels, technical features, forward returns, and the turbulence index.

The panel is the numerical substrate for everything else: a dense
(date x ticker) grid of closes (plus optional open/high/low/volume) with a
strictly increasing trading calendar. Loading is strict by design — tickers
with missing dates produce an alignment error rather than a silent
forward-fill, so every downstream estimator sees identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from ._grid import check_increasing, check_unique, date_span, read_grid, ticker_positions
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


def _freeze(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is None:
        return None
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MarketPanel:
    """Aligned (date x ticker) price grid, immutable after construction."""

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    close: np.ndarray
    volume: np.ndarray | None = None
    open: np.ndarray | None = None
    high: np.ndarray | None = None
    low: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        check_increasing(self.dates)
        check_unique(self.tickers)
        shape = (len(self.dates), len(self.tickers))
        for name in ("close", "open", "high", "low", "volume"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = _freeze(arr)
            if arr.shape != shape:
                raise ValidationError(f"{name} has shape {arr.shape}, expected {shape}")
            bad = ~np.isfinite(arr)
            if name != "volume":
                bad |= arr <= 0  # prices must be positive; a volume may be zero
            if bad.any():
                d, t = np.argwhere(bad)[0]
                fault = "non-finite" if not np.isfinite(arr[d, t]) else "non-positive"
                raise ValidationError(f"{fault} {name} at ({self.dates[d]}, {self.tickers[t]})")
            object.__setattr__(self, name, arr)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    def date_index(self, date: str) -> int:
        span = date_span(self.dates, date, date)
        if span.start == span.stop:
            raise RangeError(f"date {date} not in panel calendar")
        return span.start

    def slice_dates(self, start: str, end: str) -> "MarketPanel":
        """Sub-panel with start <= date <= end (ISO strings compare correctly)."""
        sl = date_span(self.dates, start, end)
        if sl.start == sl.stop:
            raise RangeError(f"no panel dates in [{start}, {end}]")
        return self._select(sl, self.tickers, slice(None))

    def restrict(self, tickers: list[str] | tuple[str, ...]) -> "MarketPanel":
        """Sub-panel keeping only the given tickers, in the given order."""
        return self._select(slice(None), tuple(tickers), ticker_positions(self.tickers, tickers))

    def _select(self, rows: slice, tickers: tuple[str, ...], cols) -> "MarketPanel":
        arrays = {name: None if getattr(self, name) is None else getattr(self, name)[rows, cols]
                  for name in ("close", "volume", "open", "high", "low")}
        return MarketPanel(dates=self.dates[rows], tickers=tickers, **arrays)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(",".join(self.dates).encode())
        h.update(",".join(self.tickers).encode())
        for arr in (self.close, self.volume, self.open, self.high, self.low):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class FeaturePanel:
    """Per-(date, ticker) technical indicator block with a flagged warm-up prefix.

    Rows before ``warmup`` may contain NaN; rows at or past it are finite
    everywhere. The indicator list and ordering are fixed per run.
    """

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    values: np.ndarray  # (dates, tickers, indicators)
    names: tuple[str, ...]
    warmup: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "names", tuple(self.names))
        values = _freeze(self.values)
        expected = (len(self.dates), len(self.tickers), len(self.names))
        if values.shape != expected:
            raise ValidationError(f"values shape {values.shape}, expected {expected}")
        if not np.all(np.isfinite(values[self.warmup :])):
            raise ValidationError("non-finite indicator values past the warm-up prefix")
        object.__setattr__(self, "values", values)


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
        values = _freeze(self.values)
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
    """Write a panel back to the long-form interchange format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_HEADER)
        for i, d in enumerate(panel.dates):
            for j, t in enumerate(panel.tickers):
                writer.writerow([
                    d, t,
                    repr(float(panel.open[i, j])) if panel.open is not None else repr(float(panel.close[i, j])),
                    repr(float(panel.high[i, j])) if panel.high is not None else repr(float(panel.close[i, j])),
                    repr(float(panel.low[i, j])) if panel.low is not None else repr(float(panel.close[i, j])),
                    repr(float(panel.close[i, j])),
                    repr(float(panel.volume[i, j])) if panel.volume is not None else "0.0",
                ])


# ---------------------------------------------------------------------------
# Technical indicators
# ---------------------------------------------------------------------------

# Every helper runs down axis 0 (time) and works on a single series or on a
# whole (dates, tickers) grid alike; recursions step once per date over the
# ticker vector.

def _ema(x: np.ndarray, span: int) -> np.ndarray:
    """Recursive exponential mean, seeded with the first observation."""
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, len(x)):
        out[i] = alpha * x[i] + (1 - alpha) * out[i - 1]
    return out


def _wilder(x: np.ndarray, n: int) -> np.ndarray:
    """Wilder smoothing: simple-average seed over the first n rows, then
    s[i] = s[i-1] + (x[i] - s[i-1]) / n. Leading rows before the seed are NaN."""
    out = np.full(x.shape, np.nan)
    if len(x) < n:
        return out
    # each series' seed is summed along one contiguous row, in the order
    # np.mean sums a lone series, so it does not depend on the ticker count
    out[n - 1] = np.mean(np.ascontiguousarray(x[:n].T), axis=-1)
    for i in range(n, len(x)):
        out[i] = out[i - 1] + (x[i] - out[i - 1]) / n
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


def _rolling_std(x: np.ndarray, n: int) -> np.ndarray:
    # Population std over the window, two-pass per window: the window mean
    # first, then the squared deviations from it, which keeps it robust to
    # the catastrophic cancellation the cumsum-of-squares shortcut invites.
    # Both passes accumulate over the n window offsets, so no
    # (days x tickers x n) temporary is ever built.
    out = np.full(x.shape, np.nan)
    windows = _windows(x, n)
    mean = sum(windows) / n
    out[n - 1 :] = np.sqrt(sum((w - mean) ** 2 for w in windows) / n)
    return out


def _rsi(close: np.ndarray, n: int) -> np.ndarray:
    delta = np.diff(close, axis=0, prepend=close[:1])
    gains = np.maximum(delta, 0.0)
    losses = np.maximum(-delta, 0.0)
    # skip the synthetic first delta when seeding; row i reads the averages
    # through row i - 1
    g = _wilder(gains[1:], n)[n - 1 :]
    l = _wilder(losses[1:], n)[n - 1 :]
    out = np.full(close.shape, np.nan)
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


def _adx(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    up_move = high[1:] - high[:-1]
    dn_move = low[:-1] - low[1:]
    up = np.where((up_move > dn_move) & (up_move > 0), up_move, 0.0)
    dn = np.where((dn_move > up_move) & (dn_move > 0), dn_move, 0.0)
    tr = np.maximum(
        high[1:] - low[1:],
        np.maximum(np.abs(high[1:] - close[:-1]), np.abs(low[1:] - close[:-1])),
    )
    # row i reads the smoothed moves through row i - 1
    s_up = _wilder(up, n)[n - 1 :]
    s_dn = _wilder(dn, n)[n - 1 :]
    atr = _wilder(tr, n)[n - 1 :]
    with np.errstate(divide="ignore", invalid="ignore"):
        di_p = 100.0 * s_up / atr
        di_m = 100.0 * s_dn / atr
        denom = di_p + di_m
        dx = np.where((atr == 0.0) | (denom == 0.0), 0.0, 100.0 * np.abs(di_p - di_m) / denom)
    out = np.full(close.shape, np.nan)
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
    The recursions (EMA, Wilder) step once per date over the ticker vector.
    The rolling sigma and CCI's mean absolute deviation stay two-pass per
    window, with both passes summed over the window offsets rather than
    over days. Bollinger's SMA20 and sigma are computed once for both bands.
    """
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
    if {"boll_ub", "boll_lb"} & set(names):
        boll_mid, boll_width = _rolling_mean(close, 20), 2.0 * _rolling_std(close, 20)
    values = np.full((panel.n_dates, panel.n_tickers, len(names)), np.nan)
    for k, name in enumerate(names):
        if name == "macd":
            col = _ema(close, 12) - _ema(close, 26)
        elif name == "boll_ub":
            col = boll_mid + boll_width
        elif name == "boll_lb":
            col = boll_mid - boll_width
        elif name == "rsi_30":
            col = _rsi(close, 30)
        elif name == "cci_30":
            col = _cci(high, low, close, 30)
        elif name == "adx_30":
            col = _adx(high, low, close, 30)
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


def compute_turbulence(panel: MarketPanel, window: int = 252) -> TurbulenceSeries:
    """Squared Mahalanobis distance of each day's cross-sectional return vector
    against the mean and covariance of the trailing ``window`` days (the day
    itself excluded). The covariance gets a fixed diagonal ridge of
    1e-6 * trace/N so near-singular windows stay invertible.
    """
    n = panel.n_tickers
    if window < n + 2:
        raise ValidationError(f"window {window} must be >= tickers + 2 = {n + 2}")
    rets = simple_returns(panel)
    values = np.full(panel.n_dates, np.nan)
    for d in range(window + 1, panel.n_dates):
        hist = rets[d - window : d]
        mu = hist.mean(axis=0)
        cov = np.cov(hist, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov)
        ridge = 1e-6 * np.trace(cov) / n
        cov[np.diag_indices_from(cov)] += ridge
        diff = rets[d] - mu
        if not diff.any():
            values[d] = 0.0  # day identical to the trailing mean
            continue
        try:
            sol = np.linalg.solve(cov, diff)
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"singular return covariance at {panel.dates[d]}"
            ) from None
        values[d] = max(0.0, float(diff @ sol))
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
