"""Scalar reference implementation of the technical indicators.

One ticker at a time, one window at a time: the per-ticker loops that
``semlab.panels.compute_indicators`` replaced with whole-grid array
operations. Kept here only as the oracle the vectorised code is checked
against; nothing in ``src/`` calls it.
"""

import numpy as np


def _ema(x: np.ndarray, span: int) -> np.ndarray:
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, len(x)):
        out[i] = alpha * x[i] + (1 - alpha) * out[i - 1]
    return out


def _wilder(x: np.ndarray, n: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if len(x) < n:
        return out
    out[n - 1] = np.mean(x[:n])
    for i in range(n, len(x)):
        out[i] = out[i - 1] + (x[i] - out[i - 1]) / n
    return out


def _rolling_mean(x: np.ndarray, n: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if len(x) >= n:
        c = np.concatenate([[0.0], np.cumsum(x)])
        out[n - 1 :] = (c[n:] - c[:-n]) / n
    return out


def _rolling_std(x: np.ndarray, n: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    for i in range(n - 1, len(x)):
        out[i] = np.std(x[i - n + 1 : i + 1])
    return out


def _rsi(close: np.ndarray, n: int) -> np.ndarray:
    delta = np.diff(close, prepend=close[0])
    gains = np.maximum(delta, 0.0)
    losses = np.maximum(-delta, 0.0)
    avg_gain = _wilder(gains[1:], n)
    avg_loss = _wilder(losses[1:], n)
    out = np.full(len(close), np.nan)
    for i in range(n, len(close)):
        g, l = avg_gain[i - 1], avg_loss[i - 1]
        if g == 0.0 and l == 0.0:
            out[i] = 50.0
        elif l == 0.0:
            out[i] = 100.0
        else:
            out[i] = 100.0 - 100.0 / (1.0 + g / l)
    return out


def _cci(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    tp = (high + low + close) / 3.0
    sma = _rolling_mean(tp, n)
    out = np.full(len(close), np.nan)
    for i in range(n - 1, len(close)):
        window = tp[i - n + 1 : i + 1]
        md = np.mean(np.abs(window - sma[i]))
        out[i] = 0.0 if md == 0.0 else (tp[i] - sma[i]) / (0.015 * md)
    return out


def _adx(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    m = len(close)
    up = np.zeros(m)
    dn = np.zeros(m)
    tr = np.zeros(m)
    for i in range(1, m):
        up_move = high[i] - high[i - 1]
        dn_move = low[i - 1] - low[i]
        up[i] = up_move if (up_move > dn_move and up_move > 0) else 0.0
        dn[i] = dn_move if (dn_move > up_move and dn_move > 0) else 0.0
        tr[i] = max(high[i] - low[i], abs(high[i] - close[i - 1]), abs(low[i] - close[i - 1]))
    s_up = _wilder(up[1:], n)
    s_dn = _wilder(dn[1:], n)
    s_tr = _wilder(tr[1:], n)
    dx = np.full(m, np.nan)
    for i in range(n, m):
        atr = s_tr[i - 1]
        if atr == 0.0:
            dx[i] = 0.0
            continue
        di_p = 100.0 * s_up[i - 1] / atr
        di_m = 100.0 * s_dn[i - 1] / atr
        denom = di_p + di_m
        dx[i] = 0.0 if denom == 0.0 else 100.0 * abs(di_p - di_m) / denom
    out = np.full(m, np.nan)
    smoothed = _wilder(dx[n:], n)
    out[2 * n - 1 :] = smoothed[n - 1 :]
    return out


def scalar_indicators(panel, names) -> np.ndarray:
    """(dates, tickers, indicators) block, computed ticker by ticker."""
    values = np.full((panel.n_dates, panel.n_tickers, len(names)), np.nan)
    for j in range(panel.n_tickers):
        close = panel.close[:, j]
        high = panel.high[:, j] if panel.high is not None else close
        low = panel.low[:, j] if panel.low is not None else close
        for k, name in enumerate(names):
            if name == "macd":
                col = _ema(close, 12) - _ema(close, 26)
            elif name == "boll_ub":
                col = _rolling_mean(close, 20) + 2.0 * _rolling_std(close, 20)
            elif name == "boll_lb":
                col = _rolling_mean(close, 20) - 2.0 * _rolling_std(close, 20)
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
            values[:, j, k] = col
    return values
