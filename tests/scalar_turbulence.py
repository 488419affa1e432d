"""Scalar reference for the turbulence index.

One day at a time, with one ``np.cov`` call per day. ``semlab.panels.
compute_turbulence`` scores a chunk of days per step instead: stacked means,
covariances in ``np.cov``'s own operations without its per-call checks,
ridges and solves. Kept here only as the oracle the index is checked
against, bit for bit, errors included; nothing in ``src/`` calls it.
"""

import numpy as np

from semlab.errors import NumericalError
from semlab.panels import MarketPanel, simple_returns


def turbulence(panel: MarketPanel, window: int) -> np.ndarray:
    """Per-date squared Mahalanobis distance against the trailing ``window``
    days, with a 1e-6 * trace/N diagonal ridge; nan before the window fills."""
    n = panel.n_tickers
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
            values[d] = 0.0
            continue
        try:
            sol = np.linalg.solve(cov, diff)
        except np.linalg.LinAlgError:
            raise NumericalError(f"singular return covariance at {panel.dates[d]}") from None
        values[d] = max(0.0, float(diff @ sol))
    return values
