"""Reference body of the synthetic panel generator.

The ``synth_panel`` body before its signal levels were counted in place in
one uint8 array, its price range was built in place and its calendar was
formatted by one ``astype``: a (days, tickers, 4, 5) threshold comparison, an
integer level clipped with ``np.minimum``, a ``np.where`` neutral fill into
floats, a fresh array for every step and one ``str`` call per business day.
It draws the same random numbers in the same order, so both must give the
same panels bit for bit. Kept here only as the oracle
``semlab.synth.synth_panel`` is checked against; nothing in ``src/`` calls it.
"""

import numpy as np

from semlab.panels import MarketPanel
from semlab.signals import AXES, DEFAULT_SCORE_DISTRIBUTIONS, NEUTRAL, SignalPanel
from semlab.synth import PlantedTruth, SyntheticSpec


def _business_days(start: str, count: int) -> tuple[str, ...]:
    start64 = np.datetime64(start, "D")
    if not np.is_busday(start64):
        start64 = np.busday_offset(start64, 0, roll="forward")
    days = np.busday_offset(start64, np.arange(count), roll="forward")
    return tuple(str(d) for d in days)


def synth_panel(spec: SyntheticSpec, seed: int | None = None):
    """(MarketPanel, SignalPanel, PlantedTruth) of a spec."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n_t = len(spec.tickers)
    n_d = spec.days
    dates = _business_days(spec.start_date, n_d)

    present = rng.random((n_d, n_t)) < np.asarray(spec.coverage)[None, :]
    probs = np.stack([DEFAULT_SCORE_DISTRIBUTIONS[a] for a in AXES])  # (4, 5)
    cdf = np.cumsum(probs, axis=1)
    u = rng.random((n_d, n_t, 4))
    levels = 1 + (u[..., None] >= cdf[None, None, :, :]).sum(axis=-1)
    levels = np.minimum(levels, 5)  # cumsum round-off guard
    values = np.where(present[:, :, None], levels.astype(float), NEUTRAL)
    sig = SignalPanel(dates=dates, tickers=spec.tickers, values=values, non_neutral=present)

    beta = np.asarray(spec.beta)
    beta_mask = np.ones(n_t, dtype=bool)
    if spec.beta_tickers is not None:
        beta_mask = np.array([t in spec.beta_tickers for t in spec.tickers])

    drift = np.asarray(spec.drift)
    vol = np.asarray(spec.volatility)
    log_rets = drift[None, :] + vol[None, :] * rng.standard_normal((n_d - 1, n_t))
    effect = (sig.deviations @ beta) * present * beta_mask[None, :]  # (n_d, n_t)
    per_day = effect / spec.horizon
    for lag in range(1, spec.horizon + 1):
        src_hi = n_d - lag
        if src_hi <= 0:
            break
        log_rets[lag - 1 :, :] += per_day[:src_hi, :]

    log_prices = np.concatenate(
        [np.zeros((1, n_t)), np.cumsum(log_rets, axis=0)], axis=0
    )
    close = spec.initial_price * np.exp(log_prices)

    spread = np.abs(rng.standard_normal((n_d, n_t, 2))) * 0.3 * vol[None, :, None]
    high = close * (1.0 + spread[:, :, 0])
    low = close / (1.0 + spread[:, :, 1])
    open_ = np.concatenate([close[:1], close[:-1]], axis=0)
    high = np.maximum(high, np.maximum(open_, close))
    low = np.minimum(low, np.minimum(open_, close))
    volume = np.exp(rng.normal(12.0, 0.5, size=(n_d, n_t)))

    mkt = MarketPanel(
        dates=dates, tickers=spec.tickers, close=close,
        volume=volume, open=open_, high=high, low=low,
    )
    truth = PlantedTruth(
        beta=spec.beta,
        beta_tickers=tuple(t for t, m in zip(spec.tickers, beta_mask) if m),
        horizon=spec.horizon,
        coverage=spec.coverage,
    )
    return mkt, sig, truth
