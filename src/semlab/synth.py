"""Seeded synthetic market/signal panels with a planted signal-return link.

Prices follow a geometric random walk; sparse four-axis signals appear with a
configurable per-ticker coverage fraction, and each axis deviation feeds the
next ``horizon`` days of returns with a planted coefficient. The generator
returns the ground truth so oracle tests can check recovery, and is
bit-identical for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._grid import check_unique, is_date
from .errors import ConfigError, ValidationError, check_names
from .panels import MarketPanel
from .signals import (
    AXES,
    DEFAULT_SCORE_DISTRIBUTIONS,
    NEUTRAL,
    SignalPanel,
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic panel.

    ``coverage`` and ``volatility``/``drift`` accept a scalar (shared) or a
    per-ticker list. ``beta`` is the per-axis coefficient from signal
    deviation to the ``horizon``-day forward return; ``beta_tickers`` limits
    the planted effect to a subset (everyone else gets zero).
    """

    tickers: tuple[str, ...] | int
    days: int
    start_date: str = "2015-01-02"
    drift: tuple[float, ...] = ()
    volatility: tuple[float, ...] = ()
    coverage: tuple[float, ...] = ()
    beta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    beta_tickers: tuple[str, ...] | None = None
    horizon: int = 5
    initial_price: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.tickers, int):
            object.__setattr__(
                self, "tickers", tuple(f"SYN{i:02d}" for i in range(self.tickers))
            )
        object.__setattr__(self, "tickers", tuple(self.tickers))
        check_unique(self.tickers, "synthetic spec")
        n = len(self.tickers)
        if n < 1 or self.days < 2:
            raise ValidationError("need at least 1 ticker and 2 days")

        def broadcast(name: str, values, default: float) -> tuple[float, ...]:
            if values is None or (hasattr(values, "__len__") and len(values) == 0):
                return (default,) * n
            if np.isscalar(values):
                return (float(values),) * n
            vals = tuple(float(v) for v in values)
            if len(vals) != n:
                raise ValidationError(f"{name} must be scalar or one value per ticker")
            return vals

        object.__setattr__(self, "drift", broadcast("drift", self.drift, 0.0002))
        object.__setattr__(self, "volatility", broadcast("volatility", self.volatility, 0.02))
        object.__setattr__(self, "coverage", broadcast("coverage", self.coverage, 0.2))
        if any(not 0.0 <= c <= 1.0 for c in self.coverage):
            raise ValidationError("coverage fractions must lie in [0, 1]")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.beta) != 4:
            raise ValidationError("beta needs one coefficient per axis")
        # written to pass only on a wanted value: NaN fails every comparison
        for key, values, rule, ok in (
            ("drift", self.drift, "finite", math.isfinite),
            ("volatility", self.volatility, "positive and finite", _positive_finite),
            ("beta", self.beta, "finite", math.isfinite),
            ("initial_price", (self.initial_price,), "positive and finite", _positive_finite),
        ):
            bad = [v for v in values if not ok(v)]
            if bad:
                raise ValidationError(f"{key} must be {rule}, got {bad[0]!r}")
        if self.beta_tickers is not None:
            object.__setattr__(self, "beta_tickers", tuple(self.beta_tickers))
            unknown = set(self.beta_tickers) - set(self.tickers)
            if unknown:
                raise ValidationError(f"beta_tickers not in universe: {sorted(unknown)}")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        try:
            np.datetime64(self.start_date, "D")  # a day of the calendar, not 2015-13-45
            well_formed = is_date(self.start_date)  # in the shape whose string order is the date's
        except (TypeError, ValueError):
            well_formed = False
        if not well_formed:
            raise ValidationError(f"start_date {self.start_date!r} is not a date")

    @staticmethod
    def from_dict(raw: dict) -> "SyntheticSpec":
        """The spec of a JSON object; a ConfigError names a faulty key."""
        if not isinstance(raw, dict):
            raise ConfigError(f"a synthetic spec must be a JSON object, got {raw!r}")
        check_names(raw, _SPEC_FORMS, "synthetic-spec key {!r}")
        if "days" not in raw:
            raise ConfigError("synthetic spec needs a 'days' field")
        for key, value in raw.items():
            if not any(_fits(value, form) for form in _SPEC_FORMS[key]):
                forms = " or ".join(map(_form_name, _SPEC_FORMS[key]))
                raise ConfigError(f"synthetic-spec key {key!r} must be {forms}, got {value!r}")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        return SyntheticSpec(**{"tickers": 10, **kwargs})

    @staticmethod
    def from_file(path: str) -> "SyntheticSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        return SyntheticSpec.from_dict(raw)


def _positive_finite(value: float) -> bool:
    return 0.0 < value < math.inf


# The JSON forms each spec key takes: a type (a float also takes an int), [a
# type] for a list of it, or None for null, which means the default.
_SPEC_FORMS = {
    "tickers": (int, [str]), "days": (int,), "start_date": (str,),
    **dict.fromkeys(("drift", "volatility", "coverage"), (float, [float], None)),
    "beta": ([float],), "beta_tickers": ([str], None),
    "horizon": (int,), "initial_price": (float,), "seed": (int,),
}


def _fits(value, form) -> bool:
    if isinstance(form, list):
        return type(value) is list and all(_fits(v, form[0]) for v in value)
    return value is form or type(value) is form or (form is float and type(value) is int)


def _form_name(form) -> str:
    return f"a list of {form[0].__name__}" if isinstance(form, list) else (
        "null" if form is None else form.__name__)


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth behind a synthetic panel, for oracle comparison."""

    beta: tuple[float, float, float, float]
    beta_tickers: tuple[str, ...]
    horizon: int
    coverage: tuple[float, ...]


def _business_days(start: str, count: int) -> tuple[str, ...]:
    start64 = np.datetime64(start, "D")
    if not np.is_busday(start64):
        start64 = np.busday_offset(start64, 0, roll="forward")
    days = np.busday_offset(start64, np.arange(count), roll="forward")
    return tuple(str(d) for d in days)


def synth_panel(spec: SyntheticSpec, seed: int | None = None) -> tuple[MarketPanel, SignalPanel, PlantedTruth]:
    """Generate (MarketPanel, SignalPanel, PlantedTruth) from a spec.

    Daily log returns are drift + vol * z plus, for each non-neutral signal
    on day d, beta . deviation / horizon added over days d+1 .. d+horizon, so
    the horizon-day forward return regresses on the deviation with the
    planted coefficients. Score levels are drawn from
    ``DEFAULT_SCORE_DISTRIBUTIONS``.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n_t = len(spec.tickers)
    n_d = spec.days
    dates = _business_days(spec.start_date, n_d)

    # sparse signals: one panel cell at a time, integer level means. A level is
    # 1 + the number of its axis's first four CDF thresholds that u passes, so
    # a last threshold a round-off below 1.0 cannot make a level 6. Each
    # threshold is repeated along the tickers: a comparison then runs over
    # whole (tickers, 4) rows of u instead of broadcasting over its last axis.
    present = rng.random((n_d, n_t)) < np.asarray(spec.coverage)[None, :]
    probs = np.stack([DEFAULT_SCORE_DISTRIBUTIONS[a] for a in AXES])  # (4, 5)
    cdf = np.cumsum(probs, axis=1)
    u = rng.random((n_d, n_t, 4))
    values = np.ones_like(u)
    for thresholds in np.repeat(cdf.T[:4, None, :], n_t, axis=1):  # (4, n_t, 4)
        values += u >= thresholds
    values[~present] = NEUTRAL
    sig = SignalPanel(dates=dates, tickers=spec.tickers, values=values, non_neutral=present)
    # the panel holds its own copy; freeing the draws before the prices are
    # built lowers the peak RSS of a semlab synth run
    del u, values

    beta = np.asarray(spec.beta)
    beta_mask = np.ones(n_t, dtype=bool)
    if spec.beta_tickers is not None:
        beta_mask = np.array([t in spec.beta_tickers for t in spec.tickers])

    drift = np.asarray(spec.drift)
    vol = np.asarray(spec.volatility)
    log_rets = rng.standard_normal((n_d - 1, n_t))
    log_rets *= vol
    log_rets += drift
    # planted effect: deviations on day d feed days d+1 .. d+horizon
    effect = (sig.deviations @ beta) * present * beta_mask[None, :]  # (n_d, n_t)
    per_day = effect / spec.horizon
    for lag in range(1, spec.horizon + 1):
        src_hi = n_d - lag
        if src_hi <= 0:
            break
        log_rets[lag - 1 :, :] += per_day[:src_hi, :]

    close = np.zeros((n_d, n_t))  # log prices, then prices in place
    np.cumsum(log_rets, axis=0, out=close[1:])
    np.exp(close, out=close)
    close *= spec.initial_price

    # synthetic intraday range keeps high >= close >= low for the indicators;
    # 1 + |z| * 0.3 * vol is built in place, rounded in that order
    spread = rng.standard_normal((n_d, n_t, 2))
    np.abs(spread, out=spread)
    spread *= 0.3
    spread *= vol[None, :, None]
    spread += 1.0
    high = close * spread[:, :, 0]
    low = close / spread[:, :, 1]
    open_ = np.concatenate([close[:1], close[:-1]], axis=0)
    for price in (open_, close):
        np.maximum(high, price, out=high)
        np.minimum(low, price, out=low)
    del spread
    volume = rng.normal(12.0, 0.5, size=(n_d, n_t))
    np.exp(volume, out=volume)

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
