"""Linear composite models over the signal panel.

Everything here reduces to one shape: a frozen weight vector over named
features with a per-feature standardiser, fitted on one date range and only
ever applied outside it. Variants differ in the feature basis:

* deviation basis — per-axis deviations from the neutral default feed a
  ridge fit to forward returns (the factor-portfolio weights, optionally
  restricted to a single axis);
* residual basis — non-sentiment axes are first regressed on sentiment and
  the ridge runs on [sentiment deviation, residuals];
* data-driven composites — first principal component or the equal-weight
  mean of the standardised axes, no supervised fit at all;
* supervised forecaster — ridge from arbitrary named feature blocks
  (technical columns, dense text features) to forward returns, with an
  optional high-conviction semantic tilt; the caller's ``evaluate`` scores
  each (ridge strength, tilt) candidate on validation and so selects it.

Evaluating a model never mutates it; applying one to a date inside its fit
range raises a leakage error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._grid import Grid, date_span, frozen, json_digest, write_json
from .errors import (
    DegenerateFitError,
    LeakageError,
    ConfigError,
    NumericalError,
    RangeError,
    RankError,
    ValidationError,
)
from .panels import MarketPanel
from .signals import AXES, NEUTRAL, SignalPanel, _axis_stats, _principal_axes

LAMBDA_GRID = (1e-5, 1e-3, 1e-1, 1.0, 10.0)
TILT_GRID = (0.0, 0.5, 1.0)
TEMPERATURE_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_RIDGE = 1e-3


# ---------------------------------------------------------------------------
# Ridge core
# ---------------------------------------------------------------------------

def fit_ridge(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = DEFAULT_RIDGE,
    feature_names: tuple[str, ...] | None = None,
) -> tuple[np.ndarray, float]:
    """Closed-form ridge: minimise ||y - Xw - b||^2 + lam ||w||^2.

    The intercept is unpenalised (handled by centering). At lam = 0 a rank
    check runs first and a rank error names each column that depends on the
    columns before it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"bad shapes X{X.shape} y{y.shape}")
    n, p = X.shape
    if p < 1 or n < p:
        raise ValidationError(f"need n >= p >= 1, got n={n} p={p}")
    if lam < 0:
        raise ValidationError(f"ridge strength must be >= 0, got {lam}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValidationError("non-finite values in the design or target")

    xm = X.mean(axis=0)
    ym = float(y.mean())
    Xc = X - xm
    yc = y - ym

    if lam == 0.0:
        if np.linalg.matrix_rank(Xc) < p:
            # a column is dependent when it adds no rank to the columns kept before it
            kept, dep = [], []
            for i in range(p):
                grows = np.linalg.matrix_rank(Xc[:, kept + [i]]) > len(kept)
                (kept if grows else dep).append(i)
            names = [f"column {i}" if feature_names is None else feature_names[i] for i in dep]
            raise RankError(f"collinear columns at lam=0: {names}")

    A = Xc.T @ Xc + lam * np.eye(p)
    try:
        w = np.linalg.solve(A, Xc.T @ yc)
    except np.linalg.LinAlgError:
        raise RankError("normal equations singular") from None
    return w, ym - float(xm @ w)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorModel:
    """Frozen linear scoring rule: score = w . (x - mean)/std + intercept."""

    feature_names: tuple[str, ...]
    weights: np.ndarray
    intercept: float
    standardizer_mean: np.ndarray
    standardizer_std: np.ndarray
    ridge_strength: float
    fit_range: tuple[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        p = len(self.feature_names)
        for name in ("weights", "standardizer_mean", "standardizer_std"):
            arr = frozen(getattr(self, name))
            if arr.shape != (p,):
                raise ValidationError(f"{name} must have one entry per feature")
            object.__setattr__(self, name, arr)
        if np.any(self.standardizer_std <= 0):
            raise ValidationError("standardiser stds must be strictly positive")
        if not (len(self.fit_range) == 2 and self.fit_range[0] <= self.fit_range[1]):
            raise ValidationError(f"bad fit range {self.fit_range}")
        object.__setattr__(self, "fit_range", (self.fit_range[0], self.fit_range[1]))

    def content_hash(self) -> str:
        return json_digest({
            "feature_names": list(self.feature_names),
            "weights": [repr(float(v)) for v in self.weights],
            "intercept": repr(float(self.intercept)),
            "mean": [repr(float(v)) for v in self.standardizer_mean],
            "std": [repr(float(v)) for v in self.standardizer_std],
            "ridge_strength": repr(float(self.ridge_strength)),
            "fit_range": list(self.fit_range),
        })

    def check_disjoint(self, dates: tuple[str, ...]) -> None:
        """Raise LeakageError if any of the strictly increasing ``dates`` lies
        inside the fit range."""
        lo, hi = self.fit_range
        inside = date_span(dates, lo, hi)
        if inside.start < inside.stop:
            raise LeakageError(
                f"evaluation dates {dates[inside.start]}..{dates[inside.stop - 1]} "
                f"fall inside fit range {lo}..{hi}"
            )


@dataclass(frozen=True)
class ResidualModel:
    """Per-axis intercept/slope of the regression on sentiment."""

    params: dict[str, tuple[float, float]]  # axis -> (a, b)

    def residuals(self, panel: SignalPanel, axis: str) -> np.ndarray:
        a, b = self.params[axis]
        return panel.axis(axis) - a - b * panel.axis("sentiment")


@dataclass(frozen=True)
class CompositeScore(Grid):
    """Per-(date, ticker) real-valued ranking scores."""

    ARRAYS = {"values": (float, ())}
    WHAT = "scores"

    values: np.ndarray


# ---------------------------------------------------------------------------
# Fitting on the signal panel
# ---------------------------------------------------------------------------

def _check_targets(grid: Grid, targets: np.ndarray) -> None:
    """A ValidationError unless ``targets`` lie on the (dates, tickers) grid."""
    if np.shape(targets) != (grid.n_dates, grid.n_tickers):
        raise ValidationError(f"targets have shape {np.shape(targets)}, expected "
                              f"{(grid.n_dates, grid.n_tickers)} on the {grid.WHAT}")


def _pool_rows(
    grid: Grid, usable: np.ndarray, fit_range: tuple[str, str], need: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (date, ticker) positions of the ``usable`` cells of the
    ``grid`` on the fit range's dates, as a (date rows, ticker columns) index
    pair; at least ``need`` of them, or a ValidationError."""
    _check_targets(grid, usable)
    span = date_span(grid.dates, *fit_range)
    if span.start == span.stop:
        raise ValidationError(f"fit range {fit_range} covers no panel dates")
    rows, cols = np.nonzero(usable[span])
    if rows.size < need:
        raise ValidationError(
            f"only {rows.size} usable stock-days in fit range {fit_range}, need {need}"
        )
    return rows + span.start, cols


def fit_sfp(
    panel: SignalPanel,
    returns_fwd: np.ndarray,
    fit_range: tuple[str, str],
    lam: float = DEFAULT_RIDGE,
    axes: tuple[str, ...] = AXES,
    min_stock_days: int = 100,
) -> FactorModel:
    """Ridge factor weights from axis deviations to forward returns.

    Pools every stock-day in the fit range into one cross-sectional
    regression; weights are frozen afterwards. ``axes`` restricts the feature
    set (single-axis variants included). A panel with no signal content in
    range raises a degenerate-fit error.
    """
    for a in axes:
        if a not in AXES:
            raise ValidationError(f"unknown axis {a!r}")
    cells = _pool_rows(panel, np.isfinite(returns_fwd), fit_range, min_stock_days)
    X = panel.deviations[cells][:, [AXES.index(a) for a in axes]]
    y = returns_fwd[cells]
    if np.all(X == 0.0):
        raise DegenerateFitError(
            "all signal deviations are zero in the fit range (all-neutral panel)"
        )
    w, b = fit_ridge(X, y, lam=lam, feature_names=tuple(axes))
    return FactorModel(
        feature_names=tuple(axes),
        weights=w,
        intercept=b,
        standardizer_mean=np.full(len(axes), NEUTRAL),
        standardizer_std=np.ones(len(axes)),
        ridge_strength=lam,
        fit_range=fit_range,
    )


def fit_srf(
    panel: SignalPanel,
    returns_fwd: np.ndarray,
    fit_range: tuple[str, str],
    lam: float = DEFAULT_RIDGE,
    min_stock_days: int = 100,
) -> tuple[ResidualModel, FactorModel]:
    """Sentiment-residualised variant.

    Each non-sentiment axis is regressed on sentiment over the training
    stock-days; the ridge then runs on [sentiment deviation, residuals].
    Training residuals are zero-mean by construction.
    """
    cells = _pool_rows(panel, np.isfinite(returns_fwd), fit_range, min_stock_days)
    rows, y = panel.values[cells], returns_fwd[cells]  # (n, 4), (n,)
    sent = rows[:, AXES.index("sentiment")]
    var_sent = float(np.var(sent))
    if var_sent == 0.0:
        raise DegenerateFitError("sentiment constant over the training range; slopes undefined")

    params: dict[str, tuple[float, float]] = {}
    feats = [sent - NEUTRAL]
    names: list[str] = ["sentiment"]
    for axis in AXES[1:]:
        col = rows[:, AXES.index(axis)]
        b = float(np.cov(sent, col, ddof=0)[0, 1] / var_sent)
        a = float(col.mean() - b * sent.mean())
        params[axis] = (a, b)
        resid = col - a - b * sent
        if not abs(resid.mean()) < 1e-10:
            raise NumericalError(
                f"{axis} residuals on sentiment have mean {resid.mean():.3g}, not zero"
            )
        feats.append(resid)
        names.append(f"resid:{axis}")
    X = np.column_stack(feats)
    if np.all(X == 0.0):
        raise DegenerateFitError("no variation left after residualisation")
    w, b0 = fit_ridge(X, y, lam=lam, feature_names=tuple(names))
    model = FactorModel(
        feature_names=tuple(names),
        weights=w,
        intercept=b0,
        standardizer_mean=np.array([NEUTRAL, 0.0, 0.0, 0.0]),
        standardizer_std=np.ones(4),
        ridge_strength=lam,
        fit_range=fit_range,
    )
    return ResidualModel(params=params), model


def fit_pc1_composite(
    panel: SignalPanel, fit_range: tuple[str, str]
) -> tuple[FactorModel, np.ndarray]:
    """First-principal-component composite over standardised axes.

    Loadings and standardisation statistics come from the fit range's
    non-neutral stock-days; the sign is fixed so the sentiment loading is
    non-negative. Returns the model (its weights are the PC1 loadings) and
    the explained-variance fractions of the same decomposition, as
    ``pca_effective_dim`` gives them for the fit range.
    """
    rows, mean, std = _axis_stats(panel, date_span(panel.dates, *fit_range))
    loadings, explained = _principal_axes(rows, mean, std)
    return _axis_composite(loadings, mean, std, fit_range), explained


def fit_equal_weight_composite(
    panel: SignalPanel, fit_range: tuple[str, str]
) -> FactorModel:
    """Equal-weight mean of the four standardised axes (no supervision)."""
    _, mean, std = _axis_stats(panel, date_span(panel.dates, *fit_range))
    return _axis_composite(np.full(4, 0.25), mean, std, fit_range)


def _axis_composite(weights, mean, std, fit_range: tuple[str, str]) -> FactorModel:
    """An unsupervised composite: ``weights`` over the four axes standardised
    by ``mean`` and ``std``, with no intercept and no ridge."""
    return FactorModel(feature_names=AXES, weights=weights, intercept=0.0,
                       standardizer_mean=mean, standardizer_std=std,
                       ridge_strength=0.0, fit_range=fit_range)


def _apply(model: FactorModel, dates: tuple[str, ...], feats: np.ndarray) -> np.ndarray:
    """Scores of ``feats`` (..., p) on ``dates`` under ``model``; raises
    LeakageError if a date lies inside the fit range."""
    model.check_disjoint(dates)
    z = (feats - model.standardizer_mean) / model.standardizer_std
    return z @ model.weights + model.intercept


def composite(
    panel: SignalPanel,
    model: FactorModel,
    residual_model: ResidualModel | None = None,
) -> CompositeScore:
    """Apply a frozen model to a signal panel, producing ranking scores.

    The panel's dates must lie entirely outside the model's fit range.
    Models in the residual basis need their ResidualModel.
    """
    cols = []
    for name in model.feature_names:
        if name.startswith("resid:"):
            if residual_model is None:
                raise ValidationError(f"feature {name!r} needs a residual model")
            cols.append(residual_model.residuals(panel, name[len("resid:"):]))
        elif name in AXES:
            cols.append(panel.axis(name))
        else:
            raise ValidationError(f"cannot build feature {name!r} from a signal panel")
    values = _apply(model, panel.dates, np.stack(cols, axis=-1))
    return CompositeScore(dates=panel.dates, tickers=panel.tickers, values=values)


# ---------------------------------------------------------------------------
# Conviction weighting
# ---------------------------------------------------------------------------

def check_temperature(temperature: float) -> None:
    """A ValidationError unless the softmax temperature is finite and > 0."""
    if not 0.0 < temperature < np.inf:
        raise ValidationError(f"temperature must be positive and finite, got {temperature}")


def scw_weights(scores, temperature: float) -> np.ndarray:
    """Softmax conviction weights along the last axis: each row of ``scores``
    is one basket, and its weights ~ exp(score / temperature) are positive
    and sum to one.

    Overflow-safe via subtracting the row max. Each row is summed as a
    one-dimensional array of its length would be, so a day's weights are the
    same bits whether it is weighted alone or among other days with baskets
    of its size. An empty basket or a temperature that ``check_temperature``
    refuses is a ValidationError.
    """
    check_temperature(temperature)
    z = np.asarray(scores, dtype=float)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise ValidationError("basket is empty")
    z = z / temperature
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    return z / z.sum(axis=-1, keepdims=True)


def select_temperature(
    grid: tuple[float, ...],
    evaluate,
) -> tuple[float, dict[float, float]]:
    """Pick the grid temperature maximising ``evaluate(T)`` (validation Sharpe).

    Ties break toward the largest temperature, the one closest to equal
    weighting. Evaluation errors propagate. Returns the winner and the full
    objective table for provenance.
    """
    if not grid:
        raise ValidationError("temperature grid is empty")
    table = {float(t): float(evaluate(float(t))) for t in grid}
    best = max(sorted(table), key=lambda t: (table[t], t))
    return best, table


# ---------------------------------------------------------------------------
# Supervised forecaster
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TiltSpec:
    """High-conviction semantic overlay on a base forecast.

    The equal-weight standardised semantic composite z is added with weight
    ``alpha`` wherever news is present and |z| clears ``conviction``.
    """

    alpha: float
    conviction: float
    axis_mean: np.ndarray
    axis_std: np.ndarray

    def __post_init__(self) -> None:
        for name in ("axis_mean", "axis_std"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def overlay(self, signal_panel: SignalPanel) -> np.ndarray:
        z = (signal_panel.values - self.axis_mean) / self.axis_std
        comp = z.mean(axis=2)
        gate = signal_panel.non_neutral & (np.abs(comp) > self.conviction)
        return self.alpha * comp * gate


@dataclass(frozen=True)
class ForecasterModel:
    """Ridge forecaster over named feature blocks plus an optional tilt."""

    model: FactorModel
    tilt: TiltSpec | None
    block_names: tuple[str, ...]
    validation_table: tuple[tuple[float, float, float], ...]  # (lam, alpha, sharpe)

    def score_panel(
        self,
        feature_blocks: dict[str, np.ndarray],
        dates: tuple[str, ...],
        tickers: tuple[str, ...],
        signal_panel: SignalPanel | None,
    ) -> CompositeScore:
        feats = _stack_blocks(feature_blocks, self.block_names, (len(dates), len(tickers)))
        values = _apply(self.model, dates, feats)
        scores = CompositeScore(dates=dates, tickers=tickers, values=values)
        if signal_panel is not None:
            scores.check_aligned(signal_panel, "signal panel")
        if self.tilt is not None and self.tilt.alpha != 0.0:
            if signal_panel is None:
                raise ValidationError("tilted forecaster needs the signal panel")
            scores = replace(scores, values=values + self.tilt.overlay(signal_panel))
        return scores


def _stack_blocks(
    blocks: dict[str, np.ndarray], names: tuple[str, ...], grid: tuple[int, int]
) -> np.ndarray:
    """The named blocks side by side as one (dates, tickers, columns) array; a
    ConfigError unless each is a (dates, tickers, k >= 1) block on ``grid``."""
    cols = []
    for name in names:
        arr = np.asarray(blocks[name], dtype=float)
        if arr.ndim != 3 or arr.shape[:2] != grid or arr.shape[2] < 1:
            raise ConfigError(f"feature block {name!r} has shape {arr.shape}, "
                              f"expected ({grid[0]}, {grid[1]}, k >= 1)")
        cols.append(arr)
    return np.concatenate(cols, axis=2)


def fit_forecaster(
    feature_blocks: dict[str, np.ndarray],
    returns_fwd: np.ndarray,
    market_panel: MarketPanel,
    signal_panel: SignalPanel | None,
    fit_range: tuple[str, str],
    validation_range: tuple[str, str],
    evaluate,
    lam_grid: tuple[float, ...] = LAMBDA_GRID,
    tilt_grid: tuple[float, ...] = (0.0,),
    conviction: float = 1.0,
    min_stock_days: int = 100,
) -> ForecasterModel:
    """Grid-search ridge forecaster, selected by the caller's ``evaluate``.

    For every (ridge strength, tilt weight) pair, in grid order, the model is
    fitted on the fit range, and ``evaluate(scores) -> float`` gets its
    ``CompositeScore`` on the validation dates and the panel's tickers (the
    experiment runner returns the validation Sharpe of the same top-k
    portfolio it tests). The highest value wins, ties toward stronger
    shrinkage, then smaller tilt. The winner is refit on fit + validation
    before being frozen.
    """
    if not lam_grid or not tilt_grid:
        raise ConfigError("empty selection grid")
    if not feature_blocks:
        raise ConfigError("no feature blocks given")
    dates, tickers = market_panel.dates, market_panel.tickers
    block_names = tuple(feature_blocks)
    X_full = _stack_blocks(feature_blocks, block_names, (len(dates), len(tickers)))
    if any(a != 0.0 for a in tilt_grid) and signal_panel is None:
        raise ConfigError("tilt grid includes non-zero weights but no signal panel given")
    if signal_panel is not None:
        market_panel.check_aligned(signal_panel, "signal panel")
    if not (fit_range[1] < validation_range[0]):
        raise ConfigError("validation range must follow the fit range")
    val = date_span(dates, *validation_range)
    if val.start == val.stop:
        raise RangeError(f"no dates in [{validation_range[0]}, {validation_range[1]}] "
                         "on the panel calendar")

    # neither the usable rows nor the tilt's axis statistics depend on λ or α
    _check_targets(market_panel, returns_fwd)  # a (dates, 1) target would broadcast
    usable = np.isfinite(returns_fwd) & np.all(np.isfinite(X_full), axis=2)
    need = max(min_stock_days, X_full.shape[2] + 1)
    col_names = tuple(f"{name}:{i}" for name in block_names
                      for i in range(np.shape(feature_blocks[name])[2]))

    def fit_on(rng: tuple[str, str], lam: float) -> FactorModel:
        cells = _pool_rows(market_panel, usable, rng, need)
        X = X_full[cells]
        mean = X.mean(axis=0)
        std = X.std(axis=0, ddof=1)
        if np.any(std == 0):
            dead = [int(i) for i in np.where(std == 0)[0]]
            raise DegenerateFitError(f"constant forecaster feature columns: {dead}")
        w, b = fit_ridge((X - mean) / std, returns_fwd[cells], lam=lam)
        return FactorModel(feature_names=col_names, weights=w, intercept=b,
                           standardizer_mean=mean, standardizer_std=std,
                           ridge_strength=lam, fit_range=rng)

    def tilts(rng: tuple[str, str], alphas) -> list[TiltSpec | None]:
        """One tilt per alpha (None for 0) on the axis statistics of ``rng``."""
        stats = _axis_stats(signal_panel, date_span(dates, *rng)) if any(alphas) else None
        return [None if alpha == 0.0 else TiltSpec(alpha=alpha, conviction=conviction,
                                                   axis_mean=stats[1], axis_std=stats[2])
                for alpha in alphas]

    val_dates = dates[val]
    val_blocks = {name: np.asarray(feature_blocks[name])[val] for name in block_names}
    val_signals = None if signal_panel is None else signal_panel.slice_dates(*validation_range)
    fit_tilts = tilts(fit_range, tilt_grid)
    results: list[tuple[float, float, float]] = []
    for lam in lam_grid:
        base = ForecasterModel(model=fit_on(fit_range, lam), tilt=None, block_names=block_names,
                               validation_table=())
        for alpha, tilt in zip(tilt_grid, fit_tilts):
            scores = replace(base, tilt=tilt).score_panel(
                val_blocks, val_dates, tickers, val_signals)
            results.append((float(lam), float(alpha), float(evaluate(scores))))

    best_lam, best_alpha, _ = max(results, key=lambda r: (r[2], r[0], -r[1]))
    final_range = (fit_range[0], validation_range[1])
    return ForecasterModel(
        model=fit_on(final_range, best_lam),
        tilt=tilts(final_range, [best_alpha])[0],
        block_names=block_names,
        validation_table=tuple(results),
    )


# ---------------------------------------------------------------------------
# Serialisation ("frozen checkpoint" for linear models)
# ---------------------------------------------------------------------------

def save_factor_model(model: FactorModel, path: str) -> None:
    payload = {
        "feature_names": list(model.feature_names),
        "weights": [float(v) for v in model.weights],
        "intercept": float(model.intercept),
        "standardizer_mean": [float(v) for v in model.standardizer_mean],
        "standardizer_std": [float(v) for v in model.standardizer_std],
        "ridge_strength": float(model.ridge_strength),
        "fit_range": list(model.fit_range),
        "content_hash": model.content_hash(),
    }
    write_json(path, payload)
