"""Configuration-driven experiment runner.

Each experiment kind wires the modules into one named study and writes
table-ready delimited artifacts plus a machine-readable manifest with full
provenance (config hash, input content hashes, library versions). Reruns
with the same config and seed produce byte-identical files: no timestamps,
fixed float formatting, stable ordering. On failure, partial outputs are
removed.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import groupby

import numpy as np

from . import __version__
from ._grid import (
    check_unique,
    date_span,
    is_date,
    json_digest,
    read_grid,
    read_json,
    write_json,
    write_table,
)
from .backtest import (
    BacktestConfig,
    EquityCurve,
    baseline,
    backtest_topk,
    subperiod_report,
    write_equity_curve,
)
from .env import (
    POLICIES,
    EnvConfig,
    SignalThresholdPolicy,
    TradingEnv,
    builtin_policies,
    run_policy,
    write_episode_log,
)
from .errors import ConfigError, LabError, ValidationError, check_int_sizes, check_names
from .factors import (
    DEFAULT_RIDGE,
    LAMBDA_GRID,
    TEMPERATURE_GRID,
    TILT_GRID,
    CompositeScore,
    FactorModel,
    ResidualModel,
    check_temperature,
    composite,
    fit_equal_weight_composite,
    fit_forecaster,
    fit_pc1_composite,
    fit_sfp,
    fit_srf,
    save_factor_model,
    select_temperature,
)
from .metrics import metrics, sharpe_ratio, write_report_table
from .panels import (
    INDICATORS_ALL,
    MarketPanel,
    compute_indicators,
    compute_turbulence,
    forward_returns,
    load_price_panel,
)
from .signals import (
    AXES,
    SignalPanel,
    aggregate_signals,
    coverage_stats,
    load_article_scores,
    mask_axes,
)
from .stats import (
    lag1_autocorr,
    mann_whitney_u,
    paired_comparison,
    seed_summary,
    spearman_ics,
    write_test_results,
)
from .synth import SyntheticSpec, synth_panel

_TOP_KEYS = ("kind", "seed", "output_dir", "data", "ranges", "universe", "params")
_DATA_KEYS = ("synthetic", "price_panel", "signal_cache", "dense_blocks")
# The value types a param accepts, by the type of its default (None: an optional string).
_ACCEPTS = {bool: {bool}, int: {int}, float: {int, float}, str: {str}, tuple: {list, tuple},
            type(None): {str, type(None)}}


def _conform(where: str, value, default):
    """``value`` checked against the type of ``default``; an int given for a
    float becomes a float. A list becomes a tuple whose items must match the
    default's items when those share one type, but keep their own type:
    ``_fmt`` prints ``0`` and ``0.0`` differently. An int must fit in 64 bits
    where ints are declared, and in a float everywhere (``check_int_sizes``)."""
    items = {type(d) for d in default} if isinstance(default, tuple) else set()
    item = items.pop() if len(items) == 1 else None
    if type(value) not in _ACCEPTS[type(default)] or (
            item is not None and not {type(v) for v in value} <= _ACCEPTS[item]):
        raise ConfigError(f"{where} must match the type of its default {default!r}, got {value!r}")
    check_int_sizes(where, value, int in (type(default), item))
    if isinstance(default, float):
        return float(value)
    return tuple(value) if isinstance(value, list) else value


# A param's rules are called as ``rule(name, value, cfg)``, with its conformed
# value and the config it is part of. Each raises a ConfigError, or the
# ValidationError of the library check it defers to.

def _items(value) -> tuple:
    """A list param's items, or any other value as its one item."""
    return value if isinstance(value, tuple) else (value,)


def _rule(ok, says: str):
    """The rule that ``ok(value)``; ``says`` formats its message from the
    ``name``, the ``kind``, the ``value`` (a list as given), and ``items``,
    which reads " items" for a list."""
    def rule(name, value, cfg):
        if not ok(value):
            items = isinstance(value, tuple)
            raise ConfigError(says.format(name=name, kind=cfg.kind, items=" items" * items,
                                          value=list(value) if items else value))
    return rule


def _least(n, above=False):
    """At least ``n``, or above it: a number, or each item of a list. NaN fails."""
    sign = ">" if above else ">="
    return _rule(lambda v: all(x > n if above else x >= n for x in _items(v)),
                 "param {name!r}{items} must be %s %s, got {value!r}" % (sign, n))


def _non_empty(item: str):
    return _rule(bool, "param {name!r} must hold at least one " + item)


def _unique(item: str):
    return lambda name, value, cfg: check_unique(value, f"param {name!r}", ConfigError, item)


def _one_of(known, what: str):
    """Names in ``known``; ``what`` formats a name."""
    return lambda name, value, cfg: check_names(_items(value), known, what)


def _blocks(name, value, cfg):
    """Feature blocks built in, or given as ``dense_blocks`` files."""
    known = ("price", "sentiment", "semantic", *cfg.data.get("dense_blocks", {}))
    check_names(value, known, "feature block {!r}")


def _by(check, field: str | None = None):
    """The check of the library code that takes the value, so that the rule
    and its message are the library's: ``check`` gets the value as its
    keyword ``name``, or with ``field``, each item as its keyword ``field``."""
    def rule(name, value, cfg):
        for v in _items(value) if field else (value,):
            check(**{field or name: v})
    return rule


_any = _rule(lambda v: True, "")  # any value of its type: a choice, not a missing rule
_numbers = _rule(lambda v: all(type(x) in _ACCEPTS[float] for x in v),
                 "param {name!r} for kind {kind!r} items must be numbers, got {value!r}")
_ascending = _rule(lambda v: all(x >= 0 for x in v) and list(v) == sorted(v),
                   "param {name!r} for kind {kind!r} must be non-negative and ascending, "
                   "got {value!r}")
_date_or_null = _rule(lambda v: v is None or is_date(v),
                      "param {name!r} must be a YYYY-MM-DD date, got {value!r}")
# every param's last rule: JSON allows NaN and Infinity
_finite = _rule(lambda v: all(math.isfinite(x) for x in _items(v) if isinstance(x, float)),
                "param {name!r} must be finite, got {value!r}")


def _periods(name, value, cfg):
    """``[name, start, end]`` entries."""
    for entry in value:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ConfigError(f"param {name!r} entries must be [name, start, end]: {value!r}")
        _as_range(entry[1:], f"param {name!r} entry {entry[0]!r}")


def _masks(name, value, cfg):
    """Items null, "ALL" or a list of axes, each a set of axes of its own: one
    rollout group per set, so a repeat would count its rollouts twice."""
    seen: set[frozenset[str]] = set()
    for mask in value:
        if isinstance(mask, (list, tuple)):
            check_names(mask, AXES, f"axis {{!r}} in param {name!r}")
        elif mask not in (None, "ALL"):
            raise ConfigError(
                f"param {name!r} items must be null, \"ALL\" or a list of axes: {mask!r}")
        if _mask_set(mask) in seen:
            raise ConfigError(
                f"param {name!r} item {mask!r} masks the same axes as an earlier item")
        seen.add(_mask_set(mask))


def _mask_set(mask) -> frozenset[str]:
    """The axes an env_eval ``masks`` item pins: null none, "ALL" all four."""
    return frozenset(AXES if mask == "ALL" else mask or ())


def _as_range(raw, where: str) -> tuple[str, str] | None:
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple))) or len(raw) != 2:
        raise ConfigError(f"{where} must be [start, end]")
    for end, date in zip(("start", "end"), raw):
        # calendars are searched by string order, which other shapes do not follow
        if not (isinstance(date, str) and is_date(date)):
            raise ConfigError(f"{where} {end} must be a YYYY-MM-DD date, got {date!r}")
    if raw[0] > raw[1]:
        raise ConfigError(f"{where} has start after end")
    return tuple(raw)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    output_dir: str
    data: dict
    train: tuple[str, str] | None
    validation: tuple[str, str] | None
    test: tuple[str, str]
    universe: tuple[str, ...] | None
    params: dict  # as given; ``canonical`` and so the manifest keep them
    p: dict = field(init=False, repr=False, compare=False)  # every declared param, resolved

    def __post_init__(self) -> None:
        check_names([self.kind], KINDS, "experiment kind {!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:  # numpy's generators take none
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**63:
            raise ConfigError(f"seed must fit in a signed 64-bit integer, "
                              f"got an integer of {self.seed.bit_length()} bits")
        named = [("train", self.train), ("validation", self.validation), ("test", self.test)]
        present = [(n, r) for n, r in named if r is not None]
        for (n1, r1), (n2, r2) in zip(present, present[1:]):
            if not r1[1] < r2[0]:
                raise ConfigError(
                    f"ranges must be disjoint and ordered: {n1} {r1} vs {n2} {r2}"
                )
        _, needs, declared = _KINDS[self.kind]
        for name in needs:
            if getattr(self, name) is None:
                raise ConfigError(f"kind {self.kind!r} needs a {name} range")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")
        check_names(self.data, _DATA_KEYS, "data key {!r}")
        for key in ("price_panel", "signal_cache"):
            if not isinstance(self.data.get(key, ""), str):  # an int would open a descriptor
                raise ConfigError(f"data key {key!r} must be a path, got {self.data[key]!r}")
        blocks = self.data.get("dense_blocks", {})
        if not (isinstance(blocks, dict) and all(isinstance(b, str) for b in blocks.values())):
            raise ConfigError(f"data key 'dense_blocks' must map names to paths, got {blocks!r}")
        if ("synthetic" in self.data) == ("price_panel" in self.data):
            raise ConfigError("data must give exactly one of 'synthetic' and 'price_panel'")
        if "signal_cache" in self.data and "price_panel" not in self.data:
            raise ConfigError("data key 'signal_cache' goes only beside 'price_panel'")
        if not isinstance(self.data.get("synthetic", ""), str):  # an inline spec
            SyntheticSpec.from_dict(self.data["synthetic"])
        if self.universe is not None:
            if not (isinstance(self.universe, (list, tuple)) and self.universe
                    and all(isinstance(t, str) for t in self.universe)):
                raise ConfigError(f"universe must be a list of tickers, got {self.universe!r}")
            object.__setattr__(self, "universe", tuple(self.universe))
            check_unique(self.universe, "universe", ConfigError)
        where = "param {!r} for kind " + repr(self.kind)
        check_names(self.params, declared, where)
        p = dict(declared)  # the defaults keep every rule
        try:
            for name, value in self.params.items():
                p[name] = value = _conform(where.format(name), value, declared[name])
                for rule in (*_PARAMS[name][1:], _finite):
                    rule(name, value, self)
        except ValidationError as exc:
            raise ConfigError(f"params for kind {self.kind!r}: {exc}") from None
        object.__setattr__(self, "p", p)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        missing = {"kind", "seed", "output_dir", "data", "ranges"} - set(raw)
        if missing:
            raise ConfigError(f"config missing keys: {sorted(missing)}")
        check_names(raw, _TOP_KEYS, "config key {!r}")
        for key in ("ranges", "data", "params"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(f"config key {key!r} must be a JSON object, got {raw[key]!r}")
        ranges = raw["ranges"]
        check_names(ranges, ("train", "validation", "test"), "range {!r}")
        if not ranges.get("test"):
            raise ConfigError("ranges must include 'test'")
        return ExperimentConfig(
            kind=raw["kind"],
            seed=raw["seed"],
            output_dir=raw["output_dir"],
            data=dict(raw["data"]),
            train=_as_range(ranges.get("train"), "range 'train'"),
            validation=_as_range(ranges.get("validation"), "range 'validation'"),
            test=_as_range(ranges["test"], "range 'test'"),
            universe=raw.get("universe"),
            params=dict(raw.get("params", {})),
        )

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_json(path))

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "data": self.data,
            "ranges": {
                "train": list(self.train) if self.train else None,
                "validation": list(self.validation) if self.validation else None,
                "test": list(self.test),
            },
            "universe": list(self.universe) if self.universe else None,
            "params": self.params,
        }

    def config_hash(self) -> str:
        return json_digest(self.canonical())

    def fit_span(self) -> tuple[str, str]:
        return (self.train[0], self.validation[1] if self.validation else self.train[1])


# ---------------------------------------------------------------------------
# Workspace assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workspace:
    """One run's inputs, read-only, so that no runner changes what a later
    study sees."""

    panel: MarketPanel
    signals: SignalPanel
    returns_fwd: np.ndarray
    input_hashes: dict


def _file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def load_workspace(cfg: ExperimentConfig) -> Workspace:
    data = cfg.data
    hashes: dict = {}
    if "synthetic" in data:
        raw = data["synthetic"]
        if isinstance(raw, str):
            spec = SyntheticSpec.from_file(raw)
            hashes["synthetic_spec"] = _file_hash(raw)
        else:
            spec = SyntheticSpec.from_dict(raw)
            hashes["synthetic_spec"] = json_digest(raw)
        panel, signals, _truth = synth_panel(spec)
    else:
        panel = load_price_panel(data["price_panel"])
        hashes["price_panel"] = _file_hash(data["price_panel"])
        if "signal_cache" in data:
            articles = load_article_scores(data["signal_cache"])
            hashes["signal_cache"] = _file_hash(data["signal_cache"])
            signals, report = aggregate_signals(
                articles, panel.dates, panel.tickers, window=cfg.p["window"]
            )
            hashes["unplaced_articles"] = report.total
        else:
            shape = (panel.n_dates, panel.n_tickers)
            signals = SignalPanel(
                dates=panel.dates, tickers=panel.tickers,
                values=np.full(shape + (4,), 3.0),
                non_neutral=np.zeros(shape, dtype=bool),
            )

    if cfg.universe is not None:
        panel = panel.restrict(cfg.universe)
        signals = signals.restrict(cfg.universe)
    hashes["panel"] = panel.content_hash()
    hashes["signal_panel"] = signals.content_hash()
    returns_fwd = forward_returns(panel, cfg.p["horizon"])
    returns_fwd.flags.writeable = False
    return Workspace(panel=panel, signals=signals, input_hashes=hashes, returns_fwd=returns_fwd)


# ---------------------------------------------------------------------------
# Artifact bookkeeping
# ---------------------------------------------------------------------------

class ArtifactWriter:
    """Tracks files written by one run so failures can clean up after
    themselves, and the directories this writer made once they are empty."""

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.created: list[str] = []
        self.made_dirs: list[str] = []  # the output dir and its missing parents, leaf first
        d = os.path.abspath(output_dir)
        while not os.path.isdir(d):
            self.made_dirs.append(d)
            d = os.path.dirname(d)
        os.makedirs(output_dir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.output_dir, name)
        self.created.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.created:
            if os.path.exists(p):
                os.remove(p)
        for d in self.made_dirs:
            if os.listdir(d):
                break
            os.rmdir(d)

    def write_rows(self, name: str, header: list[str], rows: list[list]) -> None:
        """A table of rows of str and int cells, each written as its ``str``."""
        write_table(self.path(name), header,
                    [[str(row[k]) for row in rows] for k in range(len(header))])

    def write_json(self, name: str, payload: dict) -> None:
        write_json(self.path(name), payload)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


# ---------------------------------------------------------------------------
# Kind implementations
# ---------------------------------------------------------------------------

@dataclass
class _Study:
    """One run's config, inputs and artifact writer, plus the steps every
    factor study shares: fit, select on validation Sharpe, score the test
    range, backtest the top-k portfolio, and report it next to the
    equal-weight buy-and-hold index."""

    cfg: ExperimentConfig
    ws: Workspace
    out: ArtifactWriter

    @cached_property
    def bt(self) -> BacktestConfig:
        # a kind that does not read k or cost_rate does not declare it either
        return BacktestConfig(period=self.cfg.test, **{
            name: self.cfg.p[name] for name in ("k", "cost_rate") if name in self.cfg.p})

    @cached_property
    def test_signals(self) -> SignalPanel:
        return self.ws.signals.slice_dates(*self.cfg.test)

    @cached_property
    def validation_panel(self) -> MarketPanel:
        return self.ws.panel.slice_dates(*self.cfg.validation)

    def validation_sharpe(self, scores: CompositeScore, weighting="equal") -> float:
        """Sharpe ratio of the top-k portfolio on the validation range: the
        one objective every hyper-parameter search maximises."""
        curve = backtest_topk(scores, self.validation_panel, replace(self.bt, period=None),
                              weighting=weighting)
        return sharpe_ratio(curve.daily_returns[1:])

    @cached_property
    def benchmark(self) -> EquityCurve:
        return baseline(self.ws.panel, "ew_buy_and_hold", self.bt)

    def sfp_model(self, fit_range: tuple[str, str] | None = None, axes=AXES) -> FactorModel:
        """SFP weights fitted on ``fit_range`` (default: train through validation)."""
        return fit_sfp(self.ws.signals, self.ws.returns_fwd, fit_range or self.cfg.fit_span(),
                       lam=self.cfg.p["ridge_strength"], axes=axes)

    def scores(self, model: FactorModel, resid: ResidualModel | None = None) -> CompositeScore:
        return composite(self.test_signals, model, resid)

    def backtest(self, scores: CompositeScore, weighting="equal") -> EquityCurve:
        return backtest_topk(scores, self.ws.panel, self.bt, weighting=weighting)

    def report(self, legs: list[tuple[str, EquityCurve]], model: FactorModel) -> None:
        """report.csv (the legs, then ew-buy-and-hold), model.json, and the
        equity curve and holdings of the first leg."""
        rows = [metrics(curve).row(label) for label, curve in legs]
        rows.append(metrics(self.benchmark).row("ew-buy-and-hold"))
        write_report_table(rows, self.out.path("report.csv"))
        save_factor_model(model, self.out.path("model.json"))
        write_equity_curve(legs[0][1], self.out.path("equity_curve.csv"),
                           self.out.path("holdings.csv"))

    def diagnostics(self, pairs: list[tuple[str, EquityCurve, EquityCurve]]) -> None:
        """diagnostics.csv: one paired comparison of daily returns per (name, a, b)."""
        results = [
            paired_comparison(a.daily_returns[1:], b.daily_returns[1:], name, seed=self.cfg.seed)
            for name, a, b in pairs
        ]
        write_test_results(results, self.out.path("diagnostics.csv"))


def _run_sfp(s: _Study) -> None:
    model = s.sfp_model()
    four_axis = s.backtest(s.scores(model))
    sentiment = s.backtest(s.scores(s.sfp_model(axes=("sentiment",))))
    s.report([("sfp-4axis", four_axis), ("sfp-sentiment-only", sentiment)], model)
    write_equity_curve(s.benchmark, s.out.path("benchmark_curve.csv"))
    s.diagnostics([
        ("sfp-4axis vs sfp-sentiment-only", four_axis, sentiment),
        ("sfp-4axis vs ew-buy-and-hold", four_axis, s.benchmark),
    ])


def _run_srf(s: _Study) -> None:
    resid, model = fit_srf(s.ws.signals, s.ws.returns_fwd, s.cfg.fit_span(),
                          lam=s.cfg.p["ridge_strength"])
    s.report([
        ("srf-residual-axes", s.backtest(s.scores(model, resid))),
        ("sfp-4axis", s.backtest(s.scores(s.sfp_model()))),
    ], model)
    s.out.write_json("residual_params.json", {
        axis: {"intercept": a, "slope": b} for axis, (a, b) in sorted(resid.params.items())
    })


def _run_scw(s: _Study) -> None:
    cfg = s.cfg
    # Temperatures are quoted in standardised-score units. Select on
    # validation with a train-only fit: once the final model is refit through
    # the validation range, no leakage-free population is left to scale by.
    val_scores = composite(s.ws.signals.slice_dates(*cfg.validation), s.sfp_model(cfg.train))
    scale = float(val_scores.values.std(ddof=1))
    if scale == 0.0:
        raise ValidationError("validation scores are constant; cannot standardise")
    inv = 1.0 / scale
    scaled_val = replace(val_scores, values=val_scores.values * inv)
    temperature, table = select_temperature(
        cfg.p["temperature_grid"], lambda t: s.validation_sharpe(scaled_val, ("scw", t)))

    model = s.sfp_model()
    test_scores = s.scores(model)
    scw = s.backtest(replace(test_scores, values=test_scores.values * inv), ("scw", temperature))
    equal = s.backtest(test_scores)
    s.report([(f"scw(T={temperature:g})", scw), ("sfp-equal-weight", equal)], model)
    s.out.write_rows(
        "temperature_selection.csv",
        ["temperature", "validation_sharpe"],
        [[_fmt(float(t)), _fmt(table[t])] for t in sorted(table)],
    )
    s.diagnostics([("scw vs sfp-equal-weight", scw, equal)])


def _run_pc1(s: _Study) -> None:
    model, explained = fit_pc1_composite(s.ws.signals, s.cfg.fit_span())
    s.report([("pc1-composite", s.backtest(s.scores(model)))], model)
    s.out.write_rows(
        "pca.csv",
        ["axis", "pc1_loading", "explained_fraction"],
        [[AXES[i], _fmt(float(model.weights[i])), _fmt(float(explained[i]))] for i in range(4)],
    )


def _run_softmax(s: _Study) -> None:
    model = fit_equal_weight_composite(s.ws.signals, s.cfg.fit_span())
    s.report([("equal-weight-composite", s.backtest(s.scores(model)))], model)


def _feature_blocks(cfg: ExperimentConfig, ws: Workspace) -> dict[str, np.ndarray]:
    """Assemble named forecaster blocks: technical columns, signal columns,
    and any pre-computed dense blocks loaded from delimited files."""
    blocks: dict[str, np.ndarray] = {}
    for name in cfg.p["blocks"]:
        if name == "price":
            blocks["price"] = compute_indicators(ws.panel, cfg.p["indicators"]).values
        elif name == "sentiment":
            blocks["sentiment"] = ws.signals.deviations[:, :, [AXES.index("sentiment")]]
        elif name == "semantic":
            blocks["semantic"] = ws.signals.deviations
        else:
            # a dense_blocks file, on the workspace grid: a universe
            # restriction skips other rows on purpose
            path = cfg.data["dense_blocks"][name]
            blocks[name] = read_grid(path, None, ws.panel.dates, ws.panel.tickers)[2]
    return blocks


def _run_forecaster(s: _Study) -> None:
    cfg, ws, p = s.cfg, s.ws, s.cfg.p
    blocks = _feature_blocks(cfg, ws)
    fc = fit_forecaster(
        blocks, ws.returns_fwd, ws.panel, ws.signals,
        cfg.train, cfg.validation, s.validation_sharpe,
        lam_grid=p["lambda_grid"],
        tilt_grid=p["tilt_grid"] or (TILT_GRID if p["tilt"] else (0.0,)),
        min_stock_days=p["min_stock_days"],
    )
    test, sig = date_span(ws.panel.dates, *cfg.test), s.test_signals
    curve = s.backtest(fc.score_panel({n: b[test] for n, b in blocks.items()},
                                      sig.dates, sig.tickers, sig))
    label = f"forecaster[{'+'.join(fc.block_names)}]"
    if fc.tilt is not None:
        label += f"+tilt(a={fc.tilt.alpha:g})"
    s.report([(label, curve)], fc.model)
    s.out.write_rows(
        "selection.csv",
        ["ridge_strength", "tilt_alpha", "validation_sharpe"],
        [[_fmt(l), _fmt(a), _fmt(v)] for l, a, v in fc.validation_table],
    )
    s.diagnostics([(f"{label} vs ew-buy-and-hold", curve, s.benchmark)])


def _run_baselines(s: _Study) -> None:
    rows = []
    for kind, label in (
        ("ew_buy_and_hold", "ew-buy-and-hold"),
        ("momentum_topk", "momentum-topk"),
        ("equal_vol", "equal-vol"),
    ):
        curve = baseline(
            s.ws.panel, kind, s.bt,
            lookback=s.cfg.p["momentum_lookback"], vol_window=s.cfg.p["vol_window"],
        )
        rows.append(metrics(curve).row(label))
        write_equity_curve(curve, s.out.path(f"curve_{label}.csv"))
    write_report_table(rows, s.out.path("report.csv"))


def _run_cost_sweep(s: _Study) -> None:
    scores, bench = s.scores(s.sfp_model()), metrics(s.benchmark)
    rows = []
    for cost in s.cfg.p["costs"]:
        rep = metrics(backtest_topk(scores, s.ws.panel, replace(s.bt, cost_rate=cost)))
        rows.append([_fmt(cost), _fmt(rep.cr * 100), _fmt(rep.sharpe), _fmt(rep.mdd * 100),
                     _fmt(bench.cr * 100), _fmt(bench.sharpe)])
    s.out.write_rows(
        "sweep.csv",
        ["cost", "cr_pct", "sharpe", "mdd_pct", "benchmark_cr_pct", "benchmark_sharpe"], rows,
    )


def _run_stratified(s: _Study) -> None:
    # the full-panel scores, ranked within each tercile's tickers
    scores = s.scores(s.sfp_model())
    coverage = coverage_stats(s.test_signals)
    bt = replace(s.bt, k=s.cfg.p["k_per_stratum"])
    rows = []
    for label in ("Low", "Mid", "High"):
        members = coverage.tercile_members(label)
        if not members:
            raise ValidationError(f"tercile {label} is empty")
        panel = s.ws.panel.restrict(members)
        for leg, curve in (("strategy", backtest_topk(scores.restrict(members), panel, bt)),
                           ("benchmark", baseline(panel, "ew_buy_and_hold", bt))):
            rep = metrics(curve)
            rows.append([label, leg, len(members),
                         _fmt(rep.cr * 100), _fmt(rep.sharpe), _fmt(rep.mdd * 100)])
    s.out.write_rows(
        "stratified.csv",
        ["tercile", "leg", "n_tickers", "cr_pct", "sharpe", "mdd_pct"], rows,
    )
    cov_rows = [
        [t, _fmt(coverage.any_fraction[t]), coverage.terciles[t]]
        for t in sorted(coverage.tickers)
    ]
    s.out.write_rows("coverage.csv", ["ticker", "any_axis_fraction", "tercile"], cov_rows)


def _default_periods(test: tuple[str, str], dates: tuple[str, ...]) -> list[tuple[str, str, str]]:
    """One (year, first day, last day) period per calendar year of the test range."""
    periods = []
    for year, days in groupby(dates[date_span(dates, *test)], key=lambda d: d[:4]):
        days = list(days)
        periods.append((year, days[0], days[-1]))
    return periods


def _run_subperiod(s: _Study) -> None:
    curve = s.backtest(s.scores(s.sfp_model()))
    periods = ([tuple(map(str, e)) for e in s.cfg.p["periods"]]
               or _default_periods(s.cfg.test, s.ws.panel.dates))
    rows = subperiod_report(curve, s.benchmark, periods)
    s.out.write_rows(
        "subperiod.csv",
        ["period", "start", "end", "days", "cr_pct", "benchmark_cr_pct",
         "excess_cr_pp", "sharpe"],
        [
            [r["period"], r["start"], r["end"], r["days"],
             _fmt(r["cr"] * 100), _fmt(r["benchmark_cr"] * 100),
             _fmt(r["excess_cr"] * 100), _fmt(r["sharpe"])]
            for r in rows
        ],
    )


def _run_env_eval(s: _Study) -> None:
    cfg, ws, out, p = s.cfg, s.ws, s.out, s.cfg.p
    features = compute_indicators(ws.panel, p["indicators"])
    # short panels simply leave the whole series in warm-up (gate inactive)
    turb = compute_turbulence(ws.panel, window=p["turbulence_window"])
    env = TradingEnv(ws.panel, features, ws.signals, turb,
                     EnvConfig(**{f.name: p[f.name] for f in fields(EnvConfig)}))
    out.write_json("observation_layout.json", env.layout.to_manifest())

    def make_policy(seed: int):
        if p["policy"] == "signal_threshold":
            return SignalThresholdPolicy(env.layout, axis=p["axis"], level=p["level"])
        return builtin_policies(env.layout, seed=seed)[p["policy"]]

    rows = []
    by_mask: dict[str, dict[str, list[float]]] = {}
    for mask in p["masks"]:
        axes = _mask_set(mask)
        mask_label = "ALL" if mask == "ALL" else "+".join(sorted(axes)) or "none"
        # a masked run sees the masked axes at their neutral default on every day
        mask_env = TradingEnv(ws.panel, features, mask_axes(ws.signals, axes), turb,
                              env.config) if axes else env
        for i in range(p["n_seeds"]):
            seed = cfg.seed + i
            policy = make_policy(seed)
            # a deterministic policy plays the same episode under every seed,
            # so later seeds repeat the first seed's figures
            if i == 0 or not policy.deterministic:
                curve, rewards, infos = run_policy(mask_env, policy, start_date=p["start_date"],
                                                   seed=seed)
                cr = float(np.prod(1.0 + curve.daily_returns[1:]) - 1.0)
                try:
                    sh = sharpe_ratio(curve.daily_returns[1:])
                except LabError:
                    sh = float("nan")  # flat rollout (e.g. fully masked hold)
                total_reward = float(np.sum(rewards))
            rows.append([mask_label, seed, _fmt(cr * 100), _fmt(sh), _fmt(total_reward)])
            group = by_mask.setdefault(mask_label, {"cr": [], "sharpe": []})
            group["cr"].append(cr)
            group["sharpe"].append(sh)
            if i == 0:
                write_episode_log(infos, out.path(f"episode_{mask_label}.csv"))
    out.write_rows("env_seeds.csv", ["mask", "seed", "cr_pct", "sharpe", "total_reward"], rows)

    summary_rows = []
    labels = list(by_mask)
    for label in labels:
        for metric in ("cr", "sharpe"):
            vals = [v for v in by_mask[label][metric] if np.isfinite(v)]
            if len(vals) >= 2:
                mean, std = seed_summary(vals)
                summary_rows.append([label, metric, len(vals), _fmt(mean), _fmt(std)])
    if len(labels) == 2:
        a = by_mask[labels[0]]["cr"]
        b = by_mask[labels[1]]["cr"]
        if len(a) >= 3 and len(b) >= 3:
            try:
                test = mann_whitney_u(a, b)
                summary_rows.append(
                    [f"{labels[0]} vs {labels[1]}", "mwu_cr_p", test.n,
                     _fmt(test.statistic), _fmt(test.p_value)]
                )
            except LabError:
                pass  # both groups constant and identical
    out.write_rows("seed_summary.csv", ["group", "metric", "n", "mean", "std_or_p"],
                   summary_rows)


def _run_validation_suite(s: _Study) -> None:
    cfg, ws, out = s.cfg, s.ws, s.out
    sig = s.test_signals
    rows = []
    for a, axis in enumerate(AXES):
        vals = sig.values[:, :, a][sig.non_neutral]
        if vals.size:
            rows.append([axis, _fmt(float(vals.mean())), _fmt(float(vals.std(ddof=1)))
                         if vals.size > 1 else _fmt(0.0), _fmt(float(np.median(vals)))])
        else:
            rows.append([axis, "nan", "nan", "nan"])
    out.write_rows("signal_stats.csv", ["axis", "mean", "std", "median"], rows)

    coverage = coverage_stats(sig)
    cov_rows = []
    for t in sorted(coverage.tickers):
        vf = coverage.value_fractions[t]
        cov_rows.append([
            t, sig.values.shape[0], _fmt(coverage.any_fraction[t] * 100),
            *[_fmt(vf[axis] * 100) for axis in AXES],
        ])
    out.write_rows(
        "coverage.csv",
        ["ticker", "stock_days", "any_pct", *[f"{a}_pct" for a in AXES]],
        cov_rows,
    )

    y = ws.returns_fwd[date_span(ws.panel.dates, *cfg.test)]
    ics = spearman_ics([sig.values[:, :, a] for a in range(len(AXES))], [y, np.abs(y)])
    ic_rows = []
    for axis, (r1, r2) in zip(AXES, ics):
        fault = next((r for r in (r1, r2) if isinstance(r, LabError)), None)
        if fault is None:
            ic_rows.append([axis, _fmt(r1.statistic), _fmt(r1.p_value),
                            _fmt(r2.statistic), _fmt(r2.p_value)])
        else:
            ic_rows.append([axis, "nan", "nan", "nan", str(fault)])
    out.write_rows(
        "ic.csv", ["axis", "return_ic", "p", "abs_return_ic", "abs_p"], ic_rows
    )

    ac_rows = []
    for axis in AXES:
        values, skipped = lag1_autocorr(sig, axis, min_obs=cfg.p["min_obs"])
        for t in sorted(values):
            ac_rows.append([axis, t, _fmt(values[t])])
        for t in sorted(skipped):
            ac_rows.append([axis, t, f"skipped: {skipped[t]}"])
    out.write_rows("autocorr.csv", ["axis", "ticker", "lag1_autocorr"], ac_rows)


# Each param: its default, then its rules. fit_forecaster needs one more
# stock-day than feature columns, so fewer than 2 means nothing, and
# lag1_autocorr two back-to-back pairs, so fewer than 3 observations do not.
_PARAMS = {
    "horizon": (5, _least(1)),
    "window": (3, _least(0)),
    # checked by the class that takes them, with its rules and messages
    **{f.name: (f.default, _by(EnvConfig)) for f in fields(EnvConfig)},
    "k": (BacktestConfig.k, _by(BacktestConfig)),
    "cost_rate": (BacktestConfig.cost_rate, _by(BacktestConfig)),
    "ridge_strength": (DEFAULT_RIDGE, _least(0)),
    # two rules that refuse the same items, each for its message: 0 and below, Infinity
    "temperature_grid": (TEMPERATURE_GRID, _non_empty("temperature"), _least(0, above=True),
                         _by(check_temperature, "temperature")),
    "blocks": (("price",), _non_empty("block"), _unique("block"), _blocks),
    "indicators": (INDICATORS_ALL, _non_empty("indicator"),
                   _one_of(INDICATORS_ALL, "indicator {!r}")),
    "lambda_grid": (LAMBDA_GRID, _non_empty("ridge strength"), _least(0)),
    "tilt": (False, _any),
    "tilt_grid": ((), _numbers),  # signed tilt weights
    "min_stock_days": (100, _least(2)),
    "momentum_lookback": (126, _least(1)),
    "vol_window": (63, _least(2)),
    "costs": ((0.0005, 0.001, 0.002, 0.005, 0.01, 0.02), _non_empty("cost"), _ascending,
              _by(BacktestConfig, "cost_rate")),
    "k_per_stratum": (5, _least(1)),
    "periods": ((), _periods),
    "turbulence_window": (252, _least(2)),
    "policy": ("signal_threshold", _one_of(POLICIES, "policy {!r}")),
    "n_seeds": (5, _least(1)),
    "masks": ((None, "ALL"), _non_empty("mask"), _masks),
    "start_date": (None, _date_or_null),
    "axis": ("sentiment", _one_of(AXES, "signal axis {!r}")),
    "level": (3.0, _any),
    "min_obs": (20, _least(3)),
}
# Each kind: its runner, the ranges it needs, and the params it reads, with
# their defaults. Each cost_sweep row sets its own cost rate, and stratified
# sizes its baskets per tercile.
_KINDS = {kind: (run, ranges, {name: _PARAMS[name][0] for name in names.split()})
          for kind, (run, ranges, names) in {
    "sfp": (_run_sfp, ("train",), "horizon window k cost_rate ridge_strength"),
    "srf": (_run_srf, ("train",), "horizon window k cost_rate ridge_strength"),
    "scw": (_run_scw, ("train", "validation"),
            "horizon window k cost_rate ridge_strength temperature_grid"),
    "pc1": (_run_pc1, ("train",), "horizon window k cost_rate"),
    "softmax": (_run_softmax, ("train",), "horizon window k cost_rate"),
    "forecaster": (_run_forecaster, ("train", "validation"), "horizon window k cost_rate "
                   "indicators blocks lambda_grid tilt tilt_grid min_stock_days"),
    "baselines": (_run_baselines, (), "horizon window k cost_rate momentum_lookback vol_window"),
    "cost_sweep": (_run_cost_sweep, ("train",), "horizon window k ridge_strength costs"),
    "stratified": (_run_stratified, ("train",),
                   "horizon window cost_rate ridge_strength k_per_stratum"),
    "subperiod": (_run_subperiod, ("train",), "horizon window k cost_rate ridge_strength periods"),
    "env_eval": (_run_env_eval, (), "horizon window h_max cost_rate turbulence_threshold "
                 "reward_scale drawdown_alpha initial_cash indicators turbulence_window policy "
                 "n_seeds masks start_date axis level"),
    "validation_suite": (_run_validation_suite, (), "horizon window min_obs"),
}.items()}
KINDS = tuple(_KINDS)


def run(cfg: ExperimentConfig) -> list[str]:
    """Execute one experiment; returns the artifact paths.

    Deterministic for a fixed (config, inputs, seed); on any error the
    partially written outputs are removed and the error propagates.
    """
    out = ArtifactWriter(cfg.output_dir)
    try:
        ws = load_workspace(cfg)
        _KINDS[cfg.kind][0](_Study(cfg, ws, out))
        manifest = {
            "kind": cfg.kind,
            "seed": cfg.seed,
            "config": cfg.canonical(),
            "config_hash": cfg.config_hash(),
            "input_hashes": ws.input_hashes,
            "versions": {
                "semlab": __version__,
                "numpy": np.__version__,
            },
            "artifacts": sorted(os.path.basename(p) for p in out.created),
        }
        out.write_json("manifest.json", manifest)
        return sorted(out.created)
    except BaseException:
        out.cleanup()
        raise


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    checks: list[dict]
    hashes: dict[str, str]

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            out.append(f"[{mark}] {c['name']}: {c['detail']}")
        for name, digest in sorted(self.hashes.items()):
            out.append(f"[hash] {name}: {digest}")
        return out


def validate_inputs(price_panel: str | None = None, signal_cache: str | None = None) -> ValidationReport:
    """Check input files against the documented invariants; never raises.

    Verifies panel alignment and positivity, article score ranges, ticker
    and date coverage against the panel calendar, and emits content hashes
    for provenance.
    """
    checks: list[dict] = []
    hashes: dict[str, str] = {}
    panel = None

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    if price_panel is not None:
        try:
            panel = load_price_panel(price_panel)
            record("price_panel", True,
                   f"{panel.n_dates} dates x {panel.n_tickers} tickers, aligned")
            hashes["price_panel_file"] = _file_hash(price_panel)
            hashes["price_panel_content"] = panel.content_hash()
        except (LabError, OSError) as exc:
            record("price_panel", False, str(exc))

    if signal_cache is not None:
        try:
            articles = load_article_scores(signal_cache)
            record("signal_cache", True, f"{len(articles)} articles, scores in range")
            hashes["signal_cache_file"] = _file_hash(signal_cache)
            if panel is not None:
                stray = sorted(set(articles.tickers) - set(panel.tickers))
                record(
                    "cache_tickers_in_universe", not stray,
                    "all tickers known" if not stray else f"unknown tickers: {stray[:10]}",
                )
                lo, hi = panel.dates[0], panel.dates[-1]
                published = np.asarray(articles.dates, dtype=str)
                outside = int(((published < lo) | (published > hi)).sum())
                record(
                    "cache_dates_in_calendar", outside == 0,
                    "all article dates inside the panel calendar"
                    if outside == 0 else f"{outside} articles dated outside [{lo}, {hi}]",
                )
        except (LabError, OSError) as exc:
            record("signal_cache", False, str(exc))

    if not checks:
        record("inputs", False, "nothing to validate: no paths given")
    return ValidationReport(checks=checks, hashes=hashes)
