"""Span tracing of semlab's public functions, installed from outside the package.

``Tracer.install`` wraps every public function and public method defined in
the layer modules and rebinds each wrapper everywhere the original is bound
inside the package (``semlab.experiments.compute_indicators`` as well as
``semlab.panels.compute_indicators``). Private helpers stay unwrapped: they
run hot inner loops (``backtest._rank_basket`` runs thousands of times per
pass), and their time is counted as self time of the public caller.

Spans (name, start, end, parent span, op) are kept in memory and written out
at the end. ``pass_metrics`` turns the spans of one pass into self times
(span minus the time its child spans cover) and counts.
"""

from __future__ import annotations

import collections
import fnmatch
import gzip
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("panels", "signals", "synth", "factors", "backtest",
          "env", "metrics", "stats", "experiments", "cli")

ROOT = -1  # parent of an op span


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span index, op id); index = span id
        self.spans: list = []
        self.counts: dict = collections.defaultdict(collections.Counter)
        self._stack: list[int] = []
        self._op = None
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else ROOT
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._op)

    def op(self, op_id, name: str, call):
        """Run one benchmark op as a root span; returns its result."""
        self._op = op_id
        try:
            return self._span(f"op.{name}", call, (), {})
        finally:
            self._op = None

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            result = tracer._span(name, fn, args, kwargs)
            if count is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                count(tracer.counts[tracer._op], call.arguments, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "semlab") -> None:
        """Wrap the public functions and methods of every layer."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # rebind every name that refers to a wrapped function, in any module
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                new = type(member)(self._wrap(f"{layer}.{fn.__qualname__}", fn))
            elif inspect.isfunction(member):
                new = self._wrap(f"{layer}.{member.__qualname__}", member)
            else:
                continue  # properties and class constants
            self._restore.append((cls, attr, member))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: id,name,start,end,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op}\n")


# ---------------------------------------------------------------------------
# Counts read at layer boundaries: arguments and results of public calls
# ---------------------------------------------------------------------------

def _count_rollout(c, args, result) -> None:
    infos = result[2]
    c["env.steps"] += len(infos)
    c["env.gated_steps"] += sum(1 for i in infos if i.get("gated"))
    c["env.scaled_buy_steps"] += sum(1 for i in infos if i.get("buys_scaled"))


def _count_aggregation(c, args, result) -> None:
    c["signals.aggregated"] += len(args["articles"])
    c["signals.unplaced"] += result[1].total


COUNTERS = {
    "panels.load_price_panel": lambda c, a, r: c.update({"panels.rows_loaded": r.n_dates * r.n_tickers}),
    "signals.load_article_scores": lambda c, a, r: c.update({"signals.articles_loaded": len(r)}),
    "panels.compute_indicators": lambda c, a, r: c.update(
        {"panels.indicator_stock_days": r.values.shape[0] * r.values.shape[1]}),
    "panels.compute_turbulence": lambda c, a, r: c.update(
        {"panels.turbulence_days": int(np.isfinite(r.values).sum())}),
    "signals.aggregate_signals": _count_aggregation,
    "env.run_policy": _count_rollout,
    "backtest.run_weight_schedule": lambda c, a, r: c.update({"backtest.ledger_days": len(r.dates)}),
    "factors.fit_forecaster": lambda c, a, r: c.update({"factors.grid_points": len(r.validation_table)}),
    "factors.select_temperature": lambda c, a, r: c.update({"factors.grid_points": len(r[1])}),
    "stats.block_bootstrap_ci": lambda c, a, r: c.update({"stats.resamples": a["resamples"]}),
    "experiments.run": lambda c, a, r: c.update(
        {"experiments.artifact_bytes": sum(os.path.getsize(p) for p in r)}),
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span-name patterns whose self time it sums ("!" excludes)
SELF_TIMES = {
    "panels.load_s": ["panels.load_price_panel"],
    "panels.write_s": ["panels.write_price_panel"],
    "panels.indicators_s": ["panels.compute_indicators"],
    "panels.turbulence_s": ["panels.compute_turbulence"],
    "panels.slice_s": ["panels.MarketPanel.slice_dates", "panels.MarketPanel.restrict",
                       "panels.MarketPanel.date_index"],
    "signals.load_s": ["signals.load_article_scores"],
    "signals.write_s": ["signals.write_article_scores"],
    "signals.aggregate_s": ["signals.aggregate_signals"],
    "signals.slice_s": ["signals.SignalPanel.slice_dates", "signals.SignalPanel.restrict"],
    "synth.panel_s": ["synth.synth_panel"],
    "factors.fit_s": ["factors.fit_*"],
    "factors.composite_s": ["factors.composite", "factors.ForecasterModel.score_panel"],
    "factors.slice_s": ["factors.CompositeScore.slice_dates", "factors.CompositeScore.restrict"],
    "backtest.rank_s": ["backtest.backtest_topk"],
    "backtest.ledger_s": ["backtest.run_weight_schedule"],
    "backtest.write_s": ["backtest.write_equity_curve"],
    "backtest.slice_s": ["backtest.EquityCurve.slice_indices"],
    "env.rollout_s": ["env.run_policy"],
    "env.step_s": ["env.TradingEnv.step"],
    "env.observation_s": ["env.TradingEnv.observation"],
    "metrics.report_s": ["metrics.*"],
    "stats.bootstrap_s": ["stats.block_bootstrap_ci"],
    "stats.tests_s": ["stats.*", "!stats.block_bootstrap_ci"],
    "experiments.workspace_s": ["experiments.load_workspace"],
    "experiments.self_s": ["experiments.*", "!experiments.load_workspace"],
    "cli.self_s": ["cli.*"],
}
SELF_TIMES.update({f"{layer}.total_s": [f"{layer}.*"] for layer in LAYERS})

# metric -> span-name patterns whose calls it counts
CALLS = {
    "synth.calls": ["synth.synth_panel"],
    "factors.fit_calls": ["factors.fit_*"],
    "backtest.calls": ["backtest.backtest_topk"],
    "panels.slice_calls": SELF_TIMES["panels.slice_s"],
    "signals.slice_calls": SELF_TIMES["signals.slice_s"],
    "factors.slice_calls": SELF_TIMES["factors.slice_s"],
    "backtest.slice_calls": SELF_TIMES["backtest.slice_s"],
}

COUNTED = (
    "panels.rows_loaded", "signals.articles_loaded", "panels.indicator_stock_days",
    "panels.turbulence_days", "env.steps", "env.gated_steps", "env.scaled_buy_steps",
    "backtest.ledger_days", "factors.grid_points", "stats.resamples",
    "experiments.artifact_bytes",
)

def metric_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in (*CALLS, *COUNTED, "trace.spans")})
    units.update({"experiments.artifact_bytes": "bytes", "signals.placed_frac": "ratio",
                  "trace.unattributed_s": "s", "trace.op_wall_s": "s",
                  "trace.overhead_frac": "ratio"})
    return units


def _matches(name: str, patterns: list[str]) -> bool:
    hit = any(fnmatch.fnmatchcase(name, p) for p in patterns if not p.startswith("!"))
    return hit and not any(fnmatch.fnmatchcase(name, p[1:]) for p in patterns if p.startswith("!"))


def pass_metrics(tracer: Tracer, ops) -> dict[str, float]:
    """Per-layer metrics of the ops (op ids) of one traced pass."""
    ops = set(ops)
    child = collections.Counter()
    for name, start, end, parent, op in tracer.spans:
        if op in ops and parent != ROOT:
            child[parent] += end - start
    self_by_name = collections.Counter()
    calls_by_name = collections.Counter()
    op_wall = 0.0
    for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op not in ops:
            continue
        self_by_name[name] += (end - start) - child[sid]
        calls_by_name[name] += 1
        if parent == ROOT:
            op_wall += end - start
    counts = collections.Counter()
    for op in ops:
        counts.update(tracer.counts.get(op, {}))

    out = {}
    for metric, patterns in SELF_TIMES.items():
        out[metric] = sum(t for n, t in self_by_name.items() if _matches(n, patterns))
    for metric, patterns in CALLS.items():
        out[metric] = sum(k for n, k in calls_by_name.items() if _matches(n, patterns))
    for metric in COUNTED:
        out[metric] = counts[metric]
    aggregated = counts["signals.aggregated"]
    out["signals.placed_frac"] = (
        (aggregated - counts["signals.unplaced"]) / aggregated if aggregated else 0.0
    )
    out["trace.unattributed_s"] = sum(t for n, t in self_by_name.items() if n.startswith("op."))
    out["trace.op_wall_s"] = op_wall
    out["trace.spans"] = sum(calls_by_name.values())
    return out


def median_pass(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """The metrics of the pass with the median op wall time (the lower one
    of two), so that its self times still add up to its wall time."""
    ranked = sorted(per_pass, key=lambda m: m["trace.op_wall_s"])
    return dict(ranked[(len(ranked) - 1) // 2])

