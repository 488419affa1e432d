"""Workloads of the semlab study benchmark: inputs, op lists and output checks.

A workload turns an input seed and a panel size into inputs (files or an
inline synthetic spec), lists the studies one pass runs, and reduces each
study's result to an observation: the values that are compared with the
reference captured from a known-good commit.

Artifacts are written with ``repr``/fixed formatting, so observations keep
the parsed table cells and are compared cell by cell within a tolerance; a
byte hash would reject a correct change in summation order.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from typing import Any, Callable, NamedTuple

import numpy as np

from semlab import cli, experiments

# The three workloads at benchmark size: (tickers, days).
FULL_SIZES = {
    "features_files": (30, 2500),
    "factor_studies": (100, 2500),
    "csv_roundtrip": (100, 2500),
}
TOY_SIZE = (12, 400)

# The workload seed picks one of this many generator seeds, so that a
# reference captured for each of them covers every workload seed.
INPUT_SEEDS = 8

START_DATE = "2015-01-02"

# Small result tables whose cells are compared with the reference. Equity
# curves, holdings and episode logs are summarised by the report rows.
CHECKED_TABLES = (
    "report.csv", "env_seeds.csv", "seed_summary.csv", "selection.csv",
    "sweep.csv", "temperature_selection.csv", "diagnostics.csv",
    "stratified.csv", "subperiod.csv", "pca.csv", "signal_stats.csv", "ic.csv",
)

# Table cells are written with six decimals; the tolerance admits a flip of
# the last printed digits (e.g. from reordered floating-point sums) and
# nothing that changes a result.
REL_TOL = 1e-6
ABS_TOL = 1e-5

FACTOR_KINDS = (
    "sfp", "srf", "scw", "pc1", "softmax", "baselines",
    "cost_sweep", "stratified", "subperiod", "validation_suite",
)


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def synthetic_spec(tickers: int, days: int, seed: int) -> dict:
    return {
        "tickers": tickers, "days": days, "start_date": START_DATE,
        "coverage": 0.35, "beta": [0.0025, 0.0, 0.0, 0.0], "seed": seed,
    }


def split_ranges(days: int) -> dict:
    """train = first 50 % of days, validation = next 20 %, test = the rest."""
    cal = np.busday_offset(np.datetime64(START_DATE), np.arange(days), roll="forward")
    cal = [str(d) for d in cal]
    a = days // 2
    b = a + days // 5
    return {
        "train": [cal[0], cal[a - 1]],
        "validation": [cal[a], cal[b - 1]],
        "test": [cal[b], cal[-1]],
    }


# ---------------------------------------------------------------------------
# Calls into semlab and the observations taken from their results
# ---------------------------------------------------------------------------

def run_study(raw: dict) -> list[str]:
    return experiments.run(experiments.ExperimentConfig.from_dict(raw))


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().splitlines()


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _manifest_ok(out_dir: str, names: list[str]) -> bool:
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        return False
    with open(path) as fh:
        manifest = json.load(fh)
    return manifest.get("artifacts") == [n for n in names if n != "manifest.json"]


def observe_study(paths: list[str]) -> dict:
    names = sorted(os.path.basename(p) for p in paths)
    out_dir = os.path.dirname(paths[0]) if paths else ""
    obs: dict = {"artifacts": names, "manifest": _manifest_ok(out_dir, names)}
    for name in names:
        if name in CHECKED_TABLES:
            obs[name] = _read_rows(os.path.join(out_dir, name))
    return obs


def observe_synth(result: tuple[int, list[str]]) -> dict:
    code, lines = result
    return {"exit": code, "artifacts": sorted(os.path.basename(p) for p in lines)}


def observe_validate(result: tuple[int, list[str]]) -> dict:
    code, lines = result
    # content hashes pin the bytes written, which a correct change may alter
    return {"exit": code, "lines": [ln for ln in lines if not ln.startswith("[hash]")]}


def mismatches(observed, expected, where: str = "") -> list[str]:
    """Differences between an observation and its reference, one line each."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        out = []
        for key in sorted(set(observed) | set(expected)):
            if key not in expected:
                out.append(f"{where}/{key}: not in reference")
            elif key not in observed:
                out.append(f"{where}/{key}: missing")
            else:
                out += mismatches(observed[key], expected[key], f"{where}/{key}")
        return out
    if isinstance(expected, list) and isinstance(observed, list):
        if len(observed) != len(expected):
            return [f"{where}: {len(observed)} entries, reference has {len(expected)}"]
        out = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out += mismatches(o, e, f"{where}[{i}]")
        return out
    if observed == expected:
        return []
    if isinstance(expected, str) and isinstance(observed, str):
        try:
            o, e = float(observed), float(expected)
        except ValueError:
            pass
        else:
            if math.isclose(o, e, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return []
    return [f"{where}: {observed!r} != reference {expected!r}"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Op(NamedTuple):
    """One study: ``call`` runs it, ``observe`` reduces its result."""

    name: str
    call: Callable[[], Any]
    observe: Callable[[Any], dict]


class FeaturesFiles:
    """env_eval and forecaster from a price CSV and an article-cache CSV."""

    name = "features_files"

    def prepare(self, workdir: str, tickers: int, days: int, seed: int) -> dict:
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(synthetic_spec(tickers, days, seed), fh)
        code, lines = run_cli(["synth", spec_path, str(seed), "--out", os.path.join(workdir, "data")])
        if code != 0:
            raise RuntimeError(f"semlab synth exited with {code}")
        prices, signals = lines[0], lines[1]
        return {"data": {"price_panel": prices, "signal_cache": signals},
                "ranges": split_ranges(days), "seed": seed}

    def ops(self, inputs: dict, out_dir: str) -> list[Op]:
        def config(kind: str, params: dict) -> dict:
            return {"kind": kind, "seed": inputs["seed"],
                    "output_dir": os.path.join(out_dir, kind),
                    "data": inputs["data"], "ranges": inputs["ranges"], "params": params}

        env_eval = config("env_eval", {"policy": "signal_threshold", "n_seeds": 3,
                                       "masks": [None, "ALL"]})
        forecaster = config("forecaster", {"blocks": ["price", "semantic"], "tilt": True})
        return [Op("env_eval", lambda: run_study(env_eval), observe_study),
                Op("forecaster", lambda: run_study(forecaster), observe_study)]


class FactorStudies:
    """Ten factor-portfolio study kinds on an inline synthetic spec."""

    name = "factor_studies"

    def prepare(self, workdir: str, tickers: int, days: int, seed: int) -> dict:
        return {"data": {"synthetic": synthetic_spec(tickers, days, seed)},
                "ranges": split_ranges(days), "seed": seed}

    def ops(self, inputs: dict, out_dir: str) -> list[Op]:
        ops = []
        for kind in FACTOR_KINDS:
            raw = {"kind": kind, "seed": inputs["seed"],
                   "output_dir": os.path.join(out_dir, kind),
                   "data": inputs["data"], "ranges": inputs["ranges"], "params": {}}
            ops.append(Op(kind, lambda raw=raw: run_study(raw), observe_study))
        return ops


class CsvRoundtrip:
    """``semlab synth`` into a fresh directory, then ``semlab validate`` on it."""

    name = "csv_roundtrip"

    def prepare(self, workdir: str, tickers: int, days: int, seed: int) -> dict:
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(synthetic_spec(tickers, days, seed), fh)
        return {"spec": spec_path, "seed": seed}

    def ops(self, inputs: dict, out_dir: str) -> list[Op]:
        synth = ["synth", inputs["spec"], str(inputs["seed"]), "--out", out_dir]
        validate = ["validate", os.path.join(out_dir, "prices.csv"),
                    os.path.join(out_dir, "signals.csv")]
        return [Op("synth", lambda: run_cli(synth), observe_synth),
                Op("validate", lambda: run_cli(validate), observe_validate)]


WORKLOADS = {w.name: w for w in (FeaturesFiles(), FactorStudies(), CsvRoundtrip())}
