import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semlab import (
    BacktestConfig,
    ExperimentConfig,
    SyntheticSpec,
    baseline,
    experiments,
    mann_whitney_u,
    metrics,
    run,
    spearman_ic,
    synth_panel,
    validate_inputs,
)
from semlab._grid import date_span, read_grid
from semlab.cli import EXIT_DATA, main as cli_main
from semlab.errors import AlignmentError, ConfigError, LabError, ParseError, ValidationError
from semlab.env import HoldPolicy, SignalThresholdPolicy, run_policy
from semlab.experiments import _KINDS, _PARAMS, KINDS
from semlab.panels import write_price_panel
from semlab.signals import AXES, load_article_scores, mask_axes

from conftest import business_days, read_rows, study_config


CAL = business_days("2015-01-02", 420)

SYNTH = {
    "tickers": 8, "days": 420, "coverage": 0.4,
    "beta": [0.005, 0, 0, 0], "volatility": 0.015, "seed": 99,
}


# kinds that take no basket size k: no top-k basket, or one sized per tercile
UNRANKED = ("env_eval", "validation_suite", "stratified")


def table(header):
    """The rows of the README table under ``header``, as lists of cells."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        rows = fh.read().split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    return [[c.strip() for c in row.strip("|").split("|")] for row in rows]


def config_dict(kind, outdir, seed=7, params=None):
    return {
        "kind": kind,
        "seed": seed,
        "output_dir": str(outdir),
        "data": {"synthetic": SYNTH},
        "ranges": {
            "train": [CAL[60], CAL[259]],
            "validation": [CAL[260], CAL[319]],
            "test": [CAL[320], CAL[419]],
        },
        "params": {**({} if kind in UNRANKED else {"k": 3}), **(params or {})},
    }


class TestConfig:
    def test_unknown_kind_rejected(self, tmp_path):
        raw = config_dict("sfp", tmp_path)
        raw["kind"] = "warp"
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            ExperimentConfig.from_dict(raw)

    def test_overlapping_ranges_rejected(self, tmp_path):
        raw = config_dict("sfp", tmp_path)
        raw["ranges"]["validation"] = [CAL[200], CAL[340]]
        with pytest.raises(ConfigError, match="disjoint"):
            ExperimentConfig.from_dict(raw)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_dict({"kind": "sfp"})

    def test_fit_span_includes_validation(self, tmp_path):
        cfg = ExperimentConfig.from_dict(config_dict("sfp", tmp_path))
        assert cfg.fit_span() == (CAL[60], CAL[319])

    def test_config_hash_stable(self, tmp_path):
        a = ExperimentConfig.from_dict(config_dict("sfp", tmp_path))
        b = ExperimentConfig.from_dict(config_dict("sfp", tmp_path))
        assert a.config_hash() == b.config_hash()


class TestDeclaredParams:
    """Every config key is checked when the config is built: a misspelt or
    mistyped key fails with a ConfigError (exit 1) before any data is read."""

    def _cli(self, tmp_path, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        return cli_main(["run", str(cfg_path)])

    @pytest.mark.parametrize("kind, params, match", [
        ("sfp", {"kk": 3}, r"unknown param 'kk' for kind 'sfp' \(did you mean 'k'\?\)"),
        ("sfp", {"cost_rte": 0.002},
         r"unknown param 'cost_rte' for kind 'sfp' \(did you mean 'cost_rate'\?\)"),
        ("env_eval", {"k": 3}, r"unknown param 'k' for kind 'env_eval'"),
        ("validation_suite", {"ridge_strength": 1.0}, r"unknown param 'ridge_strength'"),
        # read by neither kind: baskets are sized per tercile, rates set per sweep row
        ("stratified", {"k": 3}, r"unknown param 'k' for kind 'stratified'"),
        ("cost_sweep", {"cost_rate": 0.05}, r"unknown param 'cost_rate' for kind 'cost_sweep'"),
    ])
    def test_unknown_param_rejected(self, tmp_path, kind, params, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(config_dict(kind, tmp_path, params=params))

    @pytest.mark.parametrize("kind, key, value", [
        ("sfp", "k", 3.7),
        ("sfp", "k", True),
        ("sfp", "k", "ten"),
        ("sfp", "seed", True),
        ("cost_sweep", "costs", [0, "0.002"]),
        ("forecaster", "tilt", 1),
        ("env_eval", "start_date", 20150102),
        ("cost_sweep", "costs", [0.002, 0.001]),
        ("cost_sweep", "costs", [-0.001, 0.001]),
        ("forecaster", "tilt_grid", ["a"]),
        ("forecaster", "tilt_grid", [True]),
    ])
    def test_mistyped_value_exits_1(self, tmp_path, capsys, kind, key, value):
        raw = config_dict(kind, tmp_path / "out")
        if key == "seed":
            raw["seed"] = value
        else:
            raw["params"][key] = value
        assert self._cli(tmp_path, raw) == 1
        named = "seed must be an integer" if key == "seed" else f"param {key!r} for kind {kind!r}"
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, params, named", [
        ("sfp", {"k": 0}, "basket size must be >= 1, got 0"),
        ("sfp", {"cost_rate": -0.001}, "cost rate must be >= 0, got -0.001"),
        ("env_eval", {"h_max": 0}, "h_max must be >= 1, got 0"),
        ("env_eval", {"initial_cash": 0}, "initial_cash must be > 0, got 0.0"),
        ("sfp", {"horizon": 0}, "param 'horizon' must be >= 1, got 0"),
        ("validation_suite", {"window": -1}, "param 'window' must be >= 0, got -1"),
        ("srf", {"ridge_strength": -1}, "param 'ridge_strength' must be >= 0, got -1.0"),
        ("stratified", {"k_per_stratum": 0}, "param 'k_per_stratum' must be >= 1, got 0"),
        ("baselines", {"momentum_lookback": 0}, "param 'momentum_lookback' must be >= 1, got 0"),
        ("baselines", {"momentum_lookback": -5}, "param 'momentum_lookback' must be >= 1"),
        ("baselines", {"vol_window": 1}, "param 'vol_window' must be >= 2, got 1"),
        ("scw", {"temperature_grid": []}, "param 'temperature_grid' must hold at least one"),
        ("cost_sweep", {"costs": []}, "param 'costs' must hold at least one cost"),
        ("scw", {"temperature_grid": [0]}, "param 'temperature_grid' items must be > 0, got [0]"),
        ("scw", {"temperature_grid": [1.0, -1.0]},
         "param 'temperature_grid' items must be > 0, got [1.0, -1.0]"),
        ("scw", {"temperature_grid": [float("nan")]},
         "param 'temperature_grid' items must be > 0, got [nan]"),
        ("scw", {"temperature_grid": [1.0, float("inf")]},
         "params for kind 'scw': temperature must be positive and finite, got inf"),
        ("forecaster", {"lambda_grid": [0.1, -1.0]},
         "param 'lambda_grid' items must be >= 0, got [0.1, -1.0]"),
        ("forecaster", {"lambda_grid": []}, "param 'lambda_grid' must hold at least one ridge"),
        ("forecaster", {"blocks": []}, "param 'blocks' must hold at least one block"),
        ("env_eval", {"turbulence_window": 1}, "param 'turbulence_window' must be >= 2, got 1"),
        ("env_eval", {"turbulence_window": -3}, "param 'turbulence_window' must be >= 2, got -3"),
        ("sfp", {"ridge_strength": float("nan")}, "param 'ridge_strength' must be >= 0, got nan"),
        ("srf", {"ridge_strength": float("inf")}, "param 'ridge_strength' must be finite, got inf"),
        ("env_eval", {"level": float("nan")}, "param 'level' must be finite, got nan"),
        ("env_eval", {"indicators": []}, "param 'indicators' must hold at least one indicator"),
        ("forecaster", {"indicators": []}, "param 'indicators' must hold at least one indicator"),
        ("env_eval", {"indicators": ["macd", "sentiment"]}, "unknown indicator 'sentiment'"),
        # NaN fails every library comparison, and no number is infinite
        ("sfp", {"cost_rate": float("nan")}, "cost rate must be >= 0, got nan"),
        ("stratified", {"cost_rate": float("nan")}, "cost rate must be >= 0, got nan"),
        ("env_eval", {"cost_rate": float("nan")}, "cost rate must be >= 0, got nan"),
        ("sfp", {"cost_rate": float("inf")}, "cost rate must be < 1, got inf"),
        ("env_eval", {"cost_rate": float("inf")}, "cost rate must be < 1, got inf"),
        ("env_eval", {"turbulence_threshold": float("nan")},
         "turbulence_threshold must be non-negative"),
        ("env_eval", {"reward_scale": float("nan")}, "reward_scale must be non-negative"),
        ("env_eval", {"drawdown_alpha": float("nan")}, "drawdown_alpha must be non-negative"),
        ("env_eval", {"initial_cash": float("nan")}, "initial_cash must be > 0, got nan"),
        ("env_eval", {"initial_cash": float("inf")}, "initial_cash must be finite, got inf"),
        ("env_eval", {"reward_scale": float("inf")}, "reward_scale must be finite, got inf"),
        ("env_eval", {"turbulence_threshold": float("inf")},
         "turbulence_threshold must be finite, got inf"),
        ("cost_sweep", {"costs": [0.001, float("nan")]},
         "param 'costs' for kind 'cost_sweep' must be non-negative and ascending"),
        ("cost_sweep", {"costs": [0.001, float("inf")]}, "cost rate must be < 1, got inf"),
        ("forecaster", {"tilt_grid": [float("nan")]},
         "param 'tilt_grid' must be finite, got [nan]"),
        ("forecaster", {"lambda_grid": [float("inf")]},
         "param 'lambda_grid' must be finite, got [inf]"),
        # a rate of 1 charges the whole notional traded
        ("sfp", {"cost_rate": 1}, "cost rate must be < 1, got 1.0"),
        ("env_eval", {"cost_rate": 2}, "cost rate must be < 1, got 2.0"),
        ("cost_sweep", {"costs": [0.5, 1]}, "cost rate must be < 1, got 1"),
        # the least values that mean something to fit_forecaster and lag1_autocorr
        ("forecaster", {"min_stock_days": -5}, "param 'min_stock_days' must be >= 2, got -5"),
        ("forecaster", {"min_stock_days": 0}, "param 'min_stock_days' must be >= 2, got 0"),
        ("validation_suite", {"min_obs": -1}, "param 'min_obs' must be >= 3, got -1"),
        ("validation_suite", {"min_obs": 0}, "param 'min_obs' must be >= 3, got 0"),
        # a second block of a name used to be dropped without a word
        ("forecaster", {"blocks": ["price", "price"]},
         "duplicate block 'price' in param 'blocks'"),
        ("forecaster", {"blocks": ["price", "prices"]},
         "unknown feature block 'prices' (did you mean 'price'?)"),
        # "seed" is the top-level key, which no kind declares as a param; a
        # negative one reached numpy's generator, after the study for sfp
        ("sfp", {"seed": -1}, "seed must be >= 0, got -1"),
        ("env_eval", {"seed": -1}, "seed must be >= 0, got -1"),
        ("baselines", {"seed": 2**63}, "seed must fit in a signed 64-bit integer"),
    ])
    def test_value_out_of_range_exits_1(self, tmp_path, capsys, kind, params, named):
        # each used to pass here and fail once the data was read, or, for no
        # costs, to write a sweep.csv of its header alone
        params = dict(params)
        raw = config_dict(kind, tmp_path / "out", seed=params.pop("seed", 7), params=params)
        assert self._cli(tmp_path, raw) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, named", [
        ({"tickers": ["A", "A"]}, "duplicate ticker 'A'"),
        ({"coverage": 1.5}, "coverage"),
        ({"start_date": "2015"}, "start_date"),
        ({"tickerz": 3}, "unknown synthetic-spec key 'tickerz'"),
    ])
    def test_inline_spec_breaking_a_rule_exits_1(self, tmp_path, capsys, spec, named):
        raw = config_dict("baselines", tmp_path / "out")
        raw["data"]["synthetic"] = {**SYNTH, **spec}
        assert self._cli(tmp_path, raw) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_values_resolve_to_declared_types(self, tmp_path):
        cfg = ExperimentConfig.from_dict(config_dict(
            "cost_sweep", tmp_path, params={"ridge_strength": 0, "costs": [0, 0.002]}))
        assert cfg.p["ridge_strength"] == 0.0 and isinstance(cfg.p["ridge_strength"], float)
        # list items keep their JSON type: artifacts print 0 and 0.0 apart
        assert cfg.p["costs"] == (0, 0.002) and isinstance(cfg.p["costs"][0], int)
        assert cfg.p["horizon"] == _KINDS["sfp"][2]["horizon"]
        assert cfg.params == {"k": 3, "ridge_strength": 0, "costs": [0, 0.002]}

    def test_subperiod_entries_need_name_start_end(self, tmp_path):
        raw = config_dict("subperiod", tmp_path / "out",
                          params={"periods": [["y", "2016-06-01"]]})
        with pytest.raises(ConfigError, match=r"\[name, start, end\]"):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    @pytest.mark.parametrize("case, match", [
        ("univers", r"unknown config key 'univers' \(did you mean 'universe'\?\)"),
        ("validaton", r"unknown range 'validaton' \(did you mean 'validation'\?\)"),
        ("signal_cach", r"unknown data key 'signal_cach' \(did you mean 'signal_cache'\?\)"),
        ("synthetic+price_panel", r"exactly one of 'synthetic' and 'price_panel'"),
        ("synthetic+signal_cache", r"'signal_cache' goes only beside 'price_panel'"),
        ("no validation", r"kind 'scw' needs a validation range"),
    ])
    def test_dropped_key_fails_before_data_is_read(self, tmp_path, case, match):
        # every data path is missing: reading any input would exit 2, not 1
        raw = config_dict("scw", tmp_path / "out")
        missing = str(tmp_path / "missing.csv")
        raw["data"] = {"price_panel": missing}
        if case == "univers":
            raw["univers"] = ["SYN00"]
        elif case == "validaton":
            raw["ranges"]["validaton"] = raw["ranges"].pop("validation")
        elif case == "signal_cach":
            raw["data"]["signal_cach"] = missing
        elif case == "synthetic+price_panel":
            raw["data"]["synthetic"] = SYNTH
        elif case == "synthetic+signal_cache":
            raw["data"] = {"synthetic": SYNTH, "signal_cache": missing}
        else:
            del raw["ranges"]["validation"]
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    def test_repeated_universe_ticker_fails_before_data_is_read(self, tmp_path):
        raw = config_dict("baselines", tmp_path / "out")
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        raw["universe"] = ["SYN01", "SYN02", "SYN01"]
        with pytest.raises(ConfigError, match="duplicate ticker 'SYN01' in universe"):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    @pytest.mark.parametrize("universe", ["SYN01", ["SYN01", 2], {"SYN01": 1}, []])
    def test_universe_not_a_ticker_list_fails_before_data_is_read(self, tmp_path, universe):
        # a string would otherwise become the tuple of its characters
        raw = config_dict("baselines", tmp_path / "out")
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        raw["universe"] = universe
        with pytest.raises(ConfigError, match=r"universe must be a list of tickers, got "):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    @pytest.mark.parametrize("key, value, match", [
        ("ranges", [], r"config key 'ranges' must be a JSON object, got \[\]$"),
        ("data", "x", r"config key 'data' must be a JSON object, got 'x'$"),
        ("params", "x", r"config key 'params' must be a JSON object, got 'x'$"),
        ("params", [], r"config key 'params' must be a JSON object, got \[\]$"),
        ("output_dir", 5, r"output_dir must be a path, got 5$"),
        ("data.price_panel", 5, r"data key 'price_panel' must be a path, got 5$"),
        ("data.price_panel", 0, r"data key 'price_panel' must be a path, got 0$"),
        ("data.signal_cache", ["c.csv"], r"data key 'signal_cache' must be a path"),
        ("data.dense_blocks", [], r"data key 'dense_blocks' must map names to paths"),
        ("data.dense_blocks", {"f": 5}, r"must map names to paths, got \{'f': 5\}$"),
    ])
    def test_wrong_json_type_fails_before_data_is_read(self, tmp_path, key, value, match):
        # unchecked, these reach the loaders as tracebacks, an open descriptor's read
        # or a value taken silently
        raw = config_dict("baselines", tmp_path / "out")
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        outer, _, name = key.rpartition(".")
        (raw[outer] if outer else raw)[name] = value
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    def test_reversed_period_fails_before_data_is_read(self, tmp_path):
        raw = config_dict("subperiod", tmp_path / "out",
                          params={"periods": [["y", "2016-06-01", "2016-01-04"]]})
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        with pytest.raises(ConfigError, match="param 'periods' entry 'y' has start after end"):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    @pytest.mark.parametrize("kind, key, date", [
        ("baselines", ("ranges", "test", 1), "2016/01/31"),
        ("sfp", ("ranges", "train", 0), "20150102"),
        ("sfp", ("ranges", "validation", 1), 20160101),
        ("subperiod", ("params", "periods", 0, 1), "2016-6-01"),
        ("subperiod", ("params", "periods", 0, 2), "2016/12/31"),
        ("env_eval", ("params", "start_date"), "Jun 1 2016"),
    ])
    def test_malformed_date_fails_before_data_is_read(self, tmp_path, kind, key, date):
        # ranges are searched by string order, where "/" sorts after "-"
        params = {"periods": [["y2016", "2016-06-01", "2016-12-30"]]} if kind == "subperiod" else None
        raw = config_dict(kind, tmp_path / "out", params=params)
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        *path, last = key
        node = raw
        for k in path:
            node = node[k]
        node[last] = date
        with pytest.raises(ConfigError, match=f"must be a YYYY-MM-DD date, got {date!r}"):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1

    @pytest.mark.parametrize("params, match", [
        ({"masks": [5]}, r"param 'masks' items must be null, \"ALL\" or a list of axes: 5$"),
        ({"masks": [None, "sentiment"]}, r"a list of axes: 'sentiment'$"),
        ({"masks": [["risk", "sentimnt"]]},
         r"unknown axis 'sentimnt' in param 'masks' \(did you mean 'sentiment'\?\)"),
        ({"policy": "holdd"}, r"unknown policy 'holdd' \(did you mean 'hold'\?\)"),
        ({"axis": "rsk"}, r"unknown signal axis 'rsk' \(did you mean 'risk'\?\)"),
        ({"masks": []}, r"param 'masks' must hold at least one mask$"),
        ({"masks": [None, None]}, r"param 'masks' item None masks the same axes as an earlier"),
        ({"masks": [None, []]}, r"item \[\] masks the same axes as an earlier item$"),
        ({"masks": [["risk", "sentiment"], ["sentiment", "risk"]]},
         r"item \['sentiment', 'risk'\] masks the same axes as an earlier item$"),
        ({"masks": ["ALL", list(AXES)]}, r"masks the same axes as an earlier item$"),
        ({"n_seeds": 0}, r"param 'n_seeds' must be >= 1, got 0$"),
        ({"n_seeds": -3}, r"param 'n_seeds' must be >= 1, got -3$"),
    ])
    def test_env_eval_values_checked_before_data_is_read(self, tmp_path, capsys, params, match):
        raw = config_dict("env_eval", tmp_path / "out", params=params)
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(raw)
        assert self._cli(tmp_path, raw) == 1
        assert "config error:" in capsys.readouterr().err

    def test_every_param_has_a_rule(self):
        # a param that takes any value of its type says so with ``_any``
        assert all(len(entry) > 1 for entry in _PARAMS.values())

    def test_defaults_keep_their_rules(self, tmp_path):
        # the check runs on the params a config gives, so no default may break a rule
        for kind, (_, _, params) in _KINDS.items():
            raw = config_dict(kind, tmp_path, params=json.loads(json.dumps(params)))
            assert ExperimentConfig.from_dict(raw).p == params

    def test_readme_table_matches_registry(self):
        """The README's param and kind tables name exactly what ``_KINDS`` declares."""
        documented = {}
        for name, default, kinds in table("| param | default | kinds |"):
            name, kinds = name.strip("`"), kinds.split("(")[0]  # drop the note
            listed = set(re.findall(r"\w+", kinds.removeprefix("all but")))
            if kinds.startswith("all"):
                listed = set(KINDS) - listed
            for kind in listed:
                documented[kind, name] = json.loads(re.match(r"`([^`]*)`", default).group(1))
        declared = {
            (kind, name): json.loads(json.dumps(default))
            for kind, (_, _, params) in _KINDS.items() for name, default in params.items()
        }
        assert documented == declared
        ranges = {row[0].strip("`"): set(re.findall(r"\w+", row[1]))
                  for row in table("| kind | ranges | study |")}
        assert ranges == {kind: {"test", *needs} for kind, (_, needs, _) in _KINDS.items()}

    def test_readme_ranges_match_the_checks(self, tmp_path):
        """Each rule of the README's rule table is the config check's, every
        number is finite, and a rule the table leaves out for a param does not
        hold of it."""
        declared = {name: (kind, default) for kind, (_, _, params) in reversed(_KINDS.items())
                    for name, default in params.items()}

        def refused(name, value):
            if name == "seed":  # the top-level key
                raw = config_dict("sfp", tmp_path, seed=value)
            else:
                raw = config_dict(declared[name][0], tmp_path, params={name: value})
            try:
                ExperimentConfig.from_dict(raw)
            except ConfigError:
                return True
            return False

        stated = {}  # name -> (of each item, phrase)
        for rule, names in table("| rule | params |"):
            phrases = re.split(r", | and ", rule.removeprefix("items "))
            for name in re.findall(r"`(\w+)`", names):
                stated.setdefault(name, []).extend((rule.startswith("items "), p) for p in phrases)
        bounds = {"at least": lambda n: (n, n - 1), "above": lambda n: (n + 1, n),
                  "below": lambda n: (n - 0.5, n)}
        for name, phrases in stated.items():
            for items, phrase in phrases:
                bound, _, n = phrase.rpartition(" ")
                if bound in bounds:
                    inside, outside = bounds[bound](json.loads(n))
                    if items:
                        inside, outside = [inside], [outside]
                    assert not refused(name, inside) and refused(name, outside), (name, phrase)
        for name, (_, default) in declared.items():
            said = [phrase for _, phrase in stated.get(name, [])]
            listed = isinstance(default, tuple)
            numbers = type(default) in (int, float) or (
                listed and default and type(default[0]) is float)
            probes = [([], "at least one item")] if listed else []
            if listed and default:
                probes.append(([default[0]] * 2, "no repeated item"))
            if numbers:
                probes.append(([-1] if listed else -1, r"at least \d|above"))
                probes.append(([1e6] if listed else type(default)(10**6), "below"))
            if numbers and listed:
                probes.append(([0.5, 0.25], "ascending"))
            for probe, rule in probes:
                assert refused(name, probe) == any(re.match(rule, p) for p in said), (name, probe)
            assert refused(name, [math.nan] if listed else math.nan), name


# The config fuzzer's pool: JSON values of every type, at and around the
# bounds a param can have, and ones no param accepts.
POOL = [0, -1, 1, 2, 3, 0.5, -0.5, 1.5, 400, 1e308, math.nan, math.inf, -math.inf, "x", "",
        None, True, {}, [], [0], [-1], [0.5], [1.5], [math.nan], [math.inf], ["x"], [None],
        10**400, -10**400, [10**400]]
# What the fuzzer knows of the rules, written apart from the table it checks:
SIGNED = {"level", "tilt_grid"}          # may be negative
MAY_BE_EMPTY = {"tilt_grid", "periods"}  # empty picks the built-in grid or periods
DISTINCT = {"blocks", "masks"}           # a repeated item would be run or counted twice
ASCENDING = {"costs"}
RATES = {"cost_rate", "costs"}           # below 1: a rate of 1 costs the whole notional
# and the top-level seed of every kind
DECLARED = sorted({(kind, name, default) for kind, (_, _, params) in _KINDS.items()
                   for name, default in [*params.items(), ("seed", 7)]}, key=str)


def pool_for(default):
    """The pool, plus the default's own items repeated and reversed."""
    if isinstance(default, tuple) and default:
        return POOL + [list(default) * 2, list(default)[::-1]]
    return POOL


def no_data_makes_valid(name, default, value) -> bool:
    """Whether ``value`` for param ``name`` breaks a rule whatever the data:
    a non-finite number, a negative one where counts, sizes and rates go, a
    rate of 1 or more, a missing, repeated or unordered list item, a name
    that names nothing, or a type that is not the default's."""
    items = value if isinstance(value, list) else [value]
    numbers = [v for v in items if type(v) in (int, float)]
    # a JSON integer no float can hold counts as infinite
    return (any(abs(v) > 2**1024 or not math.isfinite(v) for v in numbers)
            or (name not in SIGNED and any(v < 0 for v in numbers))
            or (name in RATES and any(v >= 1 for v in numbers))
            or value == [] and name not in MAY_BE_EMPTY
            or any(v in ("x", "") for v in items if isinstance(v, str))
            or isinstance(value, dict) or (type(value) is bool) != (type(default) is bool)
            or name in DISTINCT and any(v in items[:i] for i, v in enumerate(items))
            or name in ASCENDING and numbers == items and numbers != sorted(numbers))


class TestConfigFuzz:
    """``semlab run`` over configs that set one declared param of a kind to a
    pool value, on the 8 x 420 synthetic config: it exits 0, 1 or 2 and never
    raises, a config error (exit 1) leaves no output directory, and a value
    that no data could make valid is a config error."""

    @staticmethod
    def _run(kind, name, default, value, data=None):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            raw = config_dict(kind, out)
            if name == "seed":
                raw["seed"] = value
            else:
                raw["params"][name] = value
            raw["data"] = data or raw["data"]
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            code = cli_main(["run", path])
            assert code in (0, 1, 2)
            if code == 1:
                assert not os.path.exists(out)
            if no_data_makes_valid(name, default, value):
                assert code == 1, (kind, name, value)

    @settings(max_examples=400)
    @given(st.sampled_from(DECLARED).flatmap(
        lambda d: st.tuples(st.just(d), st.sampled_from(pool_for(d[2])))))
    def test_run_exits_0_1_or_2_and_refuses_what_no_data_makes_valid(self, case):
        (kind, name, default), value = case
        self._run(kind, name, default, value)

    def test_every_value_no_data_makes_valid_exits_1_before_data_is_read(self, tmp_path):
        # every kind, param and pool value the rules refuse, so that a rule
        # dropped from the table fails here whichever value it alone refused;
        # the price file is missing, so reading it would exit 2
        missing = {"price_panel": str(tmp_path / "missing.csv")}
        for kind, name, default in DECLARED:
            for value in pool_for(default):
                if no_data_makes_valid(name, default, value):
                    self._run(kind, name, default, value, missing)


    @pytest.mark.parametrize("kind, name, value, says", [
        ("sfp", "k", 10**400, "must fit in a signed 64-bit integer"),
        ("sfp", "k", 2**63, "must fit in a signed 64-bit integer"),
        ("sfp", "ridge_strength", 10**400, "must fit in a float"),
        ("env_eval", "h_max", 10**400, "must fit in a signed 64-bit integer"),
        ("env_eval", "n_seeds", 10**400, "must fit in a signed 64-bit integer"),
        ("forecaster", "tilt_grid", [0.5, -10**400], "must fit in a float"),
    ], ids=["k-1e400", "k-2**63", "ridge_strength-1e400", "h_max-1e400", "n_seeds-1e400",
            "tilt_grid-item-1e400"])
    def test_an_oversized_integer_exits_1_before_data_is_read(self, tmp_path, capsys,
                                                              kind, name, value, says):
        raw = config_dict(kind, tmp_path / "out", params={name: value})
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 1
        assert f"param {name!r} for kind {kind!r} {says}, got an integer of" in (
            capsys.readouterr().err)


class TestRunKinds:
    def test_baselines_report_has_three_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            config_dict("baselines", tmp_path / "b",
                        params={"momentum_lookback": 126, "vol_window": 63})
        )
        paths = run(cfg)
        report = (tmp_path / "b" / "report.csv").read_text().strip().splitlines()
        assert len(report) == 4  # header + 3 baselines
        assert report[0].startswith("strategy,cr_pct,sharpe")
        assert any(p.endswith("manifest.json") for p in paths)

    def test_cost_sweep_zero_cost_dominates(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            config_dict("cost_sweep", tmp_path / "s", params={"costs": [0.0, 0.001]})
        )
        run(cfg)
        lines = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) >= float(rows[1][1])  # CR at zero cost dominates

    def test_sfp_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(config_dict("sfp", tmp_path / "f"))
        run(cfg)
        out = tmp_path / "f"
        for name in ("report.csv", "model.json", "equity_curve.csv",
                      "holdings.csv", "manifest.json", "diagnostics.csv"):
            assert (out / name).exists()
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == ("comparison,mean_bp_day,ci_low,ci_high,"
                           "delta_sharpe,win_pct,wilcoxon_p")
        assert diag[1].startswith("sfp-4axis vs sfp-sentiment-only")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "sfp"
        assert "panel" in manifest["input_hashes"]
        report = (out / "report.csv").read_text().splitlines()
        labels = [line.split(",")[0] for line in report[1:]]
        assert labels == ["sfp-4axis", "sfp-sentiment-only", "ew-buy-and-hold"]

    def test_scw_reports_selection_table(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            config_dict("scw", tmp_path / "w", params={"temperature_grid": [0.5, 2.0]})
        )
        run(cfg)
        table = (tmp_path / "w" / "temperature_selection.csv").read_text().splitlines()
        assert len(table) == 3

    def test_every_kind_runs(self, tmp_path):
        for kind in KINDS:
            params = {} if kind in UNRANKED else {"k": 3}
            if kind == "forecaster":
                params.update(blocks=["price", "semantic"],
                              lambda_grid=[1e-3, 1.0], min_stock_days=100)
            if kind == "cost_sweep":
                params.update(costs=[0.0, 0.002])
            if kind == "env_eval":
                params.update(n_seeds=2, policy="signal_threshold")
            if kind == "stratified":
                params.update(k_per_stratum=2)
            cfg = ExperimentConfig.from_dict(
                config_dict(kind, tmp_path / kind, params=params)
            )
            paths = run(cfg)
            assert paths, kind
            assert (tmp_path / kind / "manifest.json").exists(), kind

    def test_failure_removes_partial_outputs(self, tmp_path):
        raw = config_dict("sfp", tmp_path / "broken")
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(OSError):
            run(cfg)
        leftovers = list((tmp_path / "broken").glob("*")) if (tmp_path / "broken").exists() else []
        assert leftovers == []

    def _broken_spec_config(self, tmp_path, outdir):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"tickers": ["A", "A"], "days": 50}))
        raw = config_dict("sfp", outdir)
        raw["data"] = {"synthetic": str(spec)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize("outdir", ["out", "a/b/out"])
    def test_failure_removes_the_output_dirs_it_made(self, tmp_path, capsys, outdir):
        cfg = self._broken_spec_config(tmp_path, tmp_path / outdir)
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error: duplicate ticker 'A'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "spec.json"]

    def test_failure_keeps_an_output_dir_that_was_there(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("kept")
        (tmp_path / "empty").mkdir()
        for outdir in ("out", "empty", "empty/made"):
            assert cli_main(["run", self._broken_spec_config(tmp_path, tmp_path / outdir)]) == 1
            assert capsys.readouterr().err.startswith("config error: duplicate ticker 'A'")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["notes.txt"]
        assert (tmp_path / "out" / "notes.txt").read_text() == "kept"
        assert list((tmp_path / "empty").iterdir()) == []


class TestCostSweep:
    """The cost_sweep kind re-runs the sfp-4axis portfolio at each cost level."""

    COSTS = [0.0, 0.0005, 0.001, 0.005, 0.02]

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep")
        run(ExperimentConfig.from_dict(config_dict("cost_sweep", out, params={"costs": self.COSTS})))
        return read_rows(out / "sweep.csv")

    def test_returns_non_increasing_in_cost(self, sweep):
        assert [float(r["cost"]) for r in sweep] == self.COSTS
        crs = [float(r["cr_pct"]) for r in sweep]
        assert all(a >= b for a, b in zip(crs, crs[1:]))
        # the comparator pays no cost, so one row holds for all
        assert len({(r["benchmark_cr_pct"], r["benchmark_sharpe"]) for r in sweep}) == 1

    def test_row_at_the_sfp_cost_equals_the_sfp_report(self, sweep, tmp_path):
        run(ExperimentConfig.from_dict(config_dict("sfp", tmp_path)))  # cost_rate 0.001
        report = {r["strategy"]: r for r in read_rows(tmp_path / "report.csv")}
        row = next(r for r in sweep if r["cost"] == "0.001000")
        for col in ("cr_pct", "sharpe", "mdd_pct"):
            assert row[col] == report["sfp-4axis"][col], col
        for col in ("cr_pct", "sharpe"):
            assert row[f"benchmark_{col}"] == report["ew-buy-and-hold"][col], col


class TestStratified:
    """The stratified kind ranks the full-panel scores within each coverage
    tercile's tickers, against the buy-and-hold index of those tickers."""

    def test_uniform_coverage_terciles_indistinguishable(self, tmp_path):
        # with identical coverage and a universe-wide planted effect, no
        # tercile should outperform its own benchmark more often than chance
        edges = {"Low": [], "Mid": [], "High": []}
        for seed in range(10):
            spec = {"tickers": 9, "days": 700, "coverage": 0.4,
                    "beta": [0.004, 0, 0, 0], "seed": seed}
            out = tmp_path / str(seed)
            run(ExperimentConfig.from_dict(study_config(
                "stratified", out, spec, 350, {"cost_rate": 0.0, "k_per_stratum": 2})))
            rows = read_rows(out / "stratified.csv")
            for strategy, bench in zip(rows[::2], rows[1::2]):
                edges[strategy["tercile"]].append(
                    float(strategy["cr_pct"]) - float(bench["cr_pct"]))
        for a, b in (("Low", "Mid"), ("Mid", "High"), ("Low", "High")):
            res = mann_whitney_u(edges[a], edges[b])
            assert res.p_value > 0.01, f"{a} vs {b} spuriously different"

    def test_pairs_strategy_and_benchmark_per_tercile(self, tmp_path):
        spec = {"tickers": 9, "days": 420, "coverage": [0.05] * 3 + [0.2] * 3 + [0.5] * 3,
                "beta": [0.005, 0, 0, 0], "seed": 32}
        run(ExperimentConfig.from_dict(study_config(
            "stratified", tmp_path, spec, 200, {"k_per_stratum": 2})))
        rows = read_rows(tmp_path / "stratified.csv")
        assert [(r["tercile"], r["leg"]) for r in rows] == [
            (t, leg) for t in ("Low", "Mid", "High") for leg in ("strategy", "benchmark")]
        coverage = read_rows(tmp_path / "coverage.csv")
        panel, _, _ = synth_panel(SyntheticSpec.from_dict(spec))
        period = (panel.dates[200], panel.dates[-1])
        for strategy, bench in zip(rows[::2], rows[1::2]):
            members = [c["ticker"] for c in coverage if c["tercile"] == strategy["tercile"]]
            assert strategy["n_tickers"] == bench["n_tickers"] == str(len(members)) == "3"
            index = metrics(baseline(panel.restrict(members), "ew_buy_and_hold",
                                     BacktestConfig(period=period)))
            assert bench["cr_pct"] == f"{index.cr * 100:.6f}"
            assert bench["sharpe"] == f"{index.sharpe:.6f}"


class TestDenseBlock:
    DATES = ("2020-01-02", "2020-01-03")
    TICKERS = ("AA", "BB")

    def _write(self, tmp_path, rows):
        path = tmp_path / "dense.csv"
        path.write_text("date,ticker,f0,f1\n" + "".join(r + "\n" for r in rows))
        return str(path)

    def _load(self, path):
        """The block as ``forecaster`` reads it, on the workspace grid."""
        return read_grid(path, None, self.DATES, self.TICKERS)[2]

    def test_full_grid_loads_and_outside_rows_are_skipped(self, tmp_path):
        path = self._write(tmp_path, [
            "2020-01-02,AA,1,2", "2020-01-02,BB,3,4",
            "2020-01-03,AA,5,6", "2020-01-03,BB,7,8",
            "2020-01-03,ZZ,9,9",  # ticker outside the workspace universe
            "2019-12-31,AA,9,9",  # date outside the workspace calendar
        ])
        arr = self._load(path)
        np.testing.assert_array_equal(arr, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])

    def test_missing_cell_is_alignment_error(self, tmp_path):
        path = self._write(tmp_path, [
            "2020-01-02,AA,1,2", "2020-01-02,BB,3,4", "2020-01-03,AA,5,6",
        ])
        with pytest.raises(AlignmentError, match=r"calendar gaps: BB missing 2020-01-03$"):
            self._load(path)

    def test_non_numeric_field_is_parse_error(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-02,AA,1,2", "2020-01-02,BB,3,x"])
        with pytest.raises(ParseError, match=r"dense\.csv: line 3: could not convert"):
            self._load(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_is_validation_error(self, tmp_path, field):
        path = self._write(tmp_path, ["2020-01-02,AA,1,2", f"2020-01-02,BB,3,{field}"])
        with pytest.raises(
            ValidationError, match=r"dense\.csv: non-finite value at \(2020-01-02, BB\), line 3$"
        ):
            self._load(path)

    def test_short_row_is_parse_error_not_broadcast(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-02,AA,1.0"])
        with pytest.raises(ParseError, match=r"dense\.csv: line 2: expected 4 fields, got 3"):
            self._load(path)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("")
        with pytest.raises(ParseError, match=r"dense\.csv: line 1: empty file"):
            self._load(str(path))


class TestValidationSuite:
    @pytest.mark.parametrize("masked", [frozenset(), frozenset({"risk"})])
    def test_ic_csv_matches_each_pair_alone(self, tmp_path, monkeypatch, masked):
        # a masked axis is constant: its row carries the error text instead
        cfg = ExperimentConfig.from_dict(config_dict("validation_suite", tmp_path / "out"))
        ws = experiments.load_workspace(cfg)
        ws = dataclasses.replace(ws, signals=mask_axes(ws.signals, masked))
        monkeypatch.setattr(experiments, "load_workspace", lambda cfg: ws)
        run(cfg)
        sig = ws.signals.slice_dates(*cfg.test)
        y = ws.returns_fwd[date_span(ws.panel.dates, *cfg.test)]
        assert not np.isfinite(y).all()  # the pairs drop cells
        want = []
        for a, axis in enumerate(AXES):
            try:
                r1 = spearman_ic(sig.values[:, :, a], y)
                r2 = spearman_ic(sig.values[:, :, a], np.abs(y))
                cells = [r1.statistic, r1.p_value, r2.statistic, r2.p_value]
                want.append([axis, *[f"{v:.6f}" for v in cells]])
            except LabError as exc:
                want.append([axis, "nan", "nan", "nan", str(exc)])
        got = [list(row.values()) for row in read_rows(tmp_path / "out" / "ic.csv")]
        assert got == want
        assert [row[-1] for row in got if row[1] == "nan"] == (
            ["correlation undefined for constant input"] if masked else [])


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        for kind in ("sfp", "baselines", "env_eval"):
            params = {"n_seeds": 2} if kind == "env_eval" else {"k": 3}
            out_a = tmp_path / f"{kind}_a"
            out_b = tmp_path / f"{kind}_b"
            run(ExperimentConfig.from_dict(config_dict(kind, out_a, params=params)))
            run(ExperimentConfig.from_dict(config_dict(kind, out_b, params=params)))
            files_a = sorted(os.listdir(out_a))
            assert files_a == sorted(os.listdir(out_b))
            for name in files_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_a_price_panel_without_a_signal_cache_gives_neutral_signals(self, tmp_path):
        # README: "without it every signal is neutral"
        market, _, _ = synth_panel(SyntheticSpec.from_dict(SYNTH))
        write_price_panel(market, str(tmp_path / "prices.csv"))
        raw = config_dict("sfp", tmp_path / "x")
        raw["data"] = {"price_panel": str(tmp_path / "prices.csv")}
        ws = experiments.load_workspace(ExperimentConfig.from_dict(raw))
        signals = ws.signals
        assert (signals.dates, signals.tickers) == (ws.panel.dates, ws.panel.tickers)
        assert signals.values.shape == (ws.panel.n_dates, ws.panel.n_tickers, 4)
        assert np.all(signals.values == 3.0) and not signals.non_neutral.any()
        assert sorted(ws.input_hashes) == ["panel", "price_panel", "signal_panel"]

    def test_workspace_is_read_only(self, tmp_path):
        # no runner may change what a later study on the same inputs sees
        ws = experiments.load_workspace(ExperimentConfig.from_dict(config_dict("sfp", tmp_path)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ws.returns_fwd = np.zeros_like(ws.returns_fwd)
        with pytest.raises(ValueError, match="read-only"):
            ws.returns_fwd[0, 0] = 0.0


class TestEnvEvalRollouts:
    """A deterministic policy is rolled out once per mask, and every seed row
    repeats that rollout; a seeded policy is rolled out once per seed."""

    @staticmethod
    def _run(outdir, policy):
        params = {"policy": policy, "n_seeds": 3, "masks": [None, "ALL"]}
        run(ExperimentConfig.from_dict(config_dict("env_eval", outdir, params=params)))
        return {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))}

    @pytest.mark.parametrize("policy, cls", [
        ("signal_threshold", SignalThresholdPolicy), ("hold", HoldPolicy),
    ])
    def test_artifacts_match_one_rollout_per_seed(self, tmp_path, monkeypatch, policy, cls):
        once = self._run(tmp_path / "once", policy)
        monkeypatch.setattr(cls, "deterministic", False)
        per_seed = self._run(tmp_path / "per_seed", policy)
        assert sorted(once) == sorted(per_seed)
        for name in once:
            assert once[name] == per_seed[name], name

    @pytest.mark.parametrize("policy, seeds", [
        ("signal_threshold", [7, 7]), ("hold", [7, 7]), ("uniform_random", [7, 8, 9] * 2),
    ])
    def test_rollout_count(self, tmp_path, monkeypatch, policy, seeds):
        seen = []

        def counting(*args, **kwargs):
            seen.append(kwargs["seed"])
            return run_policy(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_policy", counting)
        self._run(tmp_path / policy, policy)
        assert seen == seeds  # config seed 7; one call per (mask, seed) rolled out

    @pytest.mark.parametrize("masks, same_as, episode", [
        ([[]], [None], "episode_none.csv"),
        ([["risk", "risk"]], [["risk"]], "episode_risk.csv"),
    ])
    def test_mask_is_labelled_and_run_by_its_axis_set(self, tmp_path, masks, same_as, episode):
        def artifacts(outdir, masks):
            params = {"n_seeds": 1, "masks": masks}
            run(ExperimentConfig.from_dict(config_dict("env_eval", outdir, params=params)))
            return {name: (outdir / name).read_bytes()
                    for name in os.listdir(outdir) if name != "manifest.json"}

        given = artifacts(tmp_path / "given", masks)
        assert episode in given
        assert given == artifacts(tmp_path / "same", same_as)


class TestValidateInputs:
    def _write_fixture(self, tmp_path, drop_date=False, bad_score=False):
        prices = tmp_path / "prices.csv"
        lines = ["date,ticker,open,high,low,close,volume"]
        for d in ("2020-01-02", "2020-01-03", "2020-01-06"):
            for t in ("AA", "BB"):
                if drop_date and (d, t) == ("2020-01-03", "BB"):
                    continue
                lines.append(f"{d},{t},10,11,9,10,100")
        prices.write_text("\n".join(lines) + "\n")
        cache = tmp_path / "signals.csv"
        score = 6 if bad_score else 4
        cache.write_text(
            "source_id,ticker,date,sentiment,risk,confidence,volatility_forecast\n"
            f"s1,AA,2020-01-02,{score},3,3,3\n"
        )
        return str(prices), str(cache)

    def test_valid_fixture_passes(self, tmp_path):
        prices, cache = self._write_fixture(tmp_path)
        report = validate_inputs(price_panel=prices, signal_cache=cache)
        assert report.ok
        assert "price_panel_content" in report.hashes

    def test_score_out_of_range_reported(self, tmp_path):
        prices, cache = self._write_fixture(tmp_path, bad_score=True)
        report = validate_inputs(price_panel=prices, signal_cache=cache)
        assert not report.ok
        failing = [c for c in report.checks if not c["passed"]]
        assert any("signal_cache" == c["name"] for c in failing)

    def test_misaligned_calendar_detected(self, tmp_path):
        prices, cache = self._write_fixture(tmp_path, drop_date=True)
        report = validate_inputs(price_panel=prices, signal_cache=cache)
        assert not report.ok
        detail = [c for c in report.checks if c["name"] == "price_panel"][0]["detail"]
        assert "BB missing 2020-01-03" in detail

    def test_never_raises_on_missing_file(self, tmp_path):
        report = validate_inputs(price_panel=str(tmp_path / "absent.csv"))
        assert not report.ok


class TestCli:
    def test_synth_command_writes_files(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"tickers": 3, "days": 40, "seed": 5}))
        out = tmp_path / "out"
        code = cli_main(["synth", str(spec), "11", "--out", str(out)])
        assert code == 0
        assert (out / "prices.csv").exists()
        assert (out / "signals.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert truth["seed"] == 11

    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_synth_negative_seed_exits_1_before_writing(self, tmp_path, capsys, seed):
        # numpy's generator refused it with a traceback
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"tickers": 3, "days": 40}))
        assert cli_main(["synth", str(spec), seed, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_synth_articles_match_per_cell_scan(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"tickers": 4, "days": 30, "seed": 5, "coverage": 0.5}))
        assert cli_main(["synth", str(spec), "3", "--out", str(tmp_path / "out")]) == 0
        _, signals, _ = synth_panel(SyntheticSpec.from_file(str(spec)), seed=3)
        expected = [
            (f"synth-{i}-{j}", t, d, *(int(v) for v in signals.values[i, j]))
            for i, d in enumerate(signals.dates) for j, t in enumerate(signals.tickers)
            if signals.non_neutral[i, j]
        ]
        articles = load_article_scores(str(tmp_path / "out" / "signals.csv"))
        assert list(zip(articles.source_ids, articles.tickers, articles.dates,
                        *articles.scores.T.tolist())) == expected

    def test_run_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict("baselines", tmp_path / "art")))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "art" / "report.csv").exists()

    def test_run_bad_config_exit_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "nope"}))
        assert cli_main(["run", str(cfg_path)]) == 1

    def test_run_missing_data_exit_2(self, tmp_path):
        raw = config_dict("sfp", tmp_path / "x")
        raw["data"] = {"price_panel": str(tmp_path / "none.csv")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg_path)]) == 2

    @pytest.mark.parametrize("kind", ["sfp", "subperiod"])
    def test_run_refuses_a_wealth_path_at_or_below_zero(self, tmp_path, capsys, kind):
        # a cost of half the notional per trade drives the basket's wealth below zero
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            config_dict(kind, tmp_path / "art", params={"cost_rate": 0.5})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "implies non-positive wealth" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    def test_validate_a_missing_path_fails_with_a_data_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert cli_main(["validate", str(missing)]) == EXIT_DATA
        assert capsys.readouterr().out == f"[FAIL] {missing}: no such file\n"

    def test_run_hashes_a_synthetic_spec_given_as_a_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYNTH, indent=2))
        manifests = []
        for name, synthetic in (("file", str(spec)), ("inline", SYNTH)):
            raw = config_dict("baselines", tmp_path / name)
            raw["data"] = {"synthetic": synthetic}
            (tmp_path / "cfg.json").write_text(json.dumps(raw))
            assert cli_main(["run", str(tmp_path / "cfg.json")]) == 0
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        from_file, inline = (m["input_hashes"] for m in manifests)
        assert from_file["synthetic_spec"] == hashlib.sha256(spec.read_bytes()).hexdigest()
        assert from_file["synthetic_spec"] != inline["synthetic_spec"]
        assert from_file["panel"] == inline["panel"]
        assert from_file["signal_panel"] == inline["signal_panel"]

    def test_validate_command(self, tmp_path):
        prices = tmp_path / "prices.csv"
        lines = ["date,ticker,open,high,low,close,volume"]
        for d in ("2020-01-02", "2020-01-03"):
            lines.append(f"{d},AA,10,11,9,10,100")
        prices.write_text("\n".join(lines) + "\n")
        assert cli_main(["validate", str(prices)]) == 0

    def test_synth_round_trips_through_run(self, tmp_path):
        # artifacts written by synth feed straight back into an experiment
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"tickers": 6, "days": 420, "seed": 5, "coverage": 0.5,
             "beta": [0.004, 0, 0, 0]}
        ))
        out = tmp_path / "data"
        assert cli_main(["synth", str(spec), "5", "--out", str(out)]) == 0
        raw = config_dict("sfp", tmp_path / "art2", params={"k": 2, "window": 0})
        raw["data"] = {
            "price_panel": str(out / "prices.csv"),
            "signal_cache": str(out / "signals.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg_path)]) == 0
