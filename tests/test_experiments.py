import json
import os
import re

import numpy as np
import pytest

from semlab import (
    BacktestConfig,
    ExperimentConfig,
    SyntheticSpec,
    baseline,
    experiments,
    mann_whitney_u,
    metrics,
    run,
    synth_panel,
    validate_inputs,
)
from semlab.cli import main as cli_main
from semlab.errors import AlignmentError, ConfigError, ParseError, ValidationError
from semlab.env import HoldPolicy, SignalThresholdPolicy, run_policy
from semlab.experiments import _KINDS, KINDS, _load_dense_block
from semlab.signals import AXES, load_article_scores

from conftest import business_days, read_rows, study_config


CAL = business_days("2015-01-02", 420)

SYNTH = {
    "tickers": 8, "days": 420, "coverage": 0.4,
    "beta": [0.005, 0, 0, 0], "volatility": 0.015, "seed": 99,
}


# kinds that take no basket size k: no top-k basket, or one sized per tercile
UNRANKED = ("env_eval", "validation_suite", "stratified")


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

    @pytest.mark.parametrize("universe", ["SYN01", ["SYN01", 2], {"SYN01": 1}])
    def test_universe_not_a_ticker_list_fails_before_data_is_read(self, tmp_path, universe):
        # a string would otherwise become the tuple of its characters
        raw = config_dict("baselines", tmp_path / "out")
        raw["data"] = {"price_panel": str(tmp_path / "missing.csv")}
        raw["universe"] = universe
        with pytest.raises(ConfigError, match=r"universe must be a list of tickers, got "):
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

    def test_readme_table_matches_registry(self):
        """The README's param and kind tables name exactly what ``_KINDS`` declares."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()

        def table(header):
            rows = text.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
            return [[c.strip() for c in row.strip("|").split("|")] for row in rows]

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

    def test_full_grid_loads_and_outside_rows_are_skipped(self, tmp_path):
        path = self._write(tmp_path, [
            "2020-01-02,AA,1,2", "2020-01-02,BB,3,4",
            "2020-01-03,AA,5,6", "2020-01-03,BB,7,8",
            "2020-01-03,ZZ,9,9",  # ticker outside the workspace universe
            "2019-12-31,AA,9,9",  # date outside the workspace calendar
        ])
        arr = _load_dense_block(path, self.DATES, self.TICKERS)
        np.testing.assert_array_equal(arr, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])

    def test_missing_cell_is_alignment_error(self, tmp_path):
        path = self._write(tmp_path, [
            "2020-01-02,AA,1,2", "2020-01-02,BB,3,4", "2020-01-03,AA,5,6",
        ])
        with pytest.raises(AlignmentError, match=r"calendar gaps: BB missing 2020-01-03$"):
            _load_dense_block(path, self.DATES, self.TICKERS)

    def test_non_numeric_field_is_parse_error(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-02,AA,1,2", "2020-01-02,BB,3,x"])
        with pytest.raises(ParseError, match=r"dense\.csv: line 3: could not convert"):
            _load_dense_block(path, self.DATES, self.TICKERS)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_is_validation_error(self, tmp_path, field):
        path = self._write(tmp_path, ["2020-01-02,AA,1,2", f"2020-01-02,BB,3,{field}"])
        with pytest.raises(
            ValidationError, match=r"dense\.csv: non-finite value at \(2020-01-02, BB\), line 3$"
        ):
            _load_dense_block(path, self.DATES, self.TICKERS)

    def test_short_row_is_parse_error_not_broadcast(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-02,AA,1.0"])
        with pytest.raises(ParseError, match=r"dense\.csv: line 2: expected 4 fields, got 3"):
            _load_dense_block(path, self.DATES, self.TICKERS)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("")
        with pytest.raises(ParseError, match=r"dense\.csv: line 1: empty file"):
            _load_dense_block(str(path), self.DATES, self.TICKERS)


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
