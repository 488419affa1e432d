import json
import os

import numpy as np
import pytest

from semlab import ExperimentConfig, run, validate_inputs
from semlab.cli import main as cli_main
from semlab.errors import AlignmentError, ConfigError, ParseError
from semlab.experiments import KINDS, _load_dense_block

from conftest import business_days


CAL = business_days("2015-01-02", 420)

SYNTH = {
    "tickers": 8, "days": 420, "coverage": 0.4,
    "beta": [0.005, 0, 0, 0], "volatility": 0.015, "seed": 99,
}


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
        "params": {"k": 3, **(params or {})},
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
            params = {"k": 3}
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
            params = {"k": 3}
            if kind == "env_eval":
                params.update(n_seeds=2)
            out_a = tmp_path / f"{kind}_a"
            out_b = tmp_path / f"{kind}_b"
            run(ExperimentConfig.from_dict(config_dict(kind, out_a, params=params)))
            run(ExperimentConfig.from_dict(config_dict(kind, out_b, params=params)))
            files_a = sorted(os.listdir(out_a))
            assert files_a == sorted(os.listdir(out_b))
            for name in files_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


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
