import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlab import ExperimentConfig, SyntheticSpec, synth_panel
from semlab.cli import main as cli_main
from semlab.errors import ConfigError, ValidationError
from semlab.panels import forward_returns
from semlab.stats import spearman_ic

import scalar_synth


def _ols_with_se(X, y):
    """Independent least-squares oracle with coefficient standard errors."""
    n = X.shape[0]
    Xa = np.column_stack([X, np.ones(n)])
    coef, *_ = np.linalg.lstsq(Xa, y, rcond=None)
    resid = y - Xa @ coef
    dof = n - Xa.shape[1]
    cov = (resid @ resid / dof) * np.linalg.inv(Xa.T @ Xa)
    return coef[:-1], np.sqrt(np.diag(cov))[:-1]


def test_same_seed_is_bit_identical():
    spec = SyntheticSpec(tickers=6, days=120, seed=99)
    m1, s1, _ = synth_panel(spec)
    m2, s2, _ = synth_panel(spec)
    np.testing.assert_array_equal(m1.close, m2.close)
    np.testing.assert_array_equal(m1.high, m2.high)
    np.testing.assert_array_equal(s1.values, s2.values)
    np.testing.assert_array_equal(s1.non_neutral, s2.non_neutral)
    m3, _, _ = synth_panel(spec, seed=100)
    assert not np.array_equal(m1.close, m3.close)


def test_coverage_fraction_validated():
    with pytest.raises(ValidationError, match="coverage"):
        SyntheticSpec(tickers=3, days=50, coverage=1.2)


@pytest.mark.parametrize("start", ["2015/01/02", "2015-13-45", "2015", "2015-01-03T00"])
def test_start_date_validated(start):
    with pytest.raises(ValidationError, match=f"start_date '{start}' is not a date"):
        SyntheticSpec(tickers=3, days=50, start_date=start)


@pytest.mark.parametrize("start", ["2016-01-02", "2016-01-03", "2016-01-04"])
def test_a_weekend_start_rolls_to_the_monday(start):
    market, signals, _ = synth_panel(SyntheticSpec(tickers=2, days=6, start_date=start))
    want = ("2016-01-04", "2016-01-05", "2016-01-06", "2016-01-07", "2016-01-08", "2016-01-11")
    assert market.dates == signals.dates == want
    assert all(type(d) is str for d in market.dates)


def test_planted_truth_recovery_within_three_se():
    # least squares on 10k stock-days recovers the planted coefficients
    spec = SyntheticSpec(
        tickers=20, days=505, coverage=0.5,
        beta=(0.004, 0.002, 0.0, -0.003), seed=42,
    )
    panel, signals, truth = synth_panel(spec)
    fwd = forward_returns(panel, truth.horizon)
    mask = np.isfinite(fwd)
    assert mask.sum() == 10000
    coef, se = _ols_with_se(signals.deviations[mask], fwd[mask])
    z = (coef - np.asarray(truth.beta)) / se
    assert np.all(np.abs(z) < 3.0)


def test_null_model_has_no_ic():
    spec = SyntheticSpec(tickers=20, days=505, coverage=1.0, beta=(0, 0, 0, 0), seed=7)
    panel, signals, _ = synth_panel(spec)
    fwd = forward_returns(panel, 5)
    mask = np.isfinite(fwd) & signals.non_neutral
    res = spearman_ic(signals.deviations[:, :, 0][mask], fwd[mask])
    assert abs(res.statistic) < 0.03


def test_planted_axis_has_significant_ic():
    spec = SyntheticSpec(tickers=20, days=505, coverage=1.0, beta=(0.002, 0, 0, 0), seed=7)
    panel, signals, _ = synth_panel(spec)
    fwd = forward_returns(panel, 5)
    mask = np.isfinite(fwd) & signals.non_neutral
    assert mask.sum() >= 10000
    res = spearman_ic(signals.deviations[:, :, 0][mask], fwd[mask])
    assert res.statistic > 0.0
    assert res.p_value < 0.01


def test_beta_tickers_limit_the_effect():
    tickers = tuple(f"S{i}" for i in range(10))
    spec = SyntheticSpec(
        tickers=tickers, days=700, coverage=0.8,
        beta=(0.01, 0, 0, 0), beta_tickers=tickers[:5], seed=5,
    )
    panel, signals, truth = synth_panel(spec)
    assert truth.beta_tickers == tickers[:5]
    fwd = forward_returns(panel, 5)
    mask = np.isfinite(fwd) & signals.non_neutral
    planted = spearman_ic(
        signals.deviations[:, :5, 0][mask[:, :5]], fwd[:, :5][mask[:, :5]]
    )
    clean = spearman_ic(
        signals.deviations[:, 5:, 0][mask[:, 5:]], fwd[:, 5:][mask[:, 5:]]
    )
    assert planted.statistic > 0.1
    assert abs(clean.statistic) < 0.05


def test_spec_from_file_round_trip(tmp_path):
    raw = {
        "tickers": 4, "days": 60, "coverage": 0.3,
        "beta": [0.001, 0, 0, 0], "seed": 17, "start_date": "2018-01-02",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    spec = SyntheticSpec.from_file(str(path))
    assert spec.days == 60
    assert spec.tickers == tuple(f"SYN{i:02d}" for i in range(4))
    panel, signals, _ = synth_panel(spec)
    assert panel.dates[0] == "2018-01-02"
    assert signals.values.min() >= 1.0 and signals.values.max() <= 5.0


def test_unknown_spec_keys_rejected(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"days": 10, "volatilty": 0.1}))
    with pytest.raises(ConfigError, match="'volatilty' \\(did you mean 'volatility'\\?\\)"):
        SyntheticSpec.from_file(str(path))


def test_panel_has_usable_ohlc():
    spec = SyntheticSpec(tickers=5, days=100, seed=3)
    panel, _, _ = synth_panel(spec)
    assert np.all(panel.high >= panel.close)
    assert np.all(panel.low <= panel.close)
    assert np.all(panel.low > 0)
    assert np.all(panel.high >= panel.open)
    assert np.all(panel.low <= panel.open)


# the inline spec the factor_studies benchmark workload sends
BENCH_SPEC = {"tickers": 100, "days": 2500, "start_date": "2015-01-02", "coverage": 0.35,
              "beta": [0.0025, 0.0, 0.0, 0.0], "seed": 4}


@pytest.mark.parametrize("spec, message", [
    ({"tickers": 4, "days": "300"}, "synthetic-spec key 'days' must be int, got '300'"),
    ({"tickers": 4, "days": 300, "sed": 3},
     "unknown synthetic-spec key 'sed' (did you mean 'seed'?)"),
    ({"tickers": "ABC", "days": 300}, "synthetic-spec key 'tickers' must be int or a list of str, got 'ABC'"),
    ({"days": 300, "beta": [0.1, "x", 0, 0]}, "synthetic-spec key 'beta' must be a list of float, got"),
    ({"days": 300, "start_date": 20150102}, "synthetic-spec key 'start_date' must be str"),
    ({"tickers": 4}, "synthetic spec needs a 'days' field"),
    ({"tickers": ["A", "A"], "days": 50}, "duplicate ticker 'A' in synthetic spec"),
    ({"tickers": 4, "days": 300, "seed": -1}, "seed must be >= 0, got -1"),
    # JSON integers have no size limit; these once ended in a traceback
    ({"tickers": 4, "days": 10**20},
     "synthetic-spec key 'days' must fit in a signed 64-bit integer, got an integer of 67 bits"),
    ({"tickers": 4, "days": 300, "seed": 2**63},
     "synthetic-spec key 'seed' must fit in a signed 64-bit integer, got an integer of 64 bits"),
    ({"tickers": 4, "days": 300, "initial_price": 10**400},
     "synthetic-spec key 'initial_price' must fit in a float, got an integer of 1329 bits"),
    ({"tickers": 4, "days": 300, "volatility": 10**400},
     "synthetic-spec key 'volatility' must fit in a float"),
    ({"tickers": 4, "days": 300, "beta": [0, 10**400, 0, 0]},
     "synthetic-spec key 'beta' must fit in a float"),
])
def test_spec_fault_is_a_config_error_naming_the_key(tmp_path, capsys, spec, message):
    with pytest.raises(ConfigError) as info:
        SyntheticSpec.from_dict(spec)
    assert str(info.value).startswith(message)
    # an inline spec fails when the config is read, before any data is made
    raw = {"kind": "baselines", "seed": 1, "output_dir": str(tmp_path / "out"),
           "data": {"synthetic": spec}, "ranges": {"test": ["2015-06-01", "2015-12-31"]}}
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["synth", str(path), "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message)
    assert not (tmp_path / "o").exists()
    # a spec file is read when the run starts; a broken rule once exited 2 here
    raw["data"]["synthetic"] = str(path)
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert cli_main(["run", str(tmp_path / "cfg.json")]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message)
    assert not (tmp_path / "out").exists()


def test_every_spec_form_in_use_still_loads():
    assert SyntheticSpec.from_dict(BENCH_SPEC) == SyntheticSpec(
        tickers=100, days=2500, start_date="2015-01-02", coverage=0.35,
        beta=(0.0025, 0.0, 0.0, 0.0), seed=4)
    spec = SyntheticSpec.from_dict({
        "tickers": ["AA", "BB"], "days": 10, "drift": None, "volatility": [0.01, 2],
        "coverage": 1, "beta_tickers": ["BB"], "horizon": 3, "initial_price": 50, "seed": 0})
    assert spec.tickers == ("AA", "BB") and spec.beta_tickers == ("BB",)
    assert spec.volatility == (0.01, 2.0) and spec.coverage == (1.0, 1.0)
    assert SyntheticSpec.from_dict({"days": 10}).tickers == tuple(f"SYN{i:02d}" for i in range(10))


@pytest.mark.parametrize("kwargs, message", [
    ({"drift": float("nan")}, "drift must be finite, got nan"),
    ({"drift": [0.0, 0.1, float("-inf")]}, "drift must be finite, got -inf"),
    ({"volatility": float("nan")}, "volatility must be positive and finite, got nan"),
    ({"volatility": [0.01, float("inf"), 0.01]}, "volatility must be positive and finite, got inf"),
    ({"volatility": 0.0}, "volatility must be positive and finite, got 0.0"),
    ({"initial_price": float("nan")}, "initial_price must be positive and finite, got nan"),
    ({"initial_price": float("inf")}, "initial_price must be positive and finite, got inf"),
    ({"initial_price": 0}, "initial_price must be positive and finite, got 0"),
    ({"initial_price": -5.0}, "initial_price must be positive and finite, got -5.0"),
    ({"beta": (0.0, float("nan"), 0.0, 0.0)}, "beta must be finite, got nan"),
    ({"tickers": ("A", "B", "A")}, "duplicate ticker 'A' in synthetic spec"),
])
def test_non_finite_or_non_positive_spec_value_names_its_key(kwargs, message):
    # each once failed only later, in synth_panel: most as a non-finite or
    # non-positive close, a repeated ticker after all the draws
    with pytest.raises(ValidationError, match=re.escape(message)):
        SyntheticSpec(**{"tickers": 3, "days": 50, **kwargs})


def test_nan_literal_in_a_spec_file_names_its_key(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"tickers": 3, "days": 50, "drift": NaN}')
    with pytest.raises(ConfigError, match="drift must be finite, got nan"):
        SyntheticSpec.from_file(str(path))


@st.composite
def synthetic_specs(draw):
    """Specs over the generator's edges: one ticker, two days, a horizon past
    the last day, coverage 0 and 1, zero drift, planted subsets and start
    dates on a weekend."""
    n_t = draw(st.integers(1, 12))
    tickers = tuple(f"T{j}" for j in range(n_t))

    def scalar_or_per_ticker(values):
        one = st.sampled_from(values) | st.floats(min(values), max(values))
        return draw(one | st.lists(one, min_size=n_t, max_size=n_t))

    subset = st.lists(st.sampled_from(tickers), unique=True).map(tuple)
    return SyntheticSpec(
        tickers=tickers,
        days=draw(st.integers(2, 60)),
        # the default Friday, the Saturday and Sunday after it, and any day of a decade
        start_date=draw(st.sampled_from(("2015-01-02", "2015-01-03", "2015-01-04"))
                        | st.integers(0, 3652).map(lambda n: str(np.datetime64("2015-01-01") + n))),
        coverage=scalar_or_per_ticker((0.0, 1.0)),
        volatility=scalar_or_per_ticker((0.001, 1.0)),
        drift=scalar_or_per_ticker((-1.0, 0.0, 1.0)),
        beta=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))),
        beta_tickers=draw(st.none() | subset),
        horizon=draw(st.integers(1, 9)),
        seed=draw(st.integers(0, 2**63)),
    )


@given(synthetic_specs())
def test_generator_matches_the_scalar_oracle_bit_for_bit(spec):
    market, signals, truth = synth_panel(spec)
    want_market, want_signals, want_truth = scalar_synth.synth_panel(spec)
    assert truth == want_truth
    assert market.content_hash() == want_market.content_hash()
    assert signals.content_hash() == want_signals.content_hash()
    for name in ("open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(market, name), getattr(want_market, name)), name
    assert np.array_equal(signals.values, want_signals.values)
    assert np.array_equal(signals.non_neutral, want_signals.non_neutral)
