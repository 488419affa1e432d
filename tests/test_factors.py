import numpy as np
import pytest

from semlab import (
    AXES,
    BacktestConfig,
    CompositeScore,
    FactorModel,
    backtest_topk,
    composite,
    fit_equal_weight_composite,
    fit_forecaster,
    fit_pc1_composite,
    fit_ridge,
    fit_sfp,
    fit_srf,
    scw_weights,
    select_temperature,
    synth_panel,
    SyntheticSpec,
)
from semlab.errors import (
    AlignmentError,
    ConfigError,
    DegenerateFitError,
    LeakageError,
    NumericalError,
    RankError,
    ValidationError,
)
from semlab.metrics import sharpe_ratio
from semlab.panels import forward_returns
from semlab.stats import spearman_ic

from conftest import make_panel, make_signal_panel


def ridge_oracle(X, y, lam, fit_intercept=True):
    """Direct augmented normal-equation solve, independent of the implementation."""
    n, p = X.shape
    if fit_intercept:
        Xa = np.column_stack([X, np.ones(n)])
        P = np.diag([lam] * p + [0.0])
    else:
        Xa = X
        P = lam * np.eye(p)
    sol = np.linalg.solve(Xa.T @ Xa + P, Xa.T @ y)
    return (sol[:p], float(sol[p])) if fit_intercept else (sol, 0.0)


class TestFitRidge:
    def test_two_point_exact_fit(self):
        w, b = fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), lam=0.0)
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_large_lambda_shrinks_to_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40) + 2.0
        w, b = fit_ridge(X, y, lam=1e12)
        assert np.max(np.abs(w)) < 1e-9
        assert b == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            n, p = 50, 3
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            lam = float(rng.uniform(0.0, 2.0))
            w, b = fit_ridge(X, y, lam=lam)
            w0, b0 = ridge_oracle(X, y, lam)
            np.testing.assert_allclose(w, w0, atol=1e-9, rtol=0)
            assert b == pytest.approx(b0, abs=1e-9)

    def test_collinear_at_zero_lambda_names_columns(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30)
        X = np.column_stack([a, 2.0 * a, rng.normal(size=30)])
        with pytest.raises(RankError, match="beta|column"):
            fit_ridge(X, np.arange(30.0), lam=0.0,
                      feature_names=("alpha", "beta", "gamma"))

    def test_rank_error_names_the_dependent_column(self):
        # a + b depends on the two columns before it; c does not
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=(3, 30))
        X = np.column_stack([a, b, a + b, c])
        with pytest.raises(RankError, match=r"collinear columns at lam=0: \['sum'\]$"):
            fit_ridge(X, np.arange(30.0), lam=0.0, feature_names=("a", "b", "sum", "c"))
        with pytest.raises(RankError, match=r"collinear columns at lam=0: \['column 2'\]$"):
            fit_ridge(X, np.arange(30.0), lam=0.0)

    def test_shrinkage_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        norms = []
        for lam in (0.0, 0.01, 0.1, 1.0, 10.0):
            w, _ = fit_ridge(X, y, lam=lam)
            norms.append(np.linalg.norm(w))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_shape_preconditions(self):
        with pytest.raises(ValidationError):
            fit_ridge(np.ones((2, 3)), np.ones(2), lam=1.0)  # n < p
        with pytest.raises(ValidationError):
            fit_ridge(np.ones((3, 1)), np.ones(3), lam=-1.0)


def _panel_with_returns(n_days=80, n_tickers=4, seed=0, coverage=1.0):
    rng = np.random.default_rng(seed)
    flags = rng.random((n_days, n_tickers)) < coverage
    values = np.where(
        flags[:, :, None],
        rng.integers(1, 6, size=(n_days, n_tickers, 4)).astype(float),
        3.0,
    )
    panel = make_signal_panel(values, flags)
    return panel


class TestFitSfp:
    def test_recovers_planted_identity(self):
        # forward returns equal to the sentiment deviation give w ~ (1,0,0,0)
        panel = _panel_with_returns(n_days=200, n_tickers=5, seed=4)
        y = panel.deviations[:, :, 0].copy()
        model = fit_sfp(panel, y, (panel.dates[0], panel.dates[-1]), lam=1e-3)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-3)
        assert np.max(np.abs(model.weights[1:])) < 1e-2

    def test_all_neutral_panel_degenerate(self):
        values = np.full((60, 3, 4), 3.0)
        panel = make_signal_panel(values, np.zeros((60, 3), dtype=bool))
        y = np.zeros((60, 3))
        with pytest.raises(DegenerateFitError):
            fit_sfp(panel, y, (panel.dates[0], panel.dates[-1]))

    def test_sentiment_only_variant(self):
        panel = _panel_with_returns(seed=5)
        y = 0.5 * panel.deviations[:, :, 0]
        model = fit_sfp(panel, y, (panel.dates[0], panel.dates[-1]),
                        axes=("sentiment",))
        assert model.feature_names == ("sentiment",)
        assert model.weights.shape == (1,)
        assert model.weights[0] == pytest.approx(0.5, abs=1e-3)

    def test_min_stock_days_enforced(self):
        panel = _panel_with_returns(n_days=10, n_tickers=2, seed=6)
        with pytest.raises(ValidationError, match="stock-days"):
            fit_sfp(panel, np.zeros((10, 2)), (panel.dates[0], panel.dates[-1]))

    @pytest.mark.parametrize("shape", [(9, 2), (10, 1), (10, 3)])
    def test_targets_off_the_panel_grid_rejected(self, shape):
        # at (10, 1) the fit used to drop the second ticker without a word
        panel = _panel_with_returns(n_days=10, n_tickers=2, seed=6)
        for fit in (fit_sfp, fit_srf):
            with pytest.raises(ValidationError, match=rf"targets have shape \({shape[0]}, "
                                                      rf"{shape[1]}\), expected \(10, 2\)"):
                fit(panel, np.zeros(shape), (panel.dates[0], panel.dates[-1]), min_stock_days=1)


class TestFitSrf:
    def test_exact_collinearity_absorbed(self):
        # risk = 2 * sentiment on every stock-day: the risk residual vanishes
        # and its ridge weight collapses to zero
        rng = np.random.default_rng(7)
        n_d, n_t = 120, 3
        sent = rng.integers(1, 3, size=(n_d, n_t)).astype(float)  # 1 or 2
        values = np.stack(
            [sent, 2.0 * sent, rng.integers(1, 6, (n_d, n_t)).astype(float),
             rng.integers(1, 6, (n_d, n_t)).astype(float)], axis=-1,
        )
        panel = make_signal_panel(values, np.ones((n_d, n_t), dtype=bool))
        y = rng.normal(0, 0.01, size=(n_d, n_t))
        resid, model = fit_srf(panel, y, (panel.dates[0], panel.dates[-1]))
        a, b = resid.params["risk"]
        assert b == pytest.approx(2.0, abs=1e-10)
        assert a == pytest.approx(0.0, abs=1e-9)
        k = model.feature_names.index("resid:risk")
        assert abs(model.weights[k]) < 1e-9

    def test_training_residuals_zero_mean_and_orthogonal(self):
        panel = _panel_with_returns(n_days=150, n_tickers=4, seed=8)
        y = np.zeros((150, 4))
        resid, _ = fit_srf(panel, y, (panel.dates[0], panel.dates[-1]))
        sent = panel.axis("sentiment").ravel()
        for axis in AXES[1:]:
            eps = resid.residuals(panel, axis).ravel()
            assert abs(eps.mean()) < 1e-10
            assert abs(eps @ sent) / len(eps) < 1e-8

    def test_independent_axes_match_sfp(self):
        panel = _panel_with_returns(n_days=600, n_tickers=8, seed=9)
        rng = np.random.default_rng(10)
        y = panel.deviations @ np.array([0.01, 0.005, 0.0, -0.01])
        y = y + rng.normal(0, 0.001, size=y.shape)
        rng_range = (panel.dates[0], panel.dates[-1])
        resid, srf_model = fit_srf(panel, y, rng_range)
        sfp_model = fit_sfp(panel, y, rng_range)
        for axis in AXES[1:]:
            assert abs(resid.params[axis][1]) < 0.05  # slopes near zero
        np.testing.assert_allclose(
            srf_model.weights[1:], sfp_model.weights[1:], atol=5e-3
        )

    def test_near_constant_sentiment_breaks_residual_mean(self):
        # sentiment one ulp apart: the slope blows up and the training
        # residuals lose their zero mean, which raises rather than asserts
        rng = np.random.default_rng(0)
        values = rng.integers(1, 6, size=(60, 5, 4)).astype(float)
        values[:, :, 0] = np.where(rng.random((60, 5)) < 0.5, 3.0, np.nextafter(3.0, 4.0))
        panel = make_signal_panel(values, np.ones((60, 5), dtype=bool))
        y = rng.normal(0, 0.01, size=(60, 5))
        with pytest.raises(NumericalError, match="residuals on sentiment"):
            fit_srf(panel, y, (panel.dates[0], panel.dates[-1]))

    def test_constant_sentiment_rejected(self):
        rng = np.random.default_rng(11)
        values = rng.integers(1, 6, size=(60, 3, 4)).astype(float)
        values[:, :, 0] = 4.0
        panel = make_signal_panel(values, np.ones((60, 3), dtype=bool))
        with pytest.raises(DegenerateFitError, match="sentiment"):
            fit_srf(panel, np.zeros((60, 3)), (panel.dates[0], panel.dates[-1]))


class TestComposite:
    def _fit_and_split(self, seed=12, n_days=120, n_tickers=4):
        panel = _panel_with_returns(n_days=n_days, n_tickers=n_tickers, seed=seed)
        mid = n_days // 2
        train = (panel.dates[0], panel.dates[mid - 1])
        test_panel = panel.slice_dates(panel.dates[mid], panel.dates[-1])
        return panel, train, test_panel

    def test_equal_weight_linearity(self):
        panel, train, test_panel = self._fit_and_split()
        model = fit_equal_weight_composite(panel, train)
        base = composite(test_panel, model)
        bumped_values = test_panel.values.copy()
        bumped_values[3, 1, 2] = min(5.0, bumped_values[3, 1, 2] + 1.0)
        delta = bumped_values[3, 1, 2] - test_panel.values[3, 1, 2]
        bumped = composite(
            make_signal_panel(bumped_values, test_panel.non_neutral,
                              start=test_panel.dates[0]),
            model,
        )
        expected = 0.25 * delta / model.standardizer_std[2]
        assert bumped.values[3, 1] - base.values[3, 1] == pytest.approx(expected, abs=1e-12)

    def test_pc1_near_equal_loadings_tracks_equal_weight(self):
        # one common factor drives all four axes, so the leading component is
        # near equal-weighted and the two composites rank almost identically
        rng = np.random.default_rng(13)
        n_d, n_t = 400, 6
        g = rng.normal(size=(n_d, n_t, 1))
        values = np.clip(3.0 + 0.8 * g + 0.25 * rng.normal(size=(n_d, n_t, 4)), 1.0, 5.0)
        panel = make_signal_panel(values, np.ones((n_d, n_t), dtype=bool))
        train = (panel.dates[0], panel.dates[199])
        test_panel = panel.slice_dates(panel.dates[200], panel.dates[-1])
        pc1, _ = fit_pc1_composite(panel, train)
        ew = fit_equal_weight_composite(panel, train)
        assert np.all(np.abs(np.abs(pc1.weights) - 0.5) < 0.1)
        s1 = composite(test_panel, pc1).values.ravel()
        s2 = composite(test_panel, ew).values.ravel()
        rho = spearman_ic(s1, s2).statistic
        assert rho > 0.99

    def test_all_neutral_day_is_a_tie(self):
        panel, train, test_panel = self._fit_and_split(seed=14)
        values = test_panel.values.copy()
        values[0] = 3.0
        flags = test_panel.non_neutral.copy()
        flags[0] = False
        neutral_day = make_signal_panel(values, flags, start=test_panel.dates[0])
        model = fit_equal_weight_composite(panel, train)
        scores = composite(neutral_day, model)
        assert np.ptp(scores.values[0]) == 0.0

    def test_ranking_invariant_under_positive_scaling(self):
        panel, train, test_panel = self._fit_and_split(seed=15)
        y = panel.deviations @ np.array([0.01, 0.0, -0.005, 0.002])
        model = fit_sfp(panel, y, train, min_stock_days=50)
        scaled = FactorModel(
            feature_names=model.feature_names,
            weights=3.7 * model.weights,
            intercept=model.intercept,
            standardizer_mean=model.standardizer_mean,
            standardizer_std=model.standardizer_std,
            ridge_strength=model.ridge_strength,
            fit_range=model.fit_range,
        )
        s1 = composite(test_panel, model).values
        s2 = composite(test_panel, scaled).values
        for d in range(s1.shape[0]):
            np.testing.assert_array_equal(np.argsort(s1[d]), np.argsort(s2[d]))

    def test_leakage_guard(self):
        panel, train, _ = self._fit_and_split(seed=16)
        model = fit_equal_weight_composite(panel, train)
        with pytest.raises(LeakageError):
            composite(panel, model)  # full panel includes the fit range

    def test_restrict_unknown_ticker_is_validation_error(self):
        scores = CompositeScore(dates=("2020-01-02",), tickers=("AA", "BB"),
                                values=np.ones((1, 2)))
        assert scores.restrict(["BB"]).tickers == ("BB",)
        with pytest.raises(ValidationError, match=r"tickers not in scores: \['ZZ'\]"):
            scores.restrict(["BB", "ZZ"])

    def test_frozen_model_hash_stable_across_evaluation(self):
        panel, train, test_panel = self._fit_and_split(seed=17)
        model = fit_equal_weight_composite(panel, train)
        before = model.content_hash()
        composite(test_panel, model)
        composite(test_panel, model)
        assert model.content_hash() == before

    def test_standardizer_must_be_positive(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            FactorModel(
                feature_names=("a",), weights=np.ones(1), intercept=0.0,
                standardizer_mean=np.zeros(1), standardizer_std=np.zeros(1),
                ridge_strength=0.0, fit_range=("2020-01-01", "2020-06-01"),
            )


class TestScw:
    def test_equal_scores_equal_weights(self):
        w = scw_weights([[1.0, 1.0, 1.0], [-2.0, -2.0, -2.0]], 0.5)
        np.testing.assert_allclose(w, 1 / 3, rtol=0, atol=1e-12)

    def test_high_temperature_approaches_uniform(self):
        w = scw_weights([3.0, -1.0], 1e9)
        assert w[0] == pytest.approx(0.5, abs=1e-6)

    def test_two_name_example(self):
        w = scw_weights([1.0, 0.0], 1.0)
        e = np.e
        assert w[0] == pytest.approx(e / (e + 1), abs=1e-12)
        assert w[1] == pytest.approx(1 / (e + 1), abs=1e-12)

    def test_weights_sum_to_one_and_monotone(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            scores = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(2, 8))))
            t = float(rng.uniform(0.1, 5.0))
            w = scw_weights(scores, t)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            ordered = np.take_along_axis(w, np.argsort(scores, axis=1), axis=1)
            assert np.all(np.diff(ordered, axis=1) >= -1e-15)

    def test_shift_invariance(self):
        w1 = scw_weights([1.0, 0.0], 1.0)
        w2 = scw_weights([101.0, 100.0], 1.0)
        np.testing.assert_array_equal(w1, w2)

    def test_large_scores_do_not_overflow(self):
        w = scw_weights([[1e6, 1e6 - 1.0], [-1e6, -1e6 - 1.0]], 1e-3)
        np.testing.assert_array_equal(w, [[1.0, 0.0], [1.0, 0.0]])

    def test_each_row_is_weighted_as_it_would_be_alone(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(9, 13))
        w = scw_weights(scores, 0.7)
        for row, want in zip(scores, w):
            np.testing.assert_array_equal(scw_weights(row, 0.7), want)

    def test_preconditions(self):
        with pytest.raises(ValidationError, match="basket is empty"):
            scw_weights([], 1.0)
        with pytest.raises(ValidationError, match="basket is empty"):
            scw_weights(np.zeros((3, 0)), 1.0)
        for t in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="temperature must be positive and finite"):
                scw_weights([1.0], t)


class TestSelectTemperature:
    def test_conviction_helps_on_planted_panel(self):
        # a strong planted signal makes concentrated (lower temperature)
        # allocation beat the near-uniform extreme on validation Sharpe
        from semlab import BacktestConfig, backtest_topk, forward_returns
        from semlab.factors import TEMPERATURE_GRID
        from semlab.metrics import sharpe_ratio

        spec = SyntheticSpec(tickers=12, days=700, coverage=0.7,
                             beta=(0.02, 0, 0, 0), drift=0.0, volatility=0.015,
                             seed=21)
        panel, sig, _ = synth_panel(spec)
        fwd = forward_returns(panel, 5)
        train = (panel.dates[0], panel.dates[349])
        val = (panel.dates[350], panel.dates[529])
        model = fit_sfp(sig, fwd, train)
        val_scores = composite(sig.slice_dates(*val), model)
        scale = float(val_scores.values.std(ddof=1))
        val_panel = panel.slice_dates(*val)
        cfg = BacktestConfig(k=4, cost_rate=0.0, period=val)

        def evaluate(t):
            scaled = CompositeScore(
                dates=val_scores.dates, tickers=val_scores.tickers,
                values=val_scores.values / scale,
            )
            curve = backtest_topk(scaled, val_panel, cfg, weighting=("scw", t))
            return sharpe_ratio(curve.daily_returns[1:])

        temperature, table = select_temperature(TEMPERATURE_GRID, evaluate)
        assert temperature < max(TEMPERATURE_GRID)
        assert table[temperature] > table[max(TEMPERATURE_GRID)]

    def test_single_element(self):
        t, _ = select_temperature((0.5,), lambda t: 1.0)
        assert t == 0.5

    def test_ties_take_largest(self):
        t, table = select_temperature((0.25, 1.0, 4.0), lambda t: 42.0)
        assert t == 4.0
        assert set(table) == {0.25, 1.0, 4.0}

    def test_maximises_objective(self):
        t, _ = select_temperature((0.5, 1.0, 2.0), lambda t: -(t - 1.0) ** 2)
        assert t == 1.0

    def test_errors_propagate(self):
        def boom(t):
            raise ValidationError("backtest infeasible")
        with pytest.raises(ValidationError):
            select_temperature((1.0,), boom)


def validation_sharpe(panel, val, k=10, cost_rate=0.001):
    """The experiment runner's selection objective: the Sharpe ratio of the
    top-k portfolio on the validation range."""
    val_panel, cfg = panel.slice_dates(*val), BacktestConfig(k=k, cost_rate=cost_rate)
    return lambda scores: sharpe_ratio(backtest_topk(scores, val_panel, cfg).daily_returns[1:])


class TestForecaster:
    def _workspace(self, seed=19):
        spec = SyntheticSpec(tickers=6, days=260, coverage=0.6,
                             beta=(0.006, 0, 0, 0), volatility=0.015, seed=seed)
        panel, signals, _ = synth_panel(spec)
        fwd = forward_returns(panel, 5)
        rng = np.random.default_rng(seed)
        blocks = {
            "price": rng.normal(size=(panel.n_dates, panel.n_tickers, 3)),
            "semantic": signals.deviations,
        }
        train = (panel.dates[0], panel.dates[149])
        val = (panel.dates[150], panel.dates[199])
        return panel, signals, fwd, blocks, train, val

    def test_zero_tilt_is_identity(self):
        panel, signals, fwd, blocks, train, val = self._workspace()
        fc = fit_forecaster(
            blocks, fwd, panel, signals, train, val, validation_sharpe(panel, val),
            lam_grid=(1e-3,), tilt_grid=(0.0,), min_stock_days=50,
        )
        assert fc.tilt is None
        test_dates = panel.dates[200:]
        test_blocks = {n: b[200:] for n, b in blocks.items()}
        s = fc.score_panel(test_blocks, test_dates, panel.tickers,
                           signals.slice_dates(test_dates[0], test_dates[-1]))
        assert np.all(np.isfinite(s.values))

    def test_selection_table_covers_grid(self):
        panel, signals, fwd, blocks, train, val = self._workspace()
        fc = fit_forecaster(
            blocks, fwd, panel, signals, train, val, validation_sharpe(panel, val),
            lam_grid=(1e-3, 1.0), tilt_grid=(0.0, 1.0), min_stock_days=50,
        )
        assert len(fc.validation_table) == 4
        assert fc.model.fit_range == (train[0], val[1])  # refit includes validation

    def test_evaluate_scores_each_candidate_once_in_grid_order(self):
        panel, signals, fwd, blocks, train, val = self._workspace()
        seen = []

        def record(scores):
            seen.append(scores)
            return float(len(seen))  # each candidate beats the one before

        lams, alphas = (1.0, 1e-3, 10.0), (0.5, 0.0)
        fc = fit_forecaster(blocks, fwd, panel, signals, train, val, record,
                            lam_grid=lams, tilt_grid=alphas, min_stock_days=50)
        assert fc.validation_table == tuple(
            (lam, alpha, float(i + 1))
            for i, (lam, alpha) in enumerate((lam, alpha) for lam in lams for alpha in alphas))
        val_dates = panel.slice_dates(*val).dates
        assert [(s.dates, s.tickers) for s in seen] == [(val_dates, panel.tickers)] * 6
        # the last candidate scored highest: λ = 10 without tilt, refit through validation
        assert fc.model.ridge_strength == 10.0 and fc.tilt is None
        assert fc.model.fit_range == (train[0], val[1])

    @pytest.mark.parametrize("alphas, alpha", [((0.5, 0.0, 1.0), None), ((1.0, 0.5), 0.5)])
    def test_ties_take_the_largest_ridge_then_the_smallest_tilt(self, alphas, alpha):
        panel, signals, fwd, blocks, train, val = self._workspace()
        fc = fit_forecaster(blocks, fwd, panel, signals, train, val, lambda scores: 0.0,
                            lam_grid=(1.0, 1e-3, 10.0), tilt_grid=alphas, min_stock_days=50)
        assert fc.model.ridge_strength == 10.0
        assert (fc.tilt and fc.tilt.alpha) == alpha

    def test_too_few_rows_names_the_minimum_checked(self):
        # one ticker, three fit dates: 3 usable rows for 3 columns plus an intercept
        panel = make_panel(100 * np.exp(np.cumsum(np.full((12, 1), 0.01), axis=0)))
        blocks = {"price": np.random.default_rng(3).normal(size=(12, 1, 3))}
        train, val = (panel.dates[0], panel.dates[2]), (panel.dates[3], panel.dates[8])
        with pytest.raises(ValidationError, match=r"only 3 usable stock-days in fit range "
                                                  r"\('2020-01-02', '2020-01-06'\), need 4"):
            fit_forecaster(blocks, forward_returns(panel, 1), panel, None, train, val,
                           lambda scores: 0.0, lam_grid=(1.0,), min_stock_days=1)

    def test_target_off_the_panel_grid_rejected_before_any_fit(self):
        panel, signals, fwd, blocks, train, val = self._workspace()
        with pytest.raises(ValidationError, match=r"targets have shape \(260, 1\), "
                                                  r"expected \(260, 6\) on the panel"):
            fit_forecaster(blocks, forward_returns(panel, 5)[:, :1], panel, signals, train, val,
                           lambda scores: pytest.fail("evaluated a fit"),
                           lam_grid=(1.0,), tilt_grid=(0.0,), min_stock_days=50)

    def test_empty_block_rejected(self):
        panel, signals, fwd, blocks, train, val = self._workspace()
        bad = dict(blocks)
        bad["dead"] = np.zeros((panel.n_dates, panel.n_tickers, 0))
        with pytest.raises(ConfigError):
            fit_forecaster(bad, fwd, panel, signals, train, val, validation_sharpe(panel, val),
                           lam_grid=(1.0,), tilt_grid=(0.0,), min_stock_days=50)

    def test_validation_must_follow_fit(self):
        panel, signals, fwd, blocks, train, val = self._workspace()
        with pytest.raises(ConfigError):
            fit_forecaster(blocks, fwd, panel, signals, val, train,
                           validation_sharpe(panel, train),
                           lam_grid=(1.0,), tilt_grid=(0.0,), min_stock_days=50)

    def test_signal_panel_on_reversed_tickers_rejected(self):
        # fitted on these, the tilt would move AA's forecast by DD's signals
        spec = SyntheticSpec(tickers=("AA", "BB", "CC", "DD"), days=300, coverage=0.6,
                             beta=(0.006, 0, 0, 0), volatility=0.015, seed=19)
        panel, signals, _ = synth_panel(spec)
        reversed_signals = signals.restrict(["DD", "CC", "BB", "AA"])
        blocks = {"price": np.random.default_rng(19).normal(size=(300, 4, 3))}
        val = (panel.dates[180], panel.dates[239])
        with pytest.raises(AlignmentError, match="signal panel not aligned with the panel: "
                                                 "tickers differ at position 0: 'DD' vs 'AA'"):
            fit_forecaster(blocks, forward_returns(panel, 5), panel, reversed_signals,
                           (panel.dates[0], panel.dates[179]), val,
                           validation_sharpe(panel, val, k=2),
                           lam_grid=(1e-3,), tilt_grid=(0.0, 1.0), min_stock_days=50)

    def test_tilt_beats_naive_concatenation_on_gated_signal(self):
        # two-regime planted signal: loud news carries information, weak news
        # reverts. A shared linear fit cannot express the gate, so appending
        # the sparse semantic columns to a dense noise block underperforms
        # the high-conviction overlay on validation Sharpe.
        rng = np.random.default_rng(101)
        n_d, n_t = 900, 12
        flags = rng.random((n_d, n_t)) < 0.7
        levels = rng.integers(1, 6, size=(n_d, n_t, 4)).astype(float)
        values = np.where(flags[:, :, None], levels, 3.0)
        sig = make_signal_panel(values, flags)
        dev = values - 3.0
        comp = dev.mean(axis=2) * flags
        loud = (np.abs(comp) > 0.75) & flags
        weak = (~loud) & flags
        log_r = 0.0002 + 0.015 * rng.standard_normal((n_d - 1, n_t))
        effect = (0.10 * comp * loud - 0.06 * comp * weak) / 5.0
        for lag in range(1, 6):
            hi = n_d - lag
            if hi > 0:
                log_r[lag - 1:, :] += effect[:hi, :]
        close = 100 * np.exp(np.vstack([np.zeros(n_t), np.cumsum(log_r, axis=0)]))
        panel = make_panel(close)
        fwd = forward_returns(panel, 5)
        noise_block = rng.normal(size=(n_d, n_t, 4))
        train = (panel.dates[0], panel.dates[449])
        val = (panel.dates[450], panel.dates[679])
        naive = fit_forecaster(
            {"price": noise_block, "semantic": dev}, fwd, panel, sig, train, val,
            validation_sharpe(panel, val, k=4, cost_rate=0.001),
            lam_grid=(1e-3, 1e-1, 10.0), tilt_grid=(0.0,), min_stock_days=100,
        )
        tilted = fit_forecaster(
            {"price": noise_block}, fwd, panel, sig, train, val,
            validation_sharpe(panel, val, k=4, cost_rate=0.001),
            lam_grid=(1e-3, 1e-1, 10.0), tilt_grid=(0.5, 1.0), conviction=0.5,
            min_stock_days=100,
        )
        best_naive = max(s for _, _, s in naive.validation_table)
        best_tilt = max(s for _, _, s in tilted.validation_table)
        assert best_tilt > best_naive

    def test_tilt_changes_scores_only_on_high_conviction_covered_days(self):
        panel, signals, fwd, blocks, train, val = self._workspace(seed=20)
        base = fit_forecaster(blocks, fwd, panel, signals, train, val,
                              validation_sharpe(panel, val),
                              lam_grid=(1e-3,), tilt_grid=(0.0,), min_stock_days=50)
        tilted = fit_forecaster(blocks, fwd, panel, signals, train, val,
                                validation_sharpe(panel, val),
                                lam_grid=(1e-3,), tilt_grid=(1.0,), min_stock_days=50)
        if tilted.tilt is None:
            pytest.skip("validation preferred the untilted model")
        test_dates = panel.dates[200:]
        test_blocks = {n: b[200:] for n, b in blocks.items()}
        sig_test = signals.slice_dates(test_dates[0], test_dates[-1])
        s0 = base.score_panel(test_blocks, test_dates, panel.tickers, sig_test)
        s1 = tilted.score_panel(test_blocks, test_dates, panel.tickers, sig_test)
        changed = ~np.isclose(s0.values, s1.values, atol=1e-15)
        assert not changed[~sig_test.non_neutral].any()
