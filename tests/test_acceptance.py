"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; any failure raises with the criterion number in the message.
"""

import os

import numpy as np
import pytest
from scipy import stats as sps

import semlab
from semlab import (
    AXES,
    BacktestConfig,
    CompositeScore,
    EnvConfig,
    ExperimentConfig,
    SyntheticSpec,
    TradingEnv,
    aggregate_signals,
    backtest_topk,
    baseline,
    block_bootstrap_ci,
    composite,
    drawdown_penalty,
    fit_ridge,
    fit_sfp,
    forward_returns,
    mann_whitney_u,
    mask_axes,
    metrics,
    pca_effective_dim,
    run_policy,
    spearman_ic,
    step_reward,
    synth_panel,
    wilcoxon_signed_rank,
)
from semlab.env import SignalThresholdPolicy, UniformRandomPolicy
from semlab.experiments import KINDS, run
from semlab.metrics import annualized_return, calmar_ratio
from semlab.panels import compute_indicators, compute_turbulence
from semlab.signals import NEUTRAL, ArticleTable

from conftest import business_days, make_panel, make_signal_panel, read_rows, study_config


def report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_metric_convention_closure():
    n_days = 1258
    ar_bh = annualized_return(2.43574, n_days)
    calmar_bh = calmar_ratio(ar_bh, -0.36705)
    assert calmar_bh == pytest.approx(0.764, abs=0.002), "criterion 1 benchmark row"
    ar_f = annualized_return(3.07199, n_days)
    calmar_f = calmar_ratio(ar_f, -0.35643)
    assert calmar_f == pytest.approx(0.911, abs=0.002), "criterion 1 factor row"
    report(1, f"Calmar closure {calmar_bh:.4f} / {calmar_f:.4f} within 0.002")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_reward_oracle():
    rng = np.random.default_rng(2024)
    cfg = EnvConfig(reward_scale=1e-4, drawdown_alpha=0.1, initial_cash=1e6)
    worst = 0.0
    for _ in range(10000):
        peak = float(rng.uniform(1e5, 5e6))
        wealth = float(rng.uniform(0.2, 1.0) * peak)
        dw = float(rng.uniform(-5e4, 5e4))
        d = max(0.0, (peak - wealth) / peak)
        expected = dw / cfg.initial_cash * cfg.reward_scale - cfg.drawdown_alpha * d * d
        got = step_reward(dw, wealth, peak, cfg)
        worst = max(worst, abs(got - expected))
    assert worst < 1e-12, "criterion 2 reward identity"

    worst_fd = 0.0
    for _ in range(500):
        d = float(rng.uniform(0.01, 0.9))
        alpha = float(rng.uniform(0.01, 1.0))
        h = 1e-7
        peak = 1.0
        num = (
            drawdown_penalty(peak * (1 - d - h), peak, alpha)
            - drawdown_penalty(peak * (1 - d + h), peak, alpha)
        ) / (2 * h)
        worst_fd = max(worst_fd, abs(num - 2 * alpha * d))
    assert worst_fd < 1e-6, "criterion 2 penalty derivative"
    report(2, f"reward identity to {worst:.1e}, derivative gap {worst_fd:.1e}")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_observation_dimension():
    from semlab.env import ObservationLayout

    # the published environment: 30 names, the standard indicator block -> 421
    default = ObservationLayout(
        tickers=tuple(f"T{i}" for i in range(30)),
        feature_names=semlab.INDICATORS_ALL,
    )
    assert default.dimension == 421, "criterion 3 published dimension"

    for n, k in ((2, 7), (5, 3), (10, 8), (1, 1), (12, 5)):
        layout = ObservationLayout(
            tickers=tuple(f"T{i}" for i in range(n)),
            feature_names=tuple(f"f{i}" for i in range(k)),
        )
        assert layout.dimension == 1 + 2 * n + (k + 4) * n, "criterion 3 formula"

    # a live environment emits exactly that vector
    spec = SyntheticSpec(tickers=4, days=100, seed=3)
    panel, signals, _ = synth_panel(spec)
    feats = compute_indicators(panel)
    env = TradingEnv(panel, feats, signals, None, EnvConfig())
    obs = env.observation(env.reset())
    assert obs.shape == (1 + 2 * 4 + (8 + 4) * 4,), "criterion 3 live observation"
    report(3, "dimension 421 for the published layout; formula checked on 5 pairs")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_aggregation_semantics():
    cal = business_days("2020-01-02", 5)
    articles = ArticleTable(
        source_ids=("a1", "a2", "a3"),
        tickers=("T1", "T1", "T2"),
        dates=(cal[0], cal[2], cal[3]),
        scores=[(5, 4, 3, 2), (1, 2, 3, 4), (4, 4, 4, 4)],
    )
    panel, rep = aggregate_signals(articles, cal, ["T1", "T2"], window=3)
    assert rep.total == 0

    # hand enumeration, window [d-3, d] in trading days:
    #   T1 day0..1 -> {a1}; day2..3 -> {a1, a2}; day4 -> {a2}
    #   T2 day0..2 -> none; day3..4 -> {a3}
    expect_t1 = {
        0: (5.0, 4.0, 3.0, 2.0),
        1: (5.0, 4.0, 3.0, 2.0),
        2: (3.0, 3.0, 3.0, 3.0),  # mean of a1, a2 -- still news
        3: (3.0, 3.0, 3.0, 3.0),
        4: (1.0, 2.0, 3.0, 4.0),
    }
    for d, vec in expect_t1.items():
        assert tuple(panel.values[d, 0]) == vec, f"criterion 4 T1 day {d}"
        assert panel.non_neutral[d, 0], f"criterion 4 T1 flag day {d}"
    for d in range(3):
        assert not panel.non_neutral[d, 1]
        # neutral cells are bit-equal to the default
        assert np.array_equal(panel.values[d, 1], np.full(4, NEUTRAL))
    for d in (3, 4):
        assert tuple(panel.values[d, 1]) == (4.0, 4.0, 4.0, 4.0)
        assert panel.non_neutral[d, 1]
    report(4, "hand-enumerated window membership, means, and neutral bits match")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_ridge_and_pca_oracles():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n, p = int(rng.integers(20, 80)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.0, 3.0))
        w, b = fit_ridge(X, y, lam=lam)
        Xa = np.column_stack([X, np.ones(n)])
        P = np.diag([lam] * p + [0.0])
        sol = np.linalg.solve(Xa.T @ Xa + P, Xa.T @ y)
        worst = max(worst, float(np.max(np.abs(w - sol[:p]))), abs(b - sol[p]))
    assert worst < 1e-9, "criterion 5 ridge oracle"

    base = rng.integers(1, 6, size=300).astype(float)
    values = np.stack([base] * 4, axis=-1)[:, None, :]
    sig = make_signal_panel(values, np.ones((300, 1), dtype=bool))
    loadings, explained = pca_effective_dim(sig)
    assert explained[0] == pytest.approx(1.0, abs=1e-12), "criterion 5 pc1 variance"
    assert np.allclose(np.abs(loadings), 0.5, atol=1e-12), "criterion 5 loadings"

    for _ in range(50):
        n = int(rng.integers(20, 400))
        vals = rng.integers(1, 6, size=(n, 2, 4)).astype(float)
        sigr = make_signal_panel(vals, np.ones((n, 2), dtype=bool))
        try:
            _, expl = pca_effective_dim(sigr)
        except semlab.LabError:
            continue
        assert abs(expl.sum() - 1.0) < 1e-12, "criterion 5 explained sums to 1"
    report(5, f"ridge matches the normal-equation oracle to {worst:.1e}; PCA checks hold")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_backtest_ledger_oracle():
    # oracle values derived with exact fraction arithmetic (see the design
    # notes): rotate all capital A -> B across three days at 0.1% per leg
    panel = make_panel(
        np.array([[100.0, 100.0], [110.0, 90.0], [105.0, 99.0]]), tickers=("A", "B")
    )
    scores = CompositeScore(
        dates=panel.dates, tickers=panel.tickers,
        values=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
    )
    curve = backtest_topk(scores, panel, BacktestConfig(k=1, cost_rate=0.001))
    assert np.max(np.abs(curve.wealth - np.array([1.0, 1.099, 1.206701]))) < 1e-12
    assert np.max(np.abs(curve.cost_paid - np.array([0.0, 0.001, 0.002199]))) < 1e-12

    from semlab.backtest import subperiod_report

    rng = np.random.default_rng(6)
    for _ in range(10):
        n_d = 80
        close = 30 * np.exp(np.cumsum(rng.normal(0, 0.02, (n_d, 3)), axis=0))
        rpanel = make_panel(close)
        rscores = CompositeScore(dates=rpanel.dates, tickers=rpanel.tickers,
                                 values=rng.normal(size=(n_d, 3)))
        rcurve = backtest_topk(rscores, rpanel, BacktestConfig(k=1, cost_rate=0.002))
        bench = baseline(rpanel, "ew_buy_and_hold", BacktestConfig(k=1, cost_rate=0.0))
        cuts = sorted(rng.choice(np.arange(2, n_d - 2), size=2, replace=False))
        bounds = [0, *cuts, n_d - 1]
        periods = [
            (f"p{i}", rpanel.dates[a if i == 0 else a + 1], rpanel.dates[b])
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
        ]
        rows = subperiod_report(rcurve, bench, periods)
        combined = np.prod([1 + r["cr"] for r in rows]) - 1
        assert combined == pytest.approx(metrics(rcurve).cr, abs=1e-10), "criterion 6"
    report(6, "hand ledger to 1e-12; compounding identity to 1e-10")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_planted_signal_study():
    wins_zero = 0
    shrink = 0
    ics = []
    for seed in range(20):
        spec = SyntheticSpec(
            tickers=30, days=1500, coverage=0.35, beta=(0.0025, 0, 0, 0),
            drift=0.0003, volatility=0.02, seed=seed,
        )
        panel, signals, _ = synth_panel(spec)
        fwd = forward_returns(panel, 5)
        train = (panel.dates[0], panel.dates[749])
        test = (panel.dates[750], panel.dates[-1])
        model = fit_sfp(signals, fwd, train)
        scores = composite(signals.slice_dates(*test), model)
        mask = np.isfinite(fwd) & signals.non_neutral
        ics.append(spearman_ic(signals.deviations[:, :, 0][mask], fwd[mask]).statistic)
        adv = {}
        for cost in (0.0, 0.005):
            cfg = BacktestConfig(k=10, cost_rate=cost, period=test)
            strat = metrics(backtest_topk(scores, panel, cfg)).cr
            bench = metrics(baseline(panel, "ew_buy_and_hold", cfg)).cr
            adv[cost] = strat - bench
        wins_zero += adv[0.0] > 0
        shrink += adv[0.005] < adv[0.0]
    mean_ic = float(np.mean(ics))
    assert 0.03 <= mean_ic <= 0.08, f"criterion 7 planted IC {mean_ic}"
    assert wins_zero >= 18, f"criterion 7: only {wins_zero}/20 wins at zero cost"
    assert shrink > 10, f"criterion 7: advantage shrank in only {shrink}/20 seeds"
    report(7, f"IC {mean_ic:.3f}; {wins_zero}/20 wins at zero cost; "
              f"advantage shrank in {shrink}/20 at 0.5%")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_stratified_composition_diagnostic(tmp_path):
    tickers = [f"S{i:02d}" for i in range(30)]
    wins = {"Low": 0, "Mid": 0, "High": 0}
    for seed in range(20):
        spec = {
            "tickers": tickers, "days": 1200,
            "coverage": [0.05] * 10 + [0.18] * 10 + [0.50] * 10,
            "beta": [0.008, 0, 0, 0], "beta_tickers": tickers[20:],
            "drift": 0.0003, "volatility": 0.02, "seed": seed,
        }
        out = tmp_path / str(seed)
        run(ExperimentConfig.from_dict(study_config(
            "stratified", out, spec, 600, {"cost_rate": 0.0, "k_per_stratum": 5})))
        high = {r["ticker"] for r in read_rows(out / "coverage.csv") if r["tercile"] == "High"}
        assert high == set(tickers[20:])
        rows = read_rows(out / "stratified.csv")
        for strategy, bench in zip(rows[::2], rows[1::2]):
            wins[strategy["tercile"]] += float(strategy["cr_pct"]) > float(bench["cr_pct"])
    p_high = sps.binomtest(wins["High"], 20, alternative="greater").pvalue
    p_low = sps.binomtest(wins["Low"], 20, alternative="greater").pvalue
    p_mid = sps.binomtest(wins["Mid"], 20, alternative="greater").pvalue
    assert p_high < 0.05, f"criterion 8: planted tercile p={p_high}"
    assert p_low >= 0.05, f"criterion 8: Low tercile spuriously significant (p={p_low})"
    assert p_mid >= 0.05, f"criterion 8: Mid tercile spuriously significant (p={p_mid})"
    report(8, f"wins {wins}; planted-tercile sign test p={p_high:.2g}, others n.s.")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_statistics_calibration():
    rng = np.random.default_rng(909)
    cover = 0
    for trial in range(500):
        x = rng.standard_normal(1000)
        res = block_bootstrap_ci(x, block_len=20, resamples=2000, seed=trial)
        cover += res.ci_low <= 0.0 <= res.ci_high
    coverage = cover / 500
    assert 0.93 <= coverage <= 0.97, f"criterion 9 bootstrap coverage {coverage}"

    pw, pm = [], []
    for _ in range(1000):
        pw.append(wilcoxon_signed_rank(rng.standard_normal(60)).p_value)
        pm.append(mann_whitney_u(rng.standard_normal(25), rng.standard_normal(25)).p_value)
    ks_w = sps.kstest(pw, "uniform").pvalue
    ks_m = sps.kstest(pm, "uniform").pvalue
    assert ks_w > 0.01, f"criterion 9 wilcoxon null KS p {ks_w}"
    assert ks_m > 0.01, f"criterion 9 mann-whitney null KS p {ks_m}"

    for _ in range(50):
        x = rng.permutation(np.arange(150.0))  # tie-free by construction
        y = rng.normal(size=150)
        res = spearman_ic(x, y)
        rx = np.empty(150)
        rx[np.argsort(x)] = np.arange(1, 151)
        ry = np.empty(150)
        ry[np.argsort(y)] = np.arange(1, 151)
        oracle = float(np.corrcoef(rx, ry)[0, 1])
        assert res.statistic == oracle, "criterion 9 spearman exact match"
    report(9, f"bootstrap coverage {coverage:.3f}; null KS p {ks_w:.2f}/{ks_m:.2f}; "
              "rank oracle exact")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_masking_invariants():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n_d, n_t = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        flags = rng.random((n_d, n_t)) < 0.6
        values = np.where(
            flags[:, :, None],
            rng.integers(1, 6, size=(n_d, n_t, 4)).astype(float), 3.0,
        )
        panel = make_signal_panel(values, flags)
        a = set(rng.choice(AXES, size=int(rng.integers(0, 5)), replace=False))
        b = set(rng.choice(AXES, size=int(rng.integers(0, 5)), replace=False))
        once = mask_axes(panel, a)
        assert mask_axes(once, a).content_hash() == once.content_hash(), \
            "criterion 10 idempotence"
        assert mask_axes(once, b).content_hash() == mask_axes(panel, a | b).content_hash(), \
            "criterion 10 composition"

    spec = SyntheticSpec(tickers=6, days=200, coverage=0.4, beta=(0.01, 0, 0, 0),
                         drift=0.0, volatility=0.012, seed=55)
    panel, signals, _ = synth_panel(spec)
    feats = compute_indicators(panel)
    turb = compute_turbulence(panel, window=20)
    env = TradingEnv(panel, feats, signals, turb, EnvConfig())
    blind = UniformRandomPolicy(env.n_tickers)
    full, rf, _ = run_policy(env, blind, seed=7)
    masked_env = TradingEnv(panel, feats, mask_axes(signals, "ALL"), turb, EnvConfig())
    masked, rm, _ = run_policy(masked_env, blind, seed=7)
    assert np.array_equal(full.wealth, masked.wealth), "criterion 10 blind policy"
    assert np.array_equal(rf, rm), "criterion 10 blind rewards"

    wins = 0
    for seed in range(20):
        spec = SyntheticSpec(tickers=10, days=400, coverage=0.4,
                             beta=(0.01, 0, 0, 0), drift=0.0, volatility=0.015,
                             seed=seed)
        p, s, _ = synth_panel(spec)
        feats, turb = compute_indicators(p), compute_turbulence(p, window=252)
        env, masked_env = (TradingEnv(p, feats, sig, turb, EnvConfig())
                           for sig in (s, mask_axes(s, "ALL")))
        pol = SignalThresholdPolicy(env.layout, axis="sentiment", level=3.0)
        full_curve, _, _ = run_policy(env, pol, seed=seed)
        mask_curve, _, _ = run_policy(masked_env, pol, seed=seed)
        cr_full = float(np.prod(1 + full_curve.daily_returns[1:]) - 1)
        cr_mask = float(np.prod(1 + mask_curve.daily_returns[1:]) - 1)
        wins += cr_full > cr_mask
    p_sign = sps.binomtest(wins, 20, alternative="greater").pvalue
    assert p_sign < 0.05, f"criterion 10: threshold policy wins {wins}/20, p={p_sign}"
    report(10, f"projection on 1000 panels; blind rollouts bit-identical; "
               f"signal policy beats masked {wins}/20 (p={p_sign:.2g})")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_experiment_determinism(tmp_path):
    cal = business_days("2015-01-02", 420)
    synth = {
        "tickers": 8, "days": 420, "coverage": 0.4,
        "beta": [0.005, 0, 0, 0], "volatility": 0.015, "seed": 99,
    }
    for kind in KINDS:
        params = {} if kind in ("env_eval", "validation_suite", "stratified") else {"k": 3}
        if kind == "forecaster":
            params.update(blocks=["price", "semantic"], lambda_grid=[1e-3, 1.0],
                          min_stock_days=100)
        if kind == "cost_sweep":
            params.update(costs=[0.0, 0.002])
        if kind == "env_eval":
            params.update(n_seeds=2)
        if kind == "stratified":
            params.update(k_per_stratum=2)
        outputs = []
        for tag in ("a", "b"):
            outdir = tmp_path / f"{kind}_{tag}"
            cfg = ExperimentConfig.from_dict({
                "kind": kind, "seed": 7, "output_dir": str(outdir),
                "data": {"synthetic": synth},
                "ranges": {
                    "train": [cal[60], cal[259]],
                    "validation": [cal[260], cal[319]],
                    "test": [cal[320], cal[419]],
                },
                "params": params,
            })
            run(cfg)
            outputs.append(outdir)
        names = sorted(os.listdir(outputs[0]))
        assert names == sorted(os.listdir(outputs[1])), f"criterion 11 {kind}"
        for name in names:
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"criterion 11: {kind}/{name} differs between reruns"
    report(11, f"all {len(KINDS)} experiment kinds byte-identical across reruns")
