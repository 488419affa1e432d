import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import scalar_env
from semlab import (
    AXES,
    NEUTRAL,
    EnvConfig,
    SyntheticSpec,
    TradingEnv,
    builtin_policies,
    drawdown_penalty,
    mask_axes,
    run_policy,
    step_reward,
    synth_panel,
)
from semlab.env import (
    POLICIES,
    HoldPolicy,
    ObservationLayout,
    Policy,
    SignalThresholdPolicy,
    UniformRandomPolicy,
    write_episode_log,
)
from semlab.errors import PolicyFaultError, RangeError, ValidationError
from semlab.panels import INDICATORS_ALL, FeaturePanel, compute_indicators, compute_turbulence

from conftest import make_panel, make_signal_panel


@pytest.fixture(scope="module")
def env_setup():
    spec = SyntheticSpec(tickers=4, days=160, coverage=0.5,
                         beta=(0.01, 0, 0, 0), drift=0.0, volatility=0.01, seed=77)
    panel, signals, _ = synth_panel(spec)
    features = compute_indicators(panel)
    turb = compute_turbulence(panel, window=20)
    return panel, features, signals, turb


@pytest.fixture(scope="module")
def long_window_setup(env_setup):
    """The same panel with an 80-day turbulence window, so an episode from the
    indicator warm-up starts on days with no turbulence value."""
    panel, features, signals, _ = env_setup
    return panel, features, signals, compute_turbulence(panel, window=80)


def build_env(env_setup, mask=None, **cfg_kwargs):
    """The environment on the fixture's data, its signal panel masked by
    ``mask`` (axis names or "ALL"; None leaves it unmasked)."""
    panel, features, signals, turb = env_setup
    if mask is not None:
        signals = mask_axes(signals, mask)
    return TradingEnv(panel, features, signals, turb, EnvConfig(**cfg_kwargs))


class TestRewardPieces:
    def test_penalty_at_peak_is_zero(self):
        assert drawdown_penalty(100.0, 100.0, 0.1) == 0.0

    def test_penalty_value(self):
        # 20% drawdown at alpha 0.1 costs 0.004
        assert drawdown_penalty(80.0, 100.0, 0.1) == pytest.approx(0.004, abs=1e-15)

    def test_penalty_derivative_matches_2ad(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = float(rng.uniform(0.001, 0.9))
            alpha = float(rng.uniform(0.01, 1.0))
            h = 1e-7
            num = (alpha * (d + h) ** 2 - alpha * (d - h) ** 2) / (2 * h)
            assert abs(num - 2 * alpha * d) < 1e-6

    def test_reward_small_gain_at_new_peak(self):
        cfg = EnvConfig(initial_cash=1e6)
        penalty = drawdown_penalty(1_000_010.0, 1_000_010.0, cfg.drawdown_alpha)
        r = step_reward(10.0, penalty, cfg)
        assert r == pytest.approx(1e-9, abs=1e-18)

    def test_reward_pure_drawdown(self):
        cfg = EnvConfig(initial_cash=1e6)
        r = step_reward(0.0, drawdown_penalty(900_000.0, 1_000_000.0, cfg.drawdown_alpha), cfg)
        assert r == pytest.approx(-1e-3, abs=1e-15)

    def test_reward_oracle_random_triples(self):
        rng = np.random.default_rng(1)
        cfg = EnvConfig(reward_scale=1e-4, drawdown_alpha=0.1, initial_cash=1e6)
        for _ in range(10000):
            peak = float(rng.uniform(5e5, 2e6))
            wealth = float(rng.uniform(0.3, 1.0) * peak)
            dw = float(rng.uniform(-1e4, 1e4))
            d = max(0.0, (peak - wealth) / peak)
            expected = dw / cfg.initial_cash * cfg.reward_scale - cfg.drawdown_alpha * d * d
            penalty = drawdown_penalty(wealth, peak, cfg.drawdown_alpha)
            assert abs(step_reward(dw, penalty, cfg) - expected) < 1e-12


class TestObservation:
    def test_published_dimension_for_default_layout(self):
        # the standard eight-indicator layout at 30 names flattens to 421
        layout = ObservationLayout(
            tickers=tuple(f"T{i}" for i in range(30)),
            feature_names=tuple(f"f{i}" for i in range(8)),
        )
        assert layout.dimension == 421

    @pytest.mark.parametrize("n,k", [(2, 7), (30, 7), (1, 1), (5, 8), (10, 3), (30, 8)])
    def test_dimension_formula(self, n, k):
        layout = ObservationLayout(
            tickers=tuple(f"T{i}" for i in range(n)),
            feature_names=tuple(f"f{i}" for i in range(k)),
        )
        assert layout.dimension == 1 + 2 * n + (k + 4) * n

    def test_small_layout_is_27(self):
        layout = ObservationLayout(
            tickers=("A", "B"), feature_names=tuple(f"f{i}" for i in range(7))
        )
        assert layout.dimension == 27

    def test_observation_matches_layout(self, env_setup):
        env = build_env(env_setup)
        state = env.reset()
        obs = env.observation(state)
        assert obs.shape == (env.layout.dimension,)
        assert obs[0] == state.cash
        n = env.n_tickers
        np.testing.assert_array_equal(obs[1 : 1 + n], state.prices)
        np.testing.assert_array_equal(obs[1 + n : 1 + 2 * n], np.zeros(n))
        sl = env.layout.signal_slice("sentiment")
        np.testing.assert_array_equal(obs[sl], state.signals[:, 0])

    def test_layout_manifest(self, env_setup):
        env = build_env(env_setup)
        manifest = env.layout.to_manifest()
        assert manifest["dimension"] == env.layout.dimension
        names = [b["name"] for b in manifest["blocks"]]
        assert names[0] == "cash"
        assert "signal:volatility_forecast" in names

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), k=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_blocks_tile_the_observation_in_order(self, n, k, seed):
        """The layout's blocks and ``TradingEnv.observation`` are the two places
        that know the order; each block of an observation is its part of the state."""
        rng = np.random.default_rng(seed)
        panel = make_panel(rng.uniform(1.0, 100.0, (3, n)))
        names = tuple(f"f{i}" for i in range(k))
        features = FeaturePanel(dates=panel.dates, tickers=panel.tickers,
                                values=rng.normal(size=(3, n, k)), names=names, warmup=0)
        signals = make_signal_panel(rng.uniform(1.0, 5.0, (3, n, 4)))
        env = TradingEnv(panel, features, signals, None, EnvConfig())
        layout = env.layout
        assert [b[0] for b in layout.blocks] == [
            "cash", "close_prices", "holdings",
            *(f"indicator:{f}" for f in names), *(f"signal:{a}" for a in AXES)]
        end = 0
        for name, start, length in layout.blocks:
            assert start == end and length == (1 if name == "cash" else n)
            end = start + length
        assert end == layout.dimension
        manifest = {b["name"]: b for b in layout.to_manifest()["blocks"]}
        for axis in AXES:
            block = manifest[f"signal:{axis}"]
            assert layout.signal_slice(axis) == slice(block["start"],
                                                      block["start"] + block["length"])
        state = replace(env.reset(), holdings=rng.integers(0, 50, n))
        parts = {"cash": [state.cash], "close_prices": state.prices,
                 "holdings": state.holdings,
                 **{f"indicator:{f}": state.features[:, i] for i, f in enumerate(names)},
                 **{f"signal:{a}": state.signals[:, j] for j, a in enumerate(AXES)}}
        obs = env.observation(state)
        assert obs.shape == (layout.dimension,)
        for name, start, length in layout.blocks:
            np.testing.assert_array_equal(obs[start : start + length], parts[name])


class TestReset:
    def test_reset_state(self, env_setup):
        env = build_env(env_setup, initial_cash=5e5)
        state = env.reset()
        assert state.cash == 5e5
        assert state.wealth == 5e5
        assert state.peak_wealth == 5e5
        assert np.all(state.holdings == 0)
        assert state.date_index == env.features.warmup

    def test_start_in_warmup_rejected(self, env_setup):
        env = build_env(env_setup)
        with pytest.raises(RangeError, match="warm-up"):
            env.reset(env.panel.dates[0])

    def test_start_at_end_rejected(self, env_setup):
        env = build_env(env_setup)
        with pytest.raises(RangeError):
            env.reset(env.panel.dates[-1])


class TestStep:
    def test_cash_conservation_each_step(self, env_setup):
        env = build_env(env_setup)
        rng = np.random.default_rng(5)
        state = env.reset()
        for _ in range(40):
            action = rng.uniform(-1, 1, env.n_tickers)
            prev_cash = state.cash
            prices = state.prices
            prev_hold = state.holdings.copy()
            state, reward, info = env.step(state, action)
            buys = np.maximum(state.holdings - prev_hold, 0)
            sells = np.maximum(prev_hold - state.holdings, 0)
            expected = (
                prev_cash
                + float(sells @ prices) - float(buys @ prices) - info["cost"]
            )
            assert state.cash == pytest.approx(expected, abs=1e-6)
            if info["done"]:
                break

    def test_long_only_and_peak_monotone(self, env_setup):
        env = build_env(env_setup)
        rng = np.random.default_rng(6)
        state = env.reset()
        peak = state.peak_wealth
        while True:
            state, reward, info = env.step(state, rng.uniform(-1, 1, env.n_tickers))
            assert np.all(state.holdings >= 0)
            assert state.peak_wealth >= peak - 1e-12
            assert state.peak_wealth >= state.wealth - 1e-9
            peak = state.peak_wealth
            if info["done"]:
                break

    def test_reward_decomposition(self, env_setup):
        env = build_env(env_setup)
        rng = np.random.default_rng(7)
        state = env.reset()
        prev_wealth = state.wealth
        for _ in range(60):
            state, reward, info = env.step(state, rng.uniform(-1, 1, env.n_tickers))
            gain = (state.wealth - prev_wealth) / env.config.initial_cash
            gain *= env.config.reward_scale
            assert reward + info["penalty"] - gain == pytest.approx(0.0, abs=1e-12)
            prev_wealth = state.wealth
            if info["done"]:
                break

    def test_zero_action_flat_prices_zero_reward(self):
        n_d = 70
        close = np.full((n_d, 2), 40.0)
        panel = make_panel(close)
        values = np.full((n_d, 2, 4), 3.0)
        sig = make_signal_panel(values, np.zeros((n_d, 2), dtype=bool))
        feats = compute_indicators(
            make_panel(close), names=("sma_30", "sma_60")
        )
        env = TradingEnv(panel, feats, sig, None, EnvConfig())
        state = env.reset()
        state, reward, info = env.step(state, np.zeros(2))
        assert reward == 0.0
        assert state.wealth == env.config.initial_cash

    def test_buy_scaling_when_cash_short(self, env_setup):
        env = build_env(env_setup, initial_cash=500.0, h_max=100)
        state = env.reset()
        state, reward, info = env.step(state, np.ones(env.n_tickers))
        assert info["buys_scaled"]
        assert state.cash >= 0.0

    def test_scaled_buys_drop_shares_until_affordable(self):
        # a fifth of the full order's cash floors to a fifth of each leg, which
        # rounds to 5.7e-14 over the cash: one share of the larger leg goes
        close = np.tile([9.15, 4.29], (40, 1))
        panel = make_panel(close)
        feats = compute_indicators(panel, names=("sma_30",))
        sig = make_signal_panel(np.full((40, 2, 4), 3.0))
        cash = float(np.array([100, 100]) @ close[0]) * 1.001 / 5
        env = TradingEnv(panel, feats, sig, None, EnvConfig(initial_cash=cash))
        state, _, info = env.step(env.reset(), np.ones(2))
        assert info["buys_scaled"]
        assert state.holdings.tolist() == [19, 20] and state.cash >= 0.0
        ref_state, _, ref_info = scalar_env.step(env, env.reset(), np.ones(2))
        assert ref_state.holdings.tolist() == [19, 20]
        assert repr(info) == repr(ref_info) and state.cash == ref_state.cash

    def test_no_buy_gate(self, env_setup):
        panel, features, signals, turb = env_setup
        # force a tiny threshold so every available turbulence value gates
        env = TradingEnv(panel, features, signals, turb,
                         EnvConfig(turbulence_threshold=0.0))
        state = env.reset()
        while True:
            prev = state.holdings.copy()
            state, reward, info = env.step(state, np.ones(env.n_tickers))
            if info["turbulence_available"]:
                assert info["gated"]
                assert np.all(state.holdings <= prev)
            if info["done"]:
                break

    @given(
        level=st.floats(0.1, 0.9),
        initial_cash=st.floats(100.0, 20_000.0),
        cost_rate=st.floats(0.0, 0.01),
        actions=arrays(np.float64, (100, 4), elements=st.floats(-1.5, 1.5)),
    )
    def test_step_invariants_under_random_actions(
        self, long_window_setup, level, initial_cash, cost_rate, actions
    ):
        panel, features, signals, turb = long_window_setup
        # a threshold inside the episode's turbulence range: some days gate, some do not
        threshold = float(np.nanquantile(turb.values[features.warmup:], level))
        env = TradingEnv(panel, features, signals, turb, EnvConfig(
            cost_rate=cost_rate, turbulence_threshold=threshold, initial_cash=initial_cash,
        ))
        state = env.reset()
        gated_days = []
        for action in actions:
            value = turb.values[state.date_index]
            prev = state
            state, _, info = env.step(prev, action)
            gated_days.append(info["gated"])
            assert info["gated"] == (np.isfinite(value) and value > threshold)
            sells = np.maximum(prev.holdings - state.holdings, 0)
            buys = np.maximum(state.holdings - prev.holdings, 0)
            if info["gated"]:
                assert not buys.any()
            assert state.cash >= 0.0 and np.all(state.holdings >= 0)
            assert info["sell_notional"] == float(sells @ prev.prices)
            assert info["buy_notional"] == float(buys @ prev.prices)
            assert info["cost"] == pytest.approx(
                cost_rate * (info["sell_notional"] + info["buy_notional"]), rel=1e-12, abs=1e-9
            )
            if info["done"]:
                break
        assert any(gated_days) and not all(gated_days)

    def test_sells_bounded_by_holdings(self, env_setup):
        env = build_env(env_setup)
        state = env.reset()
        state, _, _ = env.step(state, -np.ones(env.n_tickers))
        assert np.all(state.holdings == 0)
        assert state.cash == env.config.initial_cash

    def test_episode_finished_signal(self, env_setup):
        env = build_env(env_setup)
        state = env.reset(env.panel.dates[-2])
        state, reward, info = env.step(state, np.zeros(env.n_tickers))
        assert info["done"]
        state2, reward2, info2 = env.step(state, np.zeros(env.n_tickers))
        assert info2["done"] and "finished" in info2["note"]
        assert state2 is state

    def test_nonfinite_action_rejected(self, env_setup):
        env = build_env(env_setup)
        state = env.reset()
        with pytest.raises(ValidationError, match="finite"):
            env.step(state, np.array([np.nan] * env.n_tickers))

    def test_state_with_negative_holdings_rejected(self, env_setup):
        state = build_env(env_setup).reset()
        holdings = np.zeros_like(state.holdings)
        holdings[0] = -1
        cash = state.wealth - float(holdings @ state.prices)
        with pytest.raises(ValidationError, match="non-negative"):
            replace(state, holdings=holdings, cash=cash)

    @pytest.mark.parametrize("where, bad", [
        ("cash", math.nan), ("cash", math.inf), ("cash", -math.inf),
        ("price", math.nan), ("price", math.inf), ("price", -math.inf),
        ("prior_peak", math.nan), ("prior_peak", math.inf)])
    def test_state_with_nan_wealth_rejected(self, env_setup, where, bad):
        # the derived wealth and peak must be finite, so NaN or inf never flows through
        state = build_env(env_setup).reset()
        prices = state.prices.copy()
        prices[0] = bad
        change = {"cash": {"cash": bad}, "price": {"prices": prices},
                  "prior_peak": {"prior_peak": bad}}[where]
        with pytest.raises(ValidationError, match="must be finite"):
            replace(state, holdings=np.ones_like(state.holdings), **change)


class TestPolicies:
    def test_hold_policy_keeps_wealth_constant(self, env_setup):
        env = build_env(env_setup)
        curve, rewards, infos = run_policy(env, HoldPolicy(env.n_tickers))
        assert np.all(curve.wealth == 1.0)
        assert np.all(curve.cost_paid == 0.0)
        cr = float(np.prod(1 + curve.daily_returns[1:]) - 1)
        assert cr == 0.0

    def test_uniform_random_same_seed_identical(self, env_setup):
        env = build_env(env_setup)
        pol = UniformRandomPolicy(env.n_tickers)
        c1, r1, _ = run_policy(env, pol, seed=9)
        c2, r2, _ = run_policy(env, pol, seed=9)
        np.testing.assert_array_equal(c1.wealth, c2.wealth)
        np.testing.assert_array_equal(r1, r2)
        c3, _, _ = run_policy(env, pol, seed=10)
        assert not np.array_equal(c1.wealth, c3.wealth)

    def test_threshold_policy_under_full_mask_is_hold(self, env_setup):
        env = build_env(env_setup, mask="ALL")
        pol = SignalThresholdPolicy(env.layout, axis="sentiment", level=3.0)
        masked, _, _ = run_policy(env, pol)
        assert np.all(masked.wealth == 1.0)

    def test_mask_irrelevant_for_signal_blind_policy(self, env_setup):
        env = build_env(env_setup)
        pol = UniformRandomPolicy(env.n_tickers)
        full, rf, _ = run_policy(env, pol, seed=11)
        masked, rm, _ = run_policy(build_env(env_setup, mask="ALL"), pol, seed=11)
        np.testing.assert_array_equal(full.wealth, masked.wealth)
        np.testing.assert_array_equal(rf, rm)

    @pytest.mark.parametrize("mask", [None, "ALL", {"sentiment"}], ids=["none", "ALL", "sentiment"])
    @pytest.mark.parametrize("make", [
        lambda env: HoldPolicy(env.n_tickers),
        lambda env: SignalThresholdPolicy(env.layout, axis="sentiment", level=3.0),
    ], ids=["hold", "signal_threshold"])
    @settings(max_examples=10)
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True))
    def test_deterministic_policy_ignores_the_seed(self, env_setup, make, mask, seeds):
        """What lets env_eval roll a deterministic policy out once per mask."""
        env = build_env(env_setup, mask=mask)
        policy = make(env)
        assert policy.deterministic
        (c1, r1, i1), (c2, r2, i2) = (run_policy(env, policy, seed=s) for s in seeds)
        np.testing.assert_array_equal(c1.wealth, c2.wealth)
        np.testing.assert_array_equal(c1.daily_returns, c2.daily_returns)
        np.testing.assert_array_equal(r1, r2)
        assert repr(i1) == repr(i2)  # repr: the turbulence entries may be nan

    def test_seeded_and_custom_policies_are_not_deterministic(self, env_setup):
        env = build_env(env_setup)
        assert Policy.deterministic is False
        assert UniformRandomPolicy.deterministic is False
        assert UniformRandomPolicy(env.n_tickers).deterministic is False

    def test_builtin_inventory(self, env_setup):
        env = build_env(env_setup)
        pool = builtin_policies(env.layout, seed=3)
        assert set(pool) == {"hold", "uniform_random", "signal_threshold"}

    def test_policy_fault_carries_step_index(self, env_setup):
        env = build_env(env_setup)

        class Broken(HoldPolicy):
            def __call__(self, obs):
                return np.full(self.n, np.inf)

        with pytest.raises(PolicyFaultError, match="step 0"):
            run_policy(env, Broken(env.n_tickers))



class Recorder(Policy):
    """Wraps a policy and keeps a copy of every observation it is shown."""

    def __init__(self, inner: Policy):
        self.inner = inner

    def reset(self, seed=None):
        self.inner.reset(seed)
        self.seen = []

    def __call__(self, obs):
        self.seen.append(obs.copy())
        return self.inner(obs)


class TestMaskedPanel:
    @pytest.mark.parametrize("mask", [None, "ALL", {"sentiment"}, {"risk", "volatility_forecast"}],
                             ids=["none", "ALL", "sentiment", "risk+volatility_forecast"])
    def test_observations_are_the_unmasked_ones_with_neutral_slices(self, env_setup, mask):
        """Oracle: the rule of pinning each masked axis's observation slice to
        NEUTRAL, applied to the unmasked environment's observations."""
        full, masked = build_env(env_setup), build_env(env_setup, mask=mask)
        seen_full, seen_masked = (Recorder(UniformRandomPolicy(full.n_tickers)) for _ in range(2))
        curve_full, rewards_full, _ = run_policy(full, seen_full, seed=21)
        curve_masked, rewards_masked, _ = run_policy(masked, seen_masked, seed=21)
        axes = () if mask is None else AXES if mask == "ALL" else sorted(mask)
        assert len(seen_masked.seen) == len(seen_full.seen)
        pinned_any = False
        for want, got in zip(seen_full.seen, seen_masked.seen):
            for axis in axes:
                sl = full.layout.signal_slice(axis)
                pinned_any |= bool(np.any(want[sl] != NEUTRAL))
                want[sl] = NEUTRAL
            assert got.tobytes() == want.tobytes()
        assert pinned_any == bool(axes)  # each mask hides some non-neutral signal
        np.testing.assert_array_equal(curve_masked.wealth, curve_full.wealth)
        np.testing.assert_array_equal(rewards_masked, rewards_full)

class TestEpisodeLog:
    def test_log_columns(self, env_setup, tmp_path):
        env = build_env(env_setup)
        pol = UniformRandomPolicy(env.n_tickers)
        curve, rewards, infos = run_policy(env, pol, seed=12)
        path = tmp_path / "episode.csv"
        write_episode_log(infos, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,date,wealth,peak,reward,penalty,turbulence,gated"
        assert len(lines) == len(infos) + 1

    def test_curve_invariants(self, env_setup):
        env = build_env(env_setup)
        pol = UniformRandomPolicy(env.n_tickers)
        curve, _, _ = run_policy(env, pol, seed=13)
        assert curve.wealth[0] == 1.0
        sums = curve.holdings.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)
        assert np.all(curve.holdings >= 0)


class TestRolloutOracle:
    @settings(max_examples=100)
    @given(
        tickers=st.integers(1, 5),
        days=st.integers(70, 120),
        panel_seed=st.integers(0, 2**16),
        names=st.sampled_from([("macd",), ("rsi_30", "boll_ub", "sma_30"), INDICATORS_ALL]),
        policy=st.sampled_from(POLICIES),
        axis=st.sampled_from(AXES),
        level=st.floats(2.0, 4.0),
        mask=st.sampled_from([None, "ALL", {"sentiment"}, {"risk", "volatility_forecast"}]),
        start=st.integers(0, 30),
        window_extra=st.integers(0, 25),
        gate_level=st.sampled_from([None, 0.2, 0.5, 0.8]),
        initial_cash=st.floats(300.0, 3e5),
        cost_rate=st.sampled_from([0.0, 0.001, 0.02]),
        h_max=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rollout_equals_the_scalar_oracle(
        self, tmp_path_factory, tickers, days, panel_seed, names, policy, axis, level, mask,
        start, window_extra, gate_level, initial_cash, cost_rate, h_max, seed,
    ):
        """Curves, rewards, infos, observations and the episode log are those of
        the reference rollout in ``scalar_env``, bit for bit."""
        spec = SyntheticSpec(tickers=tickers, days=days, coverage=0.5, beta=(0.01, 0, 0, 0),
                             drift=0.0, volatility=0.02, seed=panel_seed)
        panel, signals, _ = synth_panel(spec)
        features = compute_indicators(panel, names)
        if mask is not None:
            signals = mask_axes(signals, mask)
        turb, threshold = None, 380.0
        if gate_level is not None:
            # a threshold inside the turbulence range: some days gate, some do not
            turb = compute_turbulence(panel, window=tickers + 2 + window_extra)
            threshold = float(np.nanquantile(turb.values, gate_level))
        env = TradingEnv(panel, features, signals, turb, EnvConfig(
            h_max=h_max, cost_rate=cost_rate, turbulence_threshold=threshold,
            initial_cash=initial_cash))
        start_date = panel.dates[min(features.warmup + start, panel.n_dates - 2)]

        def make():
            if policy == "signal_threshold":
                return Recorder(SignalThresholdPolicy(env.layout, axis=axis, level=level))
            return Recorder(builtin_policies(env.layout, seed=seed)[policy])

        got_policy, want_policy = make(), make()
        got = run_policy(env, got_policy, start_date=start_date, seed=seed)
        want = scalar_env.run_policy(env, want_policy, start_date=start_date, seed=seed)
        (curve, rewards, infos), (ref_curve, ref_rewards, ref_infos) = got, want
        assert curve.dates == ref_curve.dates
        for name in ("wealth", "daily_returns", "holdings", "cost_paid"):
            assert getattr(curve, name).tobytes() == getattr(ref_curve, name).tobytes(), name
        assert rewards.tobytes() == ref_rewards.tobytes()
        assert repr(infos) == repr(ref_infos)  # repr: types too, and nan equal to nan
        assert np.array(got_policy.seen).tobytes() == np.array(want_policy.seen).tobytes()
        logs = tmp_path_factory.mktemp("episode")
        write_episode_log(infos, str(logs / "got.csv"))
        write_episode_log(ref_infos, str(logs / "want.csv"))
        assert (logs / "got.csv").read_bytes() == (logs / "want.csv").read_bytes()

    def test_one_step_and_one_observation_per_day(self, env_setup, monkeypatch):
        """The rollout calls ``TradingEnv.step`` and ``TradingEnv.observation``
        once per step, and every info keeps the keys a step's gate and buy
        scaling are counted from."""
        calls = {"step": 0, "observation": 0}

        def counting(name):
            method = getattr(TradingEnv, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(TradingEnv, name, counting(name))
        env = build_env(env_setup, initial_cash=5e3)
        _, _, infos = run_policy(env, UniformRandomPolicy(env.n_tickers), seed=4)
        assert calls == {"step": len(infos), "observation": len(infos)}
        assert all(isinstance(i["gated"], bool) and isinstance(i["buys_scaled"], bool)
                   for i in infos)
        assert any(i["buys_scaled"] for i in infos)
