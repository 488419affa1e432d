"""Sequential trading environment with drawdown-shaped rewards.

One episode walks the panel day by day. The observation is the flattened
vector [cash, prices, holdings, indicator block, signal block]; actions in
[-1, 1] per ticker scale to integer share deltas via the max trade size.
Sells run before buys so proceeds can fund purchases, infeasible buys scale
down proportionally, and days with turbulence above the threshold disable
buying entirely. The per-step reward is the scaled wealth change minus a
quadratic penalty on fractional drawdown from the running peak.

The environment object itself is read-only; episode state travels through
``EnvState`` values, so independent episodes can share one instance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .backtest import EquityCurve
from .errors import PolicyFaultError, RangeError, ValidationError
from .panels import FeaturePanel, MarketPanel, TurbulenceSeries
from .signals import AXES, NEUTRAL, SignalPanel, _mask_axis_set


@dataclass(frozen=True)
class EnvConfig:
    h_max: int = 100
    cost_rate: float = 0.001
    turbulence_threshold: float = 380.0
    reward_scale: float = 1e-4
    drawdown_alpha: float = 0.1
    initial_cash: float = 1e6

    def __post_init__(self) -> None:
        if self.h_max < 1:
            raise ValidationError(f"h_max must be >= 1, got {self.h_max}")
        for name in ("cost_rate", "turbulence_threshold", "reward_scale",
                     "drawdown_alpha", "initial_cash"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


def drawdown_penalty(wealth: float, peak: float, alpha: float) -> float:
    """alpha * max(0, (peak - wealth) / peak)^2.

    Quadratic in the fractional drawdown, so its derivative grows linearly
    with the excursion.
    """
    if peak <= 0:
        raise ValidationError(f"peak wealth must be positive, got {peak}")
    d = max(0.0, (peak - wealth) / peak)
    return alpha * d * d


def step_reward(
    delta_wealth: float, wealth: float, peak: float, config: EnvConfig
) -> float:
    """Scaled wealth change minus the drawdown penalty (the per-step reward)."""
    gain = delta_wealth / config.initial_cash * config.reward_scale
    return gain - drawdown_penalty(wealth, peak, config.drawdown_alpha)


@dataclass(frozen=True)
class ObservationLayout:
    """Exact flattening order of the observation vector.

    [cash | prices (per ticker) | holdings (per ticker) |
     one block per indicator (per ticker) | one block per axis (per ticker)]
    """

    tickers: tuple[str, ...]
    feature_names: tuple[str, ...]
    axes: tuple[str, ...] = AXES

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    @property
    def dimension(self) -> int:
        n, k = self.n_tickers, len(self.feature_names)
        return 1 + 2 * n + (k + len(self.axes)) * n

    def signal_slice(self, axis: str) -> slice:
        if axis not in self.axes:
            raise ValidationError(f"unknown axis {axis!r}")
        n, k = self.n_tickers, len(self.feature_names)
        start = 1 + 2 * n + k * n + self.axes.index(axis) * n
        return slice(start, start + n)

    def to_manifest(self) -> dict:
        n = self.n_tickers
        blocks = [
            {"name": "cash", "start": 0, "length": 1},
            {"name": "close_prices", "start": 1, "length": n},
            {"name": "holdings", "start": 1 + n, "length": n},
        ]
        offset = 1 + 2 * n
        for name in self.feature_names:
            blocks.append({"name": f"indicator:{name}", "start": offset, "length": n})
            offset += n
        for axis in self.axes:
            blocks.append({"name": f"signal:{axis}", "start": offset, "length": n})
            offset += n
        return {
            "dimension": self.dimension,
            "tickers": list(self.tickers),
            "blocks": blocks,
        }


def write_observation_layout(layout: ObservationLayout, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(layout.to_manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class EnvState:
    """Snapshot of one episode step; wealth always equals cash + holdings value."""

    date_index: int
    date: str
    cash: float
    holdings: np.ndarray  # integer share counts
    prices: np.ndarray
    features: np.ndarray  # (tickers, indicators)
    signals: np.ndarray   # (tickers, 4)
    wealth: float
    peak_wealth: float

    def __post_init__(self) -> None:
        holdings = np.array(self.holdings, dtype=np.int64, copy=True)
        if np.any(holdings < 0):
            raise ValidationError("holdings must be non-negative")
        holdings.flags.writeable = False
        object.__setattr__(self, "holdings", holdings)
        recomputed = self.cash + float(self.holdings @ self.prices)
        if abs(recomputed - self.wealth) > 1e-6:
            raise ValidationError(
                f"wealth {self.wealth} inconsistent with cash+positions {recomputed}"
            )
        if self.peak_wealth < self.wealth - 1e-9:
            raise ValidationError("peak wealth below current wealth")


class TradingEnv:
    """Read-only market data plus the step/reset/observation mechanics."""

    def __init__(
        self,
        panel: MarketPanel,
        features: FeaturePanel,
        signals: SignalPanel,
        turbulence: TurbulenceSeries | None,
        config: EnvConfig,
    ):
        if features.dates != panel.dates or features.tickers != panel.tickers:
            raise ValidationError("feature panel not aligned with market panel")
        if signals.dates != panel.dates or signals.tickers != panel.tickers:
            raise ValidationError("signal panel not aligned with market panel")
        if turbulence is not None and turbulence.dates != panel.dates:
            raise ValidationError("turbulence series not aligned with market panel")
        self.panel = panel
        self.features = features
        self.signals = signals
        self.turbulence = turbulence
        self.config = config
        # per-date no-buy flags; all clear without a turbulence series
        self.gated = (
            np.zeros(panel.n_dates, dtype=bool) if turbulence is None
            else turbulence.gate(config.turbulence_threshold)
        )
        self.layout = ObservationLayout(
            tickers=panel.tickers, feature_names=features.names
        )

    @property
    def n_tickers(self) -> int:
        return self.panel.n_tickers

    @property
    def last_index(self) -> int:
        return self.panel.n_dates - 1

    def _state_at(self, idx: int, cash: float, holdings: np.ndarray, peak: float) -> EnvState:
        prices = self.panel.close[idx]
        wealth = cash + float(holdings @ prices)
        return EnvState(
            date_index=idx,
            date=self.panel.dates[idx],
            cash=cash,
            holdings=holdings,
            prices=prices,
            features=self.features.values[idx],
            signals=self.signals.values[idx],
            wealth=wealth,
            peak_wealth=max(peak, wealth),
        )

    def reset(self, start_date: str | None = None) -> EnvState:
        idx = self.features.warmup if start_date is None else self.panel.date_index(start_date)
        if idx < self.features.warmup:
            raise RangeError(
                f"start {self.panel.dates[idx]} is inside the indicator warm-up "
                f"(first valid: {self.panel.dates[self.features.warmup]})"
            )
        if idx >= self.last_index:
            raise RangeError("start date leaves no days to step through")
        cash = self.config.initial_cash
        return self._state_at(idx, cash, np.zeros(self.n_tickers, dtype=np.int64), cash)

    def observation(self, state: EnvState) -> np.ndarray:
        parts = [
            np.array([state.cash]),
            state.prices,
            state.holdings.astype(float),
            state.features.T.reshape(-1),
            state.signals.T.reshape(-1),
        ]
        return np.concatenate(parts)

    def step(self, state: EnvState, action: np.ndarray) -> tuple[EnvState, float, dict]:
        """Trade at the current close, advance one day, revalue, and reward.

        Stepping at the final date returns an episode-finished signal in the
        info dict rather than raising.
        """
        cfg = self.config
        if state.date_index >= self.last_index:
            return state, 0.0, {"done": True, "note": "episode already finished"}
        action = np.asarray(action, dtype=float)
        if action.shape != (self.n_tickers,):
            raise ValidationError(f"action shape {action.shape}, expected ({self.n_tickers},)")
        if not np.all(np.isfinite(action)):
            raise ValidationError("action contains non-finite values")

        idx = state.date_index
        prices = state.prices
        deltas = np.rint(np.clip(action, -1.0, 1.0) * cfg.h_max).astype(np.int64)

        gated = bool(self.gated[idx])
        if gated:
            deltas = np.minimum(deltas, 0)
        turb_value = (
            float("nan") if self.turbulence is None else float(self.turbulence.values[idx])
        )

        holdings = np.array(state.holdings, dtype=np.int64)
        cash = state.cash

        # sells first, bounded by current holdings
        sell_qty = np.minimum(-np.minimum(deltas, 0), holdings)
        sell_notional = float(sell_qty @ prices)
        sell_cost = cfg.cost_rate * sell_notional
        cash += sell_notional - sell_cost
        holdings -= sell_qty

        # buys, bounded by remaining cash after per-leg costs
        buy_qty = np.maximum(deltas, 0)
        buy_total = float(buy_qty @ prices) * (1.0 + cfg.cost_rate)
        buys_scaled = False
        if buy_total > cash and buy_total > 0:
            buys_scaled = True
            scale = max(cash, 0.0) / buy_total
            buy_qty = np.floor(buy_qty * scale).astype(np.int64)
            buy_total = float(buy_qty @ prices) * (1.0 + cfg.cost_rate)
            while buy_total > cash and buy_qty.sum() > 0:
                j = int(np.argmax(buy_qty * prices))
                buy_qty[j] -= 1
                buy_total = float(buy_qty @ prices) * (1.0 + cfg.cost_rate)
        buy_notional = float(buy_qty @ prices)
        buy_cost = cfg.cost_rate * buy_notional
        cash -= buy_notional + buy_cost
        holdings += buy_qty

        new_state = self._state_at(idx + 1, cash, holdings, state.peak_wealth)
        delta_wealth = new_state.wealth - state.wealth
        penalty = drawdown_penalty(new_state.wealth, new_state.peak_wealth, cfg.drawdown_alpha)
        reward = step_reward(delta_wealth, new_state.wealth, new_state.peak_wealth, cfg)
        info = {
            "done": new_state.date_index >= self.last_index,
            "cost": sell_cost + buy_cost,
            "sell_notional": sell_notional,
            "buy_notional": buy_notional,
            "gated": gated,
            "turbulence": turb_value,
            "turbulence_available": bool(np.isfinite(turb_value)),
            "buys_scaled": buys_scaled,
            "penalty": penalty,
        }
        return new_state, reward, info


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class Policy:
    """Maps a flattened observation to an action in [-1, 1] per ticker."""

    def reset(self, seed: int | None = None) -> None:
        pass

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class HoldPolicy(Policy):
    def __init__(self, n_tickers: int):
        self.n = n_tickers

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        return np.zeros(self.n)


class UniformRandomPolicy(Policy):
    """Ignores the observation; actions come from a seeded stream."""

    def __init__(self, n_tickers: int, seed: int = 0):
        self.n = n_tickers
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def reset(self, seed: int | None = None) -> None:
        self.rng = np.random.default_rng(self.seed if seed is None else seed)

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        return self.rng.uniform(-1.0, 1.0, self.n)


class SignalThresholdPolicy(Policy):
    """Buys names whose chosen signal axis is above the level, sells below.

    Reads only the signal slice of the observation, so masking that slice is
    the only way to change its behaviour.
    """

    def __init__(self, layout: ObservationLayout, axis: str = "sentiment", level: float = NEUTRAL):
        self.slice = layout.signal_slice(axis)
        self.level = level

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        sig = obs[self.slice]
        return np.sign(sig - self.level)


POLICIES = ("hold", "uniform_random", "signal_threshold")


def builtin_policies(layout: ObservationLayout, seed: int = 0) -> dict[str, Policy]:
    """The diagnostic policy inventory, one policy per name in ``POLICIES``."""
    return dict(zip(POLICIES, (
        HoldPolicy(layout.n_tickers),
        UniformRandomPolicy(layout.n_tickers, seed=seed),
        SignalThresholdPolicy(layout),
    )))


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

def run_policy(
    env: TradingEnv,
    policy: Policy,
    start_date: str | None = None,
    mask: set[str] | str | None = None,
    seed: int | None = None,
) -> tuple[EquityCurve, np.ndarray, list[dict]]:
    """Roll a policy through a full episode.

    ``mask`` (axis names or "ALL") pins the signal slice of every observation
    to neutral before the policy sees it — the panel itself is untouched.
    Returns the normalised equity curve, the reward trace, and per-step info
    dicts (with date/wealth/peak attached, ready for the episode log).
    """
    masked = frozenset() if mask is None else _mask_axis_set(mask)
    mask_slices = [env.layout.signal_slice(a) for a in sorted(masked)]

    policy.reset(seed)
    state = env.reset(start_date)
    w0 = env.config.initial_cash
    dates = [state.date]
    wealth = [state.wealth]
    holdings_w = [np.zeros(env.n_tickers)]
    costs = [0.0]
    rewards: list[float] = []
    infos: list[dict] = []

    step_idx = 0
    while True:
        obs = env.observation(state)
        for sl in mask_slices:
            obs[sl] = NEUTRAL
        action = np.asarray(policy(obs), dtype=float)
        if action.shape != (env.n_tickers,) or not np.all(np.isfinite(action)):
            raise PolicyFaultError(f"policy emitted bad action at step {step_idx}")
        state, reward, info = env.step(state, action)
        rewards.append(reward)
        info = dict(info)
        info.update(step=step_idx, date=state.date, wealth=state.wealth,
                    peak=state.peak_wealth, reward=reward)
        infos.append(info)
        dates.append(state.date)
        wealth.append(state.wealth)
        holdings_w.append(state.holdings * state.prices / state.wealth)
        # the trade at the previous close is booked on the day its P&L lands
        costs.append(info["cost"] / w0)
        step_idx += 1
        if info["done"]:
            break

    wealth_arr = np.asarray(wealth) / w0
    returns = np.zeros(len(wealth_arr))
    returns[1:] = wealth_arr[1:] / wealth_arr[:-1] - 1.0
    curve = EquityCurve(
        dates=tuple(dates),
        wealth=wealth_arr,
        daily_returns=returns,
        holdings=np.asarray(holdings_w),
        cost_paid=np.asarray(costs),
        tickers=env.panel.tickers,
    )
    return curve, np.asarray(rewards), infos


def write_episode_log(infos: list[dict], path: str) -> None:
    """Delimited log: step,date,wealth,peak,reward,penalty,turbulence,gated."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "date", "wealth", "peak", "reward", "penalty", "turbulence", "gated"]
        )
        for info in infos:
            writer.writerow([
                info["step"], info["date"],
                repr(float(info["wealth"])), repr(float(info["peak"])),
                repr(float(info["reward"])), repr(float(info["penalty"])),
                repr(float(info["turbulence"])), int(info["gated"]),
            ])
