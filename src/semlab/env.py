"""Sequential trading environment with drawdown-shaped rewards.

One episode walks the panel day by day. The observation is the flattened
vector that ``ObservationLayout`` lays out block by block; actions in
[-1, 1] per ticker scale to integer share deltas via the max trade size.
Sells run before buys so proceeds can fund purchases, infeasible buys scale
down proportionally, and days with turbulence above the threshold disable
buying entirely. The per-step reward is the scaled wealth change minus a
quadratic penalty on fractional drawdown from the running peak.

The environment object itself is read-only; episode state travels through
``EnvState`` values, so independent episodes can share one instance.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from ._grid import frozen, write_table
from .backtest import EquityCurve
from .errors import PolicyFaultError, RangeError, ValidationError
from .panels import FeaturePanel, MarketPanel, TurbulenceSeries
from .signals import AXES, NEUTRAL, SignalPanel


@dataclass(frozen=True)
class EnvConfig:
    h_max: int = 100
    cost_rate: float = 0.001
    turbulence_threshold: float = 380.0
    reward_scale: float = 1e-4
    drawdown_alpha: float = 0.1
    initial_cash: float = 1e6

    def __post_init__(self) -> None:
        # each comparison is written so that NaN fails it
        if not self.h_max >= 1:
            raise ValidationError(f"h_max must be >= 1, got {self.h_max}")
        for name in ("cost_rate", "turbulence_threshold", "reward_scale", "drawdown_alpha"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be non-negative")
        if not self.cost_rate < 1:  # a rate of 1 charges the whole notional traded
            raise ValidationError(f"cost_rate must be < 1, got {self.cost_rate}")
        if not self.initial_cash > 0:
            raise ValidationError(f"initial_cash must be > 0, got {self.initial_cash}")
        for name in ("turbulence_threshold", "reward_scale", "drawdown_alpha", "initial_cash"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")


def drawdown_penalty(wealth: float, peak: float, alpha: float) -> float:
    """alpha * max(0, (peak - wealth) / peak)^2.

    Quadratic in the fractional drawdown, so its derivative grows linearly
    with the excursion.
    """
    if peak <= 0:
        raise ValidationError(f"peak wealth must be positive, got {peak}")
    d = max(0.0, (peak - wealth) / peak)
    return alpha * d * d


def step_reward(delta_wealth: float, penalty: float, config: EnvConfig) -> float:
    """Scaled wealth change minus the step's drawdown penalty (the per-step
    reward); ``penalty`` is ``drawdown_penalty`` at the new wealth and peak."""
    return delta_wealth / config.initial_cash * config.reward_scale - penalty


@dataclass(frozen=True)
class ObservationLayout:
    """Exact flattening order of the observation vector.

    [cash | prices (per ticker) | holdings (per ticker) |
     one block per indicator (per ticker) | one block per axis (per ticker)]

    ``blocks`` states that order once, as (name, start, length) triples;
    ``dimension``, ``signal_slice`` and the manifest read it, and
    ``TradingEnv.observation`` concatenates a state's parts in it.
    """

    tickers: tuple[str, ...]
    feature_names: tuple[str, ...]
    axes: tuple[str, ...] = AXES
    blocks: tuple[tuple[str, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # cash is one value; each block after it holds one value per ticker
        n = self.n_tickers
        names = ("close_prices", "holdings", *(f"indicator:{f}" for f in self.feature_names),
                 *(f"signal:{axis}" for axis in self.axes))
        object.__setattr__(self, "blocks", (("cash", 0, 1), *(
            (name, 1 + i * n, n) for i, name in enumerate(names))))

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    @property
    def dimension(self) -> int:
        _, start, length = self.blocks[-1]
        return start + length

    def signal_slice(self, axis: str) -> slice:
        if axis not in self.axes:
            raise ValidationError(f"unknown axis {axis!r}")
        _, start, length = next(b for b in self.blocks if b[0] == f"signal:{axis}")
        return slice(start, start + length)

    def to_manifest(self) -> dict:
        return {
            "dimension": self.dimension,
            "tickers": list(self.tickers),
            "blocks": [{"name": name, "start": start, "length": length}
                       for name, start, length in self.blocks],
        }


@dataclass(frozen=True, slots=True)
class EnvState:
    """Snapshot of one episode step.

    ``wealth`` and ``peak_wealth`` are derived, never given: the wealth is
    ``cash + holdings @ prices`` and the peak the larger of it and
    ``prior_peak``, the previous step's peak (-inf by default, so a first
    state's peak is its wealth). A non-finite wealth or peak is a
    ValidationError.
    """

    date_index: int
    date: str
    cash: float
    holdings: np.ndarray  # integer share counts
    prices: np.ndarray
    features: np.ndarray  # (tickers, indicators)
    signals: np.ndarray   # (tickers, 4)
    prior_peak: InitVar[float] = -math.inf
    wealth: float = field(init=False)
    peak_wealth: float = field(init=False)

    def __post_init__(self, prior_peak: float) -> None:
        holdings = frozen(self.holdings, np.int64)
        if (holdings < 0).any():
            raise ValidationError("holdings must be non-negative")
        wealth = self.cash + float(holdings @ self.prices)
        peak = max(prior_peak, wealth)
        if not (math.isfinite(wealth) and math.isfinite(peak)):
            raise ValidationError(f"wealth {wealth} and peak {peak} must be finite")
        object.__setattr__(self, "holdings", holdings)
        object.__setattr__(self, "wealth", wealth)
        object.__setattr__(self, "peak_wealth", peak)


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
        panel.check_aligned(features, "feature panel")
        panel.check_aligned(signals, "signal panel")
        if turbulence is not None:
            panel.check_aligned(turbulence, "turbulence series", _dates_only=True)
        self.panel = panel
        self.features = features
        self.signals = signals
        self.turbulence = turbulence
        self.config = config
        self.n_tickers = panel.n_tickers
        self.last_index = panel.n_dates - 1
        # per-date no-buy flags and turbulence values as Python lists, which
        # a step reads faster than numpy scalars; all clear (nan) without a series
        if turbulence is None:
            self.gated = [False] * panel.n_dates
            self.turbulence_at = [math.nan] * panel.n_dates
        else:
            self.gated = turbulence.gate(config.turbulence_threshold).tolist()
            self.turbulence_at = turbulence.values.tolist()
        self.layout = ObservationLayout(
            tickers=panel.tickers, feature_names=features.names
        )

    def _state_at(self, idx: int, cash: float, holdings: np.ndarray,
                  prior_peak: float = -math.inf) -> EnvState:
        return EnvState(date_index=idx, date=self.panel.dates[idx], cash=cash, holdings=holdings,
                        prices=self.panel.close[idx], features=self.features.values[idx],
                        signals=self.signals.values[idx], prior_peak=prior_peak)

    def reset(self, start_date: str | None = None) -> EnvState:
        idx = self.features.warmup if start_date is None else self.panel.date_index(start_date)
        if idx < self.features.warmup:
            raise RangeError(
                f"start {self.panel.dates[idx]} is inside the indicator warm-up "
                f"(first valid: {self.panel.dates[self.features.warmup]})"
            )
        if idx >= self.last_index:
            raise RangeError("start date leaves no days to step through")
        return self._state_at(idx, self.config.initial_cash,
                              np.zeros(self.n_tickers, dtype=np.int64))

    def observation(self, state: EnvState) -> np.ndarray:
        # axis=None flattens each part in C order, so a transposed block
        # lays out one ticker vector per indicator or axis
        return np.concatenate(
            ((state.cash,), state.prices, state.holdings, state.features.T, state.signals.T),
            axis=None, dtype=float,
        )

    def step(self, state: EnvState, action: np.ndarray) -> tuple[EnvState, float, dict]:
        """Trade at the current close, advance one day, revalue, and reward.

        Stepping at the final date returns an episode-finished signal in the
        info dict rather than raising.
        """
        cfg = self.config
        idx = state.date_index
        if idx >= self.last_index:
            return state, 0.0, {"done": True, "note": "episode already finished"}
        action = np.asarray(action, dtype=float)
        if action.shape != (self.n_tickers,):
            raise ValidationError(f"action shape {action.shape}, expected ({self.n_tickers},)")
        if not np.isfinite(action).all():
            raise ValidationError("action contains non-finite values")

        prices = state.prices
        # the values np.clip gives on the finite actions that reach here, without its wrapper
        deltas = np.rint(np.minimum(np.maximum(action, -1.0), 1.0) * cfg.h_max).astype(np.int64)

        gated = self.gated[idx]
        if gated:
            deltas = np.minimum(deltas, 0)
        turb_value = self.turbulence_at[idx]
        cash = state.cash

        # sells first, bounded by current holdings
        sell_qty = np.minimum(-np.minimum(deltas, 0), state.holdings)
        sell_notional = float(sell_qty @ prices)
        sell_cost = cfg.cost_rate * sell_notional
        cash += sell_notional - sell_cost

        # buys, bounded by remaining cash after per-leg costs
        buy_qty = np.maximum(deltas, 0)
        buy_notional = float(buy_qty @ prices)
        buy_total = buy_notional * (1.0 + cfg.cost_rate)
        buys_scaled = buy_total > cash and buy_total > 0
        if buys_scaled:
            scale = max(cash, 0.0) / buy_total
            buy_qty = np.floor(buy_qty * scale).astype(np.int64)
            buy_notional = float(buy_qty @ prices)
            while buy_notional * (1.0 + cfg.cost_rate) > cash and buy_qty.any():
                j = int(np.argmax(buy_qty * prices))
                buy_qty[j] -= 1
                buy_notional = float(buy_qty @ prices)
        buy_cost = cfg.cost_rate * buy_notional
        cash -= buy_notional + buy_cost

        new_state = self._state_at(idx + 1, cash, state.holdings - sell_qty + buy_qty,
                                   state.peak_wealth)
        penalty = drawdown_penalty(new_state.wealth, new_state.peak_wealth, cfg.drawdown_alpha)
        reward = step_reward(new_state.wealth - state.wealth, penalty, cfg)
        info = {
            "done": idx + 1 >= self.last_index,
            "cost": sell_cost + buy_cost,
            "sell_notional": sell_notional,
            "buy_notional": buy_notional,
            "gated": gated,
            "turbulence": turb_value,
            "turbulence_available": math.isfinite(turb_value),
            "buys_scaled": buys_scaled,
            "penalty": penalty,
        }
        return new_state, reward, info


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class Policy:
    """Maps a flattened observation to an action in [-1, 1] per ticker.

    ``deterministic`` declares that the action stream depends only on the
    observations, never on the seed given to ``reset``: two rollouts with
    different seeds are then the same episode. ``env_eval`` rolls such a
    policy out once per mask and repeats that rollout on every seed row, so
    its seed summary has std 0 by construction. ``HoldPolicy`` and
    ``SignalThresholdPolicy`` set it; it is False here, so a custom policy is
    rolled out once per seed unless it opts in. Opt in only when ``reset``
    ignores its seed and no state outlives a rollout, or every seed row would
    repeat the first seed's episode.
    """

    deterministic = False

    def reset(self, seed: int | None = None) -> None:
        pass

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class HoldPolicy(Policy):
    deterministic = True

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

    Reads only the signal slice of the observation, so on an environment
    built over a masked signal panel (``mask_axes``) it sees the masked axes
    at the neutral default.
    """

    deterministic = True

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
    seed: int | None = None,
) -> tuple[EquityCurve, np.ndarray, list[dict]]:
    """Roll a policy through a full episode.

    Returns the normalised equity curve, the reward trace, and per-step info
    dicts (with date/wealth/peak attached, ready for the episode log).
    """
    policy.reset(seed)
    state = env.reset(start_date)
    first = state.date_index
    w0 = env.config.initial_cash
    wealth = [state.wealth]
    shares: list[np.ndarray] = []
    costs = [0.0]
    rewards: list[float] = []
    infos: list[dict] = []

    step_idx = 0
    while True:
        obs = env.observation(state)
        action = np.asarray(policy(obs), dtype=float)
        if action.shape != (env.n_tickers,) or not np.isfinite(action).all():
            raise PolicyFaultError(f"policy emitted bad action at step {step_idx}")
        state, reward, info = env.step(state, action)
        rewards.append(reward)
        # each step hands out a fresh dict, so it is extended in place
        info.update(step=step_idx, date=state.date, wealth=state.wealth,
                    peak=state.peak_wealth, reward=reward)
        infos.append(info)
        wealth.append(state.wealth)
        shares.append(state.holdings)
        # the trade at the previous close is booked on the day its P&L lands
        costs.append(info["cost"] / w0)
        step_idx += 1
        if info["done"]:
            break

    days = slice(first, state.date_index + 1)
    wealth_arr = np.asarray(wealth)
    # a day's weights are its shares at its close over its wealth; none on the first day
    holdings = np.zeros((len(wealth), env.n_tickers))
    holdings[1:] = np.asarray(shares) * env.panel.close[days][1:] / wealth_arr[1:, None]
    wealth_arr /= w0
    returns = np.zeros(len(wealth_arr))
    returns[1:] = wealth_arr[1:] / wealth_arr[:-1] - 1.0
    curve = EquityCurve(
        dates=env.panel.dates[days],
        wealth=wealth_arr,
        daily_returns=returns,
        holdings=holdings,
        cost_paid=np.asarray(costs),
        tickers=env.panel.tickers,
    )
    return curve, np.asarray(rewards), infos


def write_episode_log(infos: list[dict], path: str) -> None:
    """Delimited log: step,date,wealth,peak,reward,penalty,turbulence,gated."""
    header = ["step", "date", "wealth", "peak", "reward", "penalty", "turbulence", "gated"]
    floats = np.array([[info[name] for name in header[2:7]] for info in infos],
                      dtype=float).reshape(-1, 5)
    write_table(path, header, [
        np.array([info["step"] for info in infos], dtype=np.int64),
        [info["date"] for info in infos], *floats.T,
        np.array([info["gated"] for info in infos], dtype=np.int64)])
