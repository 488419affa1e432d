"""Reference rollout of the trading environment.

``TradingEnv.step``, ``TradingEnv.observation`` and ``run_policy`` as they
were before their per-call overhead was taken out: numpy reductions through
their wrappers, ``np.clip``, the gate and turbulence read as numpy scalars,
the drawdown penalty computed twice, the buy leg's dot taken twice, and each
day's holdings weights formed inside the loop. Kept here only as the oracle
the environment is checked against, bit for bit; nothing in ``src/`` calls it.
"""

import numpy as np

from semlab.backtest import EquityCurve
from semlab.env import EnvState, TradingEnv, drawdown_penalty
from semlab.errors import PolicyFaultError, ValidationError


def state_at(env: TradingEnv, idx: int, cash: float, holdings: np.ndarray,
             peak: float) -> EnvState:
    prices = env.panel.close[idx]
    wealth = cash + float(holdings @ prices)
    state = EnvState(
        date_index=idx,
        date=env.panel.dates[idx],
        cash=cash,
        holdings=holdings,
        prices=prices,
        features=env.features.values[idx],
        signals=env.signals.values[idx],
        prior_peak=peak,
    )
    # the state derives its own wealth and peak; the oracle's must agree bit for bit
    assert state.wealth == wealth and state.peak_wealth == max(peak, wealth)
    return state


def observation(env: TradingEnv, state: EnvState) -> np.ndarray:
    parts = [
        np.array([state.cash]),
        state.prices,
        state.holdings.astype(float),
        state.features.T.reshape(-1),
        state.signals.T.reshape(-1),
    ]
    return np.concatenate(parts)


def step(env: TradingEnv, state: EnvState, action) -> tuple[EnvState, float, dict]:
    cfg = env.config
    n_tickers, last_index = env.panel.n_tickers, env.panel.n_dates - 1
    if state.date_index >= last_index:
        return state, 0.0, {"done": True, "note": "episode already finished"}
    action = np.asarray(action, dtype=float)
    if action.shape != (n_tickers,):
        raise ValidationError(f"action shape {action.shape}, expected ({n_tickers},)")
    if not np.all(np.isfinite(action)):
        raise ValidationError("action contains non-finite values")

    idx = state.date_index
    prices = state.prices
    deltas = np.rint(np.clip(action, -1.0, 1.0) * cfg.h_max).astype(np.int64)

    gate = (np.zeros(env.panel.n_dates, dtype=bool) if env.turbulence is None
            else env.turbulence.gate(cfg.turbulence_threshold))
    gated = bool(gate[idx])
    if gated:
        deltas = np.minimum(deltas, 0)
    turb_value = float("nan") if env.turbulence is None else float(env.turbulence.values[idx])

    holdings = np.array(state.holdings, dtype=np.int64)
    cash = state.cash

    sell_qty = np.minimum(-np.minimum(deltas, 0), holdings)
    sell_notional = float(sell_qty @ prices)
    sell_cost = cfg.cost_rate * sell_notional
    cash += sell_notional - sell_cost
    holdings -= sell_qty

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

    new_state = state_at(env, idx + 1, cash, holdings, state.peak_wealth)
    delta_wealth = new_state.wealth - state.wealth
    penalty = drawdown_penalty(new_state.wealth, new_state.peak_wealth, cfg.drawdown_alpha)
    gain = delta_wealth / cfg.initial_cash * cfg.reward_scale
    reward = gain - drawdown_penalty(new_state.wealth, new_state.peak_wealth, cfg.drawdown_alpha)
    info = {
        "done": new_state.date_index >= last_index,
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


def run_policy(env: TradingEnv, policy, start_date=None, seed=None):
    """The equity curve, reward trace and per-step infos of one episode."""
    policy.reset(seed)
    state = env.reset(start_date)
    w0 = env.config.initial_cash
    dates = [state.date]
    wealth = [state.wealth]
    holdings_w = [np.zeros(env.panel.n_tickers)]
    costs = [0.0]
    rewards: list[float] = []
    infos: list[dict] = []

    step_idx = 0
    while True:
        obs = observation(env, state)
        action = np.asarray(policy(obs), dtype=float)
        if action.shape != (env.panel.n_tickers,) or not np.all(np.isfinite(action)):
            raise PolicyFaultError(f"policy emitted bad action at step {step_idx}")
        state, reward, info = step(env, state, action)
        rewards.append(reward)
        info = dict(info)
        info.update(step=step_idx, date=state.date, wealth=state.wealth,
                    peak=state.peak_wealth, reward=reward)
        infos.append(info)
        dates.append(state.date)
        wealth.append(state.wealth)
        holdings_w.append(state.holdings * state.prices / state.wealth)
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
