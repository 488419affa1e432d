"""Scalar reference for the target-weight ledger.

One day at a time: the per-day mark, trade test and rebalance that
``semlab.backtest.run_weight_schedule`` replaced with one vectorised trade
mask, a loop over trade days only and one row sum per run of held days. Kept
here only as the oracle the ledger is checked against; nothing in ``src/``
calls it.
"""

import numpy as np


def ledger(close: np.ndarray, targets: np.ndarray, cost_rate: float):
    """(wealth, cost_paid, daily_returns) of a target schedule on the closes.

    A day trades at its close when its targets differ from the last traded
    ones (all cash at the start); the final close never trades. A trade's
    cost is booked on the next day, whose mark it first lowers.
    """
    n_d, n_t = close.shape
    cash = 1.0
    shares = np.zeros(n_t)
    wealth = np.empty(n_d)
    cost_paid = np.zeros(n_d)
    last_target = np.zeros(n_t)
    pending_cost = 0.0

    for d in range(n_d):
        prices = close[d]
        pos_val = shares * prices
        wealth[d] = cash + pos_val.sum()
        cost_paid[d] = pending_cost
        pending_cost = 0.0
        if d == n_d - 1:
            break
        if not np.array_equal(targets[d], last_target):
            value = wealth[d]
            target_val = targets[d] * value
            traded = np.abs(target_val - pos_val).sum()
            cost = cost_rate * traded
            shares = target_val / prices
            cash = value - target_val.sum() - cost
            pending_cost = cost
            last_target = targets[d].copy()

    daily_returns = np.zeros(n_d)
    daily_returns[1:] = wealth[1:] / wealth[:-1] - 1.0
    return wealth, cost_paid, daily_returns
