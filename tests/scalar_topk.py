"""Scalar reference for the daily top-k basket rule.

One day at a time: the per-day ranking and target fill that
``semlab.backtest.backtest_topk`` replaced with one sort over the whole
(dates, tickers) score grid. Kept here only as the oracle the vectorised code
is checked against; nothing in ``src/`` calls it.
"""

import numpy as np

from semlab.factors import scw_weights


def rank_basket(scores_row: np.ndarray, tickers: tuple[str, ...], k: int) -> list[int]:
    """Top-k ticker indices by score, ties broken lexicographically."""
    available = [j for j in range(len(tickers)) if np.isfinite(scores_row[j])]
    order = sorted(available, key=lambda j: (-scores_row[j], tickers[j]))
    return order[:k]


def topk_targets(values: np.ndarray, tickers: tuple[str, ...], k: int,
                 weighting="equal") -> tuple[np.ndarray, int]:
    """Target weights of the top-k rule and the number of short-basket days.

    ``weighting`` is "equal" or ("scw", temperature). A day with fewer than k
    finite scores shrinks the basket; a day with none holds the previous row.
    """
    n_d, n_t = values.shape
    targets = np.zeros((n_d, n_t))
    short_days = 0
    for d in range(n_d):
        basket = rank_basket(values[d], tickers, k)
        if not basket:
            targets[d] = targets[d - 1] if d > 0 else 0.0
            continue
        if len(basket) < k:
            short_days += 1
        if weighting == "equal":
            for j in basket:
                targets[d, j] = 1.0 / len(basket)
        else:
            row = {tickers[j]: float(values[d, j]) for j in basket}
            w = scw_weights(row, [tickers[j] for j in basket], float(weighting[1]))
            for j in basket:
                targets[d, j] = w[tickers[j]]
    return targets, short_days
