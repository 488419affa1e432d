"""Scalar reference for the daily top-k basket rule and its SCW weights.

One day at a time: the per-day ranking and target fill that
``semlab.backtest.backtest_topk`` replaced with one sort over the whole
(dates, tickers) score grid, and the per-basket softmax over a dict of
scores that it replaced with one ``semlab.factors.scw_weights`` call per
basket size. Kept here only as the oracle the vectorised code is checked
against; nothing in ``src/`` calls it, and it calls nothing in ``src/``.
"""

import numpy as np


def scw_weights(scores: dict[str, float], basket: list[str],
                temperature: float) -> dict[str, float]:
    """Softmax allocation over one basket: weights ~ exp(score / temperature),
    overflow-safe via max subtraction, summed as one array of the basket's
    length."""
    if not basket:
        raise ValueError("basket is empty")
    if not 0.0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    vals = np.array([scores[t] for t in basket], dtype=float)
    vals = vals / temperature
    vals -= vals.max()
    ex = np.exp(vals)
    w = ex / ex.sum()
    return {t: float(x) for t, x in zip(basket, w)}


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
