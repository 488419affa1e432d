"""Scalar reference for article aggregation.

One article at a time: the per-article slice-add loop that
``semlab.signals.aggregate_signals`` replaced with one scatter onto
(next trading day, ticker) cells and a cumulative sum over the calendar. Kept
here only as the oracle the vectorised code is checked against; nothing in
``src/`` calls it.
"""

from bisect import bisect_left

import numpy as np

from semlab.signals import NEUTRAL, ArticleScore, SignalPanel


def aggregate(articles: list[ArticleScore], calendar: tuple[str, ...],
              tickers: tuple[str, ...], window: int
              ) -> tuple[SignalPanel, list[ArticleScore], list[ArticleScore]]:
    """The panel, and the articles with an unknown ticker and those dated
    outside the calendar, each in input order."""
    ticker_idx = {t: j for j, t in enumerate(tickers)}
    n_d, n_t = len(calendar), len(tickers)
    sums = np.zeros((n_d, n_t, 4))
    counts = np.zeros((n_d, n_t), dtype=int)
    unmatched: list[ArticleScore] = []
    out_of_range: list[ArticleScore] = []
    for art in articles:
        j = ticker_idx.get(art.ticker)
        if j is None:
            unmatched.append(art)
            continue
        if art.published < calendar[0]:
            out_of_range.append(art)
            continue
        pos = bisect_left(calendar, art.published)
        if pos >= n_d:
            out_of_range.append(art)
            continue
        lo, hi = pos, min(pos + window, n_d - 1)
        sums[lo : hi + 1, j] += np.asarray(art.scores, dtype=float)
        counts[lo : hi + 1, j] += 1

    values = np.full((n_d, n_t, 4), NEUTRAL)
    flags = counts > 0
    values[flags] = sums[flags] / counts[flags, None]
    panel = SignalPanel(dates=calendar, tickers=tickers, values=values, non_neutral=flags)
    return panel, unmatched, out_of_range
