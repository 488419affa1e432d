"""Scalar reference for article aggregation.

One article at a time: the per-article slice-add loop that
``semlab.signals.aggregate_signals`` replaced with one scatter onto
(next trading day, ticker) cells and a cumulative sum over the calendar. Kept
here only as the oracle the vectorised code is checked against; nothing in
``src/`` calls it.
"""

from bisect import bisect_left

import numpy as np

from semlab.signals import NEUTRAL, ArticleTable, SignalPanel


def _rows(articles: ArticleTable, rows: list[int]) -> ArticleTable:
    return ArticleTable(
        source_ids=[articles.source_ids[r] for r in rows],
        tickers=[articles.tickers[r] for r in rows],
        dates=[articles.dates[r] for r in rows],
        scores=articles.scores[rows].reshape(-1, 4),
    )


def aggregate(articles: ArticleTable, calendar: tuple[str, ...],
              tickers: tuple[str, ...], window: int
              ) -> tuple[SignalPanel, ArticleTable, ArticleTable]:
    """The panel, and the articles with an unknown ticker and those dated
    outside the calendar, each in input order."""
    ticker_idx = {t: j for j, t in enumerate(tickers)}
    n_d, n_t = len(calendar), len(tickers)
    sums = np.zeros((n_d, n_t, 4))
    counts = np.zeros((n_d, n_t), dtype=int)
    unmatched: list[int] = []
    out_of_range: list[int] = []
    for r, (ticker, published) in enumerate(zip(articles.tickers, articles.dates)):
        j = ticker_idx.get(ticker)
        if j is None:
            unmatched.append(r)
            continue
        if published < calendar[0]:
            out_of_range.append(r)
            continue
        pos = bisect_left(calendar, published)
        if pos >= n_d:
            out_of_range.append(r)
            continue
        lo, hi = pos, min(pos + window, n_d - 1)
        sums[lo : hi + 1, j] += articles.scores[r].astype(float)
        counts[lo : hi + 1, j] += 1

    values = np.full((n_d, n_t, 4), NEUTRAL)
    flags = counts > 0
    values[flags] = sums[flags] / counts[flags, None]
    panel = SignalPanel(dates=calendar, tickers=tickers, values=values, non_neutral=flags)
    return panel, _rows(articles, unmatched), _rows(articles, out_of_range)
