"""Scalar references for the artifact writers.

One ``csv.writer`` row per record, each field indexed and formatted on its
own: the bodies the price panel, equity curve, holdings, episode log, article
cache, report table and test results writers had before they became callers
of the block-wise ``_grid.write_table``. Kept here only as the oracles the
writers' bytes are checked against; nothing in ``src/`` calls them.
"""

import csv

import numpy as np

from semlab.metrics import REPORT_COLUMNS
from semlab.panels import PANEL_HEADER, MarketPanel
from semlab.signals import CACHE_HEADER
from semlab.stats import TEST_RESULT_COLUMNS


def write_csv(path: str, header, rows) -> None:
    """``csv.writer`` defaults, the header row first, then each row as it
    comes. csv writes each field's ``str``, which for a Python float is its
    ``repr``, so pass Python floats only (``tolist()``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_price_panel(panel: MarketPanel, path: str) -> None:
    """Write a panel in the long-form interchange format."""
    write_csv(path, PANEL_HEADER, (
        [
            d, t,
            repr(float(panel.open[i, j])) if panel.open is not None else repr(float(panel.close[i, j])),
            repr(float(panel.high[i, j])) if panel.high is not None else repr(float(panel.close[i, j])),
            repr(float(panel.low[i, j])) if panel.low is not None else repr(float(panel.close[i, j])),
            repr(float(panel.close[i, j])),
            repr(float(panel.volume[i, j])) if panel.volume is not None else "0.0",
        ]
        for i, d in enumerate(panel.dates) for j, t in enumerate(panel.tickers)))


def write_equity_curve(curve, path: str, holdings_path: str | None = None) -> None:
    """date,wealth,daily_return,cost_paid (+ optional holdings file)."""
    write_csv(path, ["date", "wealth", "daily_return", "cost_paid"], zip(
        curve.dates, curve.wealth.tolist(), curve.daily_returns.tolist(),
        curve.cost_paid.tolist()))
    if holdings_path is not None:
        ii, jj = np.nonzero(curve.holdings)
        write_csv(holdings_path, ["date", "ticker", "weight"], (
            [curve.dates[i], curve.tickers[j], repr(w)] for i, j, w in
            zip(ii.tolist(), jj.tolist(), curve.holdings[ii, jj].tolist())))


def write_episode_log(infos: list[dict], path: str) -> None:
    """step,date,wealth,peak,reward,penalty,turbulence,gated."""
    header = ["step", "date", "wealth", "peak", "reward", "penalty", "turbulence", "gated"]
    floats = np.array([[info[name] for name in header[2:7]] for info in infos], dtype=float)
    write_csv(path, header, (
        [info["step"], info["date"], *values, int(info["gated"])]
        for info, values in zip(infos, floats.tolist())))


def write_article_scores(articles, path: str) -> None:
    """One row per article."""
    write_csv(path, CACHE_HEADER, zip(
        articles.source_ids, articles.tickers, articles.dates, *articles.scores.T.tolist()))


def write_report_table(rows: list[dict], path: str) -> None:
    """One row per strategy."""
    write_csv(path, ["strategy", *REPORT_COLUMNS], (
        [row["strategy"]] + [f"{row[c]:.6f}" for c in REPORT_COLUMNS] for row in rows))


def write_test_results(rows: list[dict], path: str) -> None:
    """The paired-diagnostics column set."""
    write_csv(path, TEST_RESULT_COLUMNS, (
        [row["comparison"], *[f"{row[c]:.6f}" for c in TEST_RESULT_COLUMNS[1:]]] for row in rows))
