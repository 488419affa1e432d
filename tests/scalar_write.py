"""Scalar reference for the price panel writer.

One ``csv.writer`` row per (date, ticker) cell, each field indexed and
formatted on its own: the body ``semlab.panels.write_price_panel`` had before
it became a caller of the block-wise ``_grid.write_grid``. Kept here only as
the oracle the writer's bytes are checked against; nothing in ``src/`` calls
it.
"""

from semlab._grid import write_csv
from semlab.panels import PANEL_HEADER, MarketPanel


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
