import numpy as np
import pytest
from hypothesis import settings

from semlab import MarketPanel, SignalPanel, SyntheticSpec, synth_panel

# property tests draw the same examples on every run, so tier-1 stays
# deterministic; no example database is written
settings.register_profile("semlab", derandomize=True, database=None, deadline=None)
settings.load_profile("semlab")


def business_days(start: str, count: int) -> tuple[str, ...]:
    days = np.busday_offset(np.datetime64(start), np.arange(count), roll="forward")
    return tuple(str(d) for d in days)


def make_panel(close: np.ndarray, start: str = "2020-01-02", tickers=None) -> MarketPanel:
    close = np.asarray(close, dtype=float)
    n_d, n_t = close.shape
    tickers = tuple(tickers) if tickers else tuple(f"T{j:02d}" for j in range(n_t))
    return MarketPanel(dates=business_days(start, n_d), tickers=tickers, close=close)


def make_signal_panel(values: np.ndarray, non_neutral=None, start: str = "2020-01-02",
                      tickers=None) -> SignalPanel:
    values = np.asarray(values, dtype=float)
    n_d, n_t = values.shape[:2]
    tickers = tuple(tickers) if tickers else tuple(f"T{j:02d}" for j in range(n_t))
    if non_neutral is None:
        non_neutral = ~np.all(values == 3.0, axis=2)
    return SignalPanel(
        dates=business_days(start, n_d), tickers=tickers,
        values=values, non_neutral=np.asarray(non_neutral, dtype=bool),
    )


@pytest.fixture(scope="session")
def planted_workspace():
    """Medium synthetic panel with a sentiment-only planted effect."""
    spec = SyntheticSpec(
        tickers=10, days=400, coverage=0.5, beta=(0.004, 0.0, 0.0, 0.0),
        drift=0.0002, volatility=0.015, seed=1234,
    )
    panel, signals, truth = synth_panel(spec)
    return panel, signals, truth
