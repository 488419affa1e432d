import csv

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from semlab import MarketPanel, SignalPanel, SyntheticSpec, synth_panel

# property tests draw the same examples on every run, so tier-1 stays
# deterministic; no example database is written
settings.register_profile("semlab", derandomize=True, database=None, deadline=None)
settings.load_profile("semlab")


# the bits of any float64: sign, exponent and mantissa drawn apart, with the
# all-zero and all-one exponents and the zero mantissa drawn often, so that
# zeros, subnormals, infinities and NaN payloads all come up
float_bits = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                       st.integers(0, 1),
                       st.one_of(st.sampled_from([0, 2047]), st.integers(0, 2047)),
                       st.one_of(st.just(0), st.integers(0, 2 ** 52 - 1)))


def business_days(start: str, count: int) -> tuple[str, ...]:
    days = np.busday_offset(np.datetime64(start), np.arange(count), roll="forward")
    return tuple(str(d) for d in days)


def study_config(kind: str, outdir, spec: dict, split: int, params: dict) -> dict:
    """A raw ``kind`` config on the inline synthetic ``spec``: train on its
    first ``split`` days, test on the rest."""
    cal = business_days(spec.get("start_date", "2015-01-02"), spec["days"])
    return {"kind": kind, "seed": 7, "output_dir": str(outdir), "data": {"synthetic": spec},
            "ranges": {"train": [cal[0], cal[split - 1]], "test": [cal[split], cal[-1]]},
            "params": params}


def read_rows(path) -> list[dict]:
    """The rows of a written CSV artifact, as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
