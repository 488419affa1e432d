"""Calendar lookups: the bisecting date span against the linear scan it
replaced, and the ``_grid.Grid`` contract every panel type shares: date
slicing commuting with ticker restriction, calendar and ticker checks, and
the content hash."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlab import CompositeScore, EquityCurve, FeaturePanel, MarketPanel, SignalPanel, mask_axes
from semlab._grid import date_span
from semlab.errors import LabError, RangeError, ValidationError

TICKERS = ("AA", "BB", "CC", "DD")
ARRAYS = ("close", "volume", "open", "high", "low", "values", "non_neutral")


def scan_span(dates, start, end):
    """Oracle: the linear scan the panels used before bisection."""
    keep = [i for i, d in enumerate(dates) if start <= d <= end]
    return (keep[0], keep[-1] + 1) if keep else None


def iso(day: int) -> str:
    return str(np.datetime64("2020-01-01") + day)


# trading days are a random subset of 60 calendar days; bounds range from
# before the first day to after the last and land between trading days
calendars = st.sets(st.integers(0, 60), max_size=25).map(lambda s: tuple(iso(n) for n in sorted(s)))
bounds = st.integers(-5, 65).map(iso)
universes = st.permutations(TICKERS).flatmap(
    lambda perm: st.integers(0, len(perm)).map(lambda k: list(perm[:k]))
)


@given(calendars, bounds, bounds)
def test_date_span_matches_linear_scan(dates, start, end):
    span = date_span(dates, start, end)
    assert span.start <= span.stop
    got = (span.start, span.stop) if span.start < span.stop else None
    assert got == scan_span(dates, start, end)


def _panels(dates, seed):
    rng = np.random.default_rng(seed)
    shape = (len(dates), len(TICKERS))
    prices = {n: 1.0 + rng.random(shape) for n in ("close", "open", "high", "low", "volume")}
    values = rng.integers(1, 6, size=shape + (4,)).astype(float)
    flags = rng.random(shape) < 0.5
    values[~flags] = 3.0
    return (
        MarketPanel(dates=dates, tickers=TICKERS, **prices),
        SignalPanel(dates=dates, tickers=TICKERS, values=values, non_neutral=flags),
        CompositeScore(dates=dates, tickers=TICKERS, values=rng.normal(size=shape)),
        FeaturePanel(dates=dates, tickers=TICKERS, values=rng.normal(size=shape + (2,)),
                     names=("f0", "f1"), warmup=0),
    )


def _outcome(call):
    try:
        return call()
    except LabError as exc:
        return type(exc)


@given(calendars.filter(len), universes, bounds, bounds, st.integers(0, 2**16))
def test_slice_dates_and_restrict_commute(dates, keep, start, end, seed):
    expected = scan_span(dates, start, end)
    for panel in _panels(dates, seed):
        a = _outcome(lambda: panel.slice_dates(start, end).restrict(keep))
        b = _outcome(lambda: panel.restrict(keep).slice_dates(start, end))
        if expected is None:
            assert a is b and issubclass(a, LabError)
            continue
        rows = slice(*expected)
        cols = [TICKERS.index(t) for t in keep]
        for sub in (a, b):
            assert sub.dates == dates[rows]
            assert sub.tickers == tuple(keep)
            for name in ARRAYS:
                if getattr(panel, name, None) is not None:
                    np.testing.assert_array_equal(getattr(sub, name),
                                                  getattr(panel, name)[rows][:, cols])


@pytest.mark.parametrize("build", [
    lambda d: MarketPanel(dates=d, tickers=("AA",), close=np.ones((2, 1))),
    lambda d: SignalPanel(dates=d, tickers=("AA",), values=np.full((2, 1, 4), 3.0),
                          non_neutral=np.zeros((2, 1), dtype=bool)),
    lambda d: CompositeScore(dates=d, tickers=("AA",), values=np.ones((2, 1))),
    lambda d: FeaturePanel(dates=d, tickers=("AA",), values=np.ones((2, 1, 1)), names=("f",),
                           warmup=0),
    lambda d: EquityCurve(dates=d, wealth=np.ones(2), daily_returns=np.zeros(2),
                          holdings=np.zeros((2, 1)), cost_paid=np.zeros(2), tickers=("AA",)),
], ids=["MarketPanel", "SignalPanel", "CompositeScore", "FeaturePanel", "EquityCurve"])
def test_unsorted_calendar_rejected(build):
    build(("2020-01-02", "2020-01-03"))
    with pytest.raises(ValidationError, match="strictly increasing"):
        build(("2020-01-03", "2020-01-02"))


def test_equity_curve_rejects_repeated_ticker():
    def curve(tickers):
        return EquityCurve(dates=("2020-01-02", "2020-01-03"), wealth=np.ones(2),
                           daily_returns=np.zeros(2), holdings=np.zeros((2, 2)),
                           cost_paid=np.zeros(2), tickers=tickers)

    curve(("A", "B"))
    with pytest.raises(ValidationError, match="duplicate ticker 'A' in equity curve"):
        curve(("A", "A"))


def _grid(kind, dates, tickers):
    """A valid grid of each type on the given axes."""
    shape = (len(dates), len(tickers))
    if kind == "MarketPanel":
        return MarketPanel(dates=dates, tickers=tickers, close=np.ones(shape))
    if kind == "SignalPanel":
        return SignalPanel(dates=dates, tickers=tickers, values=np.full(shape + (4,), 3.0),
                           non_neutral=np.zeros(shape, dtype=bool))
    if kind == "CompositeScore":
        return CompositeScore(dates=dates, tickers=tickers, values=np.ones(shape))
    return FeaturePanel(dates=dates, tickers=tickers, values=np.ones(shape + (1,)),
                        names=("f",), warmup=0)


@pytest.mark.parametrize("kind", ["MarketPanel", "SignalPanel", "CompositeScore", "FeaturePanel"])
def test_empty_slice_and_repeated_ticker_rejected(kind):
    grid = _grid(kind, ("2020-01-02", "2020-01-03"), ("AA", "BB"))
    for start, end in [("2019-01-01", "2019-12-31"), ("2020-01-04", "2020-02-01"),
                       ("2020-01-03", "2020-01-02")]:
        with pytest.raises(RangeError, match="no dates in"):
            grid.slice_dates(start, end)
    with pytest.raises(ValidationError, match="duplicate ticker 'AA'"):
        _grid(kind, ("2020-01-02", "2020-01-03"), ("AA", "BB", "AA"))
    with pytest.raises(ValidationError, match="duplicate ticker 'BB'"):
        grid.restrict(["BB", "BB"])


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def test_content_hash_matches_the_written_out_formula():
    """The manifests' ``input_hashes`` digest: the joined dates, the joined
    tickers, each present array's bytes in declaration order, and for a
    signal panel the sorted masked axes."""
    dates, tickers = ("2020-01-02", "2020-01-03", "2020-01-06"), ("BB", "AA")
    rng = np.random.default_rng(0)
    prices = {n: 1.0 + rng.random((3, 2)) for n in ("close", "volume", "open", "high", "low")}
    head = (b"2020-01-02,2020-01-03,2020-01-06", b"BB,AA")

    full = MarketPanel(dates=dates, tickers=tickers, **prices)
    assert full.content_hash() == _sha256(*head, *(prices[n].tobytes() for n in
                                                   ("close", "volume", "open", "high", "low")))
    close_only = MarketPanel(dates=dates, tickers=tickers, close=prices["close"])
    assert close_only.content_hash() == _sha256(*head, prices["close"].tobytes())

    values = rng.integers(1, 6, size=(3, 2, 4)).astype(float)
    flags = np.array([[True, False], [False, True], [True, True]])
    values[~flags] = 3.0
    signals = mask_axes(SignalPanel(dates=dates, tickers=tickers, values=values, non_neutral=flags),
                        {"risk", "confidence"})
    masked = values.copy()
    masked[:, :, 1:3] = 3.0
    assert signals.content_hash() == _sha256(*head, masked.tobytes(), flags.tobytes(),
                                             b"confidence,risk")
    # a sub-grid is hashed from its own (contiguous) arrays
    sub = full.restrict(["AA"]).slice_dates("2020-01-03", "2020-01-06")
    assert sub.content_hash() == _sha256(b"2020-01-03,2020-01-06", b"AA", *(
        np.ascontiguousarray(prices[n][1:, [1]]).tobytes()
        for n in ("close", "volume", "open", "high", "low")))
