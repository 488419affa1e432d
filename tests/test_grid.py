"""Calendar lookups: the bisecting date span against the linear scan it
replaced, and the ``_grid.Grid`` contract every panel type shares: date
slicing commuting with ticker restriction, calendar and ticker checks, and
the content hash."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlab import (
    BacktestConfig,
    CompositeScore,
    EnvConfig,
    EquityCurve,
    FactorModel,
    FeaturePanel,
    MarketPanel,
    SignalPanel,
    TradingEnv,
    TurbulenceSeries,
    backtest_topk,
    fit_forecaster,
    mask_axes,
    subperiod_report,
)
from semlab._grid import date_span, frozen
from semlab.errors import AlignmentError, LabError, RangeError, ValidationError
from semlab.factors import ForecasterModel
from semlab.metrics import sharpe_ratio

from conftest import business_days

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



@given(calendars.filter(len), universes, st.integers(0, 2**16))
def test_restricted_grid_is_the_grid_built_from_those_columns(dates, keep, seed):
    """The same bytes and strides as a grid built from the kept columns (as a
    file of those tickers would load), so row reductions round alike."""
    cols = [TICKERS.index(t) for t in keep]
    for panel in _panels(dates, seed):
        names = [n for n in ARRAYS if getattr(panel, n, None) is not None]
        built = replace(panel, tickers=tuple(keep), **{
            n: np.ascontiguousarray(getattr(panel, n)[:, cols]) for n in names})
        restricted = panel.restrict(keep)
        for n in names:
            got, want = getattr(restricted, n), getattr(built, n)
            assert (got.strides, got.tobytes()) == (want.strides, want.tobytes()), n

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


def test_equity_curve_cannot_be_restricted():
    # wealth [1.0, 1.2] is the whole basket's; holdings of AA alone would not explain it
    curve = EquityCurve(dates=("2020-01-02", "2020-01-03"), tickers=("AA", "BB"),
                        holdings=np.full((2, 2), 0.5), wealth=np.array([1.0, 1.2]),
                        daily_returns=np.array([0.0, 0.2]), cost_paid=np.zeros(2))
    for keep in (["AA"], ["BB", "AA"], ["AA", "BB"]):
        with pytest.raises(ValidationError, match="an equity curve cannot be restricted"):
            curve.restrict(keep)
    assert curve.slice_dates("2020-01-02", "2020-01-02").wealth.tolist() == [1.0]


def _curve(dates, tickers, wealth=None):
    n = len(dates)
    return EquityCurve(dates=dates, tickers=tickers, holdings=np.zeros((n, len(tickers))),
                       wealth=np.ones(n) if wealth is None else wealth,
                       daily_returns=np.zeros(n), cost_paid=np.zeros(n))


def _grid(kind, dates, tickers):
    """A valid grid of each type on the given axes."""
    shape = (len(dates), len(tickers))
    if kind == "EquityCurve":
        return _curve(dates, tickers)
    if kind == "MarketPanel":
        return MarketPanel(dates=dates, tickers=tickers, close=np.ones(shape))
    if kind == "SignalPanel":
        return SignalPanel(dates=dates, tickers=tickers, values=np.full(shape + (4,), 3.0),
                           non_neutral=np.zeros(shape, dtype=bool))
    if kind == "CompositeScore":
        return CompositeScore(dates=dates, tickers=tickers, values=np.ones(shape))
    return FeaturePanel(dates=dates, tickers=tickers, values=np.ones(shape + (1,)),
                        names=("f",), warmup=0)


@pytest.mark.parametrize("kind", ["MarketPanel", "SignalPanel", "CompositeScore", "FeaturePanel",
                                  "EquityCurve"])
def test_empty_slice_and_repeated_ticker_rejected(kind):
    grid = _grid(kind, ("2020-01-02", "2020-01-03"), ("AA", "BB"))
    for start, end in [("2019-01-01", "2019-12-31"), ("2020-01-04", "2020-02-01"),
                       ("2020-01-03", "2020-01-02")]:
        with pytest.raises(RangeError, match="no dates in"):
            grid.slice_dates(start, end)
    with pytest.raises(ValidationError, match="duplicate ticker 'AA'"):
        _grid(kind, ("2020-01-02", "2020-01-03"), ("AA", "BB", "AA"))
    # an equity curve refuses every restriction (test_equity_curve_cannot_be_restricted)
    refusal = "cannot be restricted" if kind == "EquityCurve" else "duplicate ticker 'BB'"
    with pytest.raises(ValidationError, match=refusal):
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
    # an equity curve hashes its series after its arrays
    holdings = rng.random((3, 2)) / 2
    series = [np.array([1.0, 1.5, 2.0]), rng.random(3), rng.random(3)]
    curve = EquityCurve(dates=dates, tickers=tickers, holdings=holdings, wealth=series[0],
                        daily_returns=series[1], cost_paid=series[2])
    assert curve.content_hash() == _sha256(*head, holdings.tobytes(),
                                           *(a.tobytes() for a in series))
    # a sub-grid is hashed from its own (contiguous) arrays
    sub = full.restrict(["AA"]).slice_dates("2020-01-03", "2020-01-06")
    assert sub.content_hash() == _sha256(b"2020-01-03,2020-01-06", b"AA", *(
        np.ascontiguousarray(prices[n][1:, [1]]).tobytes()
        for n in ("close", "volume", "open", "high", "low")))


def test_curve_sliced_after_its_first_date_must_still_start_at_one():
    dates = ("2020-01-02", "2020-01-03", "2020-01-06")
    curve = _curve(dates, ("AA",), wealth=np.array([1.0, 1.1, 1.2]))
    assert curve.slice_dates(dates[0], dates[1]).wealth.tolist() == [1.0, 1.1]
    with pytest.raises(ValidationError, match="wealth must start at 1.0"):
        curve.slice_dates(dates[1], dates[2])


# The one alignment check at each place that takes a record on another's grid:
# (what the message calls the record, the grid it is checked against, a call
# with that record on the given axes). The turbulence series and the
# subperiod benchmark are checked on dates only.
BASE = business_days("2020-01-02", 6)
SHIFTED = business_days("2020-01-03", 6)
PANEL = _grid("MarketPanel", BASE, TICKERS)
BLOCKS = {"b": np.zeros((6, 4, 1))}
MODEL = ForecasterModel(
    model=FactorModel(feature_names=("b:0",), weights=np.ones(1), intercept=0.0,
                      standardizer_mean=np.zeros(1), standardizer_std=np.ones(1),
                      ridge_strength=1.0, fit_range=("2019-01-02", "2019-12-31")),
    tilt=None, block_names=("b",), validation_table=())


def _env(features=None, signals=None, turbulence=None):
    return TradingEnv(PANEL, features or _grid("FeaturePanel", BASE, TICKERS),
                      signals or _grid("SignalPanel", BASE, TICKERS), turbulence, EnvConfig())


SITES = {
    "backtest_topk": ("scores", "panel", lambda d, t: backtest_topk(
        _grid("CompositeScore", d, t), PANEL, BacktestConfig(k=2))),
    "TradingEnv-features": ("feature panel", "panel",
                            lambda d, t: _env(features=_grid("FeaturePanel", d, t))),
    "TradingEnv-signals": ("signal panel", "panel",
                           lambda d, t: _env(signals=_grid("SignalPanel", d, t))),
    "TradingEnv-turbulence": ("turbulence series", "panel", lambda d, t: _env(
        turbulence=TurbulenceSeries(dates=d, values=np.zeros(len(d))))),
    "subperiod_report": ("benchmark", "equity curve", lambda d, t: subperiod_report(
        _curve(BASE, TICKERS), _curve(d, t), [])),
    "fit_forecaster": ("signal panel", "panel", lambda d, t: fit_forecaster(
        BLOCKS, np.zeros((6, 4)), PANEL, _grid("SignalPanel", d, t),
        (BASE[0], BASE[2]), (BASE[3], BASE[5]), lambda scores: sharpe_ratio(backtest_topk(
            scores, PANEL.slice_dates(BASE[3], BASE[5]), BacktestConfig()).daily_returns[1:]))),
    "score_panel": ("signal panel", "scores", lambda d, t: MODEL.score_panel(
        BLOCKS, BASE, TICKERS, _grid("SignalPanel", d, t))),
}
DATES_ONLY = ("TradingEnv-turbulence", "subperiod_report")


@pytest.mark.parametrize("site, axis", [
    (site, axis) for site in SITES for axis in ("dates", "tickers")
    if axis == "dates" or site not in DATES_ONLY])
def test_misaligned_record_is_one_alignment_error(site, axis):
    what, where, call = SITES[site]
    axes = {"dates": BASE, "tickers": TICKERS}
    moved = {**axes, axis: SHIFTED if axis == "dates" else TICKERS[::-1]}
    with pytest.raises(AlignmentError) as info:
        call(moved["dates"], moved["tickers"])
    assert str(info.value) == (f"{what} not aligned with the {where}: {axis} differ at "
                               f"position 0: {moved[axis][0]!r} vs {axes[axis][0]!r}")


def test_alignment_error_names_the_first_missing_position():
    with pytest.raises(AlignmentError) as info:
        PANEL.check_aligned(_grid("CompositeScore", BASE[:4], TICKERS), "scores")
    assert str(info.value) == ("scores not aligned with the panel: "
                               "dates differ at position 4: nothing vs '2020-01-08'")


def test_subperiod_benchmark_may_hold_another_universe():
    rows = subperiod_report(_curve(BASE, TICKERS), _curve(BASE, ("ZZ",)),
                            [("all", BASE[0], BASE[-1])])
    assert [(r["period"], r["days"], r["benchmark_cr"]) for r in rows] == [("all", 5, 0.0)]


# Freezing: a date slice of a grid keeps its parent's read-only memory; any
# other array a grid is given is copied, so what its caller still holds
# cannot change the grid.

def _grids(dates):
    """One grid of each type, every array and series present."""
    n = len(dates)
    curve = EquityCurve(dates=dates, tickers=TICKERS, holdings=np.full((n, len(TICKERS)), 0.25),
                        wealth=np.linspace(1.0, 2.0, n), daily_returns=np.zeros(n),
                        cost_paid=np.zeros(n))
    return (*_panels(dates, 0), curve)


GRID_IDS = ["MarketPanel", "SignalPanel", "CompositeScore", "FeaturePanel", "EquityCurve"]


def _stored(grid):
    return {name: getattr(grid, name) for name in (*grid.ARRAYS, *grid.SERIES)
            if getattr(grid, name) is not None}


@pytest.mark.parametrize("index", range(5), ids=GRID_IDS)
def test_a_date_slice_shares_its_parents_memory_and_stays_read_only(index):
    grid = _grids(BASE)[index]
    start = 0 if isinstance(grid, EquityCurve) else 1  # a curve's wealth starts at 1.0
    sub = grid.slice_dates(BASE[start], BASE[4])
    subsub = sub.slice_dates(BASE[start], BASE[3])
    parent = _stored(grid)
    for cut in (sub, subsub):
        for name, arr in _stored(cut).items():
            assert np.shares_memory(arr, parent[name]), name
            assert not arr.flags.writeable and arr.flags.c_contiguous, name
            with pytest.raises(ValueError):
                arr.flags.writeable = True


@pytest.mark.parametrize("index", range(4), ids=GRID_IDS[:4])
def test_a_restriction_copies(index):
    grid = _grids(BASE)[index]
    parent = _stored(grid)
    for keep in (TICKERS, TICKERS[::-1], TICKERS[1:3]):
        for name, arr in _stored(grid.restrict(list(keep))).items():
            assert not np.shares_memory(arr, parent[name]), name
            assert not arr.flags.writeable, name


def _writable():
    arr = np.full((6, 4), 2.0)
    return arr, arr


def _read_only_view_of_a_writable_base():
    base = np.full((6, 4), 2.0)
    view = base[:]
    view.flags.writeable = False
    return view, base


def _read_only_strided_view():
    base = np.full((6, 8), 2.0)
    base.flags.writeable = False
    return base[:, ::2], base


def _read_only_view_of_another_dtype():
    base = np.full((6, 4), 2.0, dtype=np.float32)
    base.flags.writeable = False
    return base[:], base


@pytest.mark.parametrize("given", [_writable, _read_only_view_of_a_writable_base,
                                   _read_only_strided_view, _read_only_view_of_another_dtype])
def test_an_array_not_frozen_already_is_copied(given):
    arr, owner = given()
    panel = MarketPanel(dates=BASE, tickers=TICKERS, close=arr)
    assert not np.shares_memory(panel.close, owner)
    assert panel.close.dtype == np.float64 and panel.close.flags.c_contiguous
    assert not panel.close.flags.writeable
    owner.flags.writeable = True  # the caller owns this memory and may write to it later
    owner[...] = 7.0
    assert np.all(panel.close == 2.0)


def test_frozen_returns_a_view_of_a_frozen_array_as_it_is():
    parent = frozen(np.arange(24.0).reshape(6, 4))
    view = parent[1:4]
    assert frozen(view) is view
    # an array that owns its memory can be made writable again, so it is copied
    assert frozen(parent) is not parent
    assert frozen(view, np.int64) is not view


# Value rules: each fault is named by its first cell in row-major order. A
# RuntimeWarning from a check is an error under pyproject's filter, so each
# case also shows that the check raises none.

PRICE_NAMES = ("close", "open", "high", "low")


def _prices_with(name, bad):
    arrays = {n: np.full((6, 4), 10.0) for n in (*PRICE_NAMES, "volume")}
    arrays[name][1, 1] = bad
    arrays[name][2, 0] = bad
    return arrays


# +inf in a price array and NaN in volume are pinned by
# test_panels.py::TestPanelInvariants::test_non_finite_prices_rejected, and
# -1 in volume by test_panels.py::TestPanelInvariants::test_negative_volume_rejected
@pytest.mark.parametrize("name, bad, fault", [
    *((n, b, f) for n in PRICE_NAMES for b, f in (
        (np.nan, "non-finite"), (-np.inf, "non-finite"), (0.0, "non-positive"),
        (-1.0, "non-positive"))),
    ("volume", np.inf, "non-finite"),
])
def test_a_market_panel_names_its_first_bad_cell(name, bad, fault):
    with pytest.raises(ValidationError) as info:
        MarketPanel(dates=BASE, tickers=TICKERS, **_prices_with(name, bad))
    assert str(info.value) == f"{fault} {name} at ({BASE[1]}, BB)"


# NaN, 0.5 and 5.5 on a flagged cell are pinned by
# test_signals.py::TestSignalPanelValues::test_bad_flagged_value_names_the_cell
@pytest.mark.parametrize("bad, message", [
    (4.0, "neutral cells must hold the neutral default exactly"),
    (np.nan, f"signal value nan outside [1, 5] at ({BASE[1]}, BB, confidence)"),
])
def test_a_signal_panel_refuses_content_on_an_unflagged_cell(bad, message):
    flags = np.ones((6, 4), dtype=bool)
    flags[1, 1] = flags[2, 0] = False
    values = np.where(flags[:, :, None], 5.0, np.full((6, 4, 4), 3.0))
    SignalPanel(dates=BASE, tickers=TICKERS, values=values, non_neutral=flags)
    values[1, 1, 2] = values[2, 0, 0] = bad
    with pytest.raises(ValidationError) as info:
        SignalPanel(dates=BASE, tickers=TICKERS, values=values, non_neutral=flags)
    assert str(info.value) == message


# NaN in either is also refused by
# test_backtest.py::TestLedger::test_curve_with_a_nan_row_rejected
@pytest.mark.parametrize("name, message", [
    ("cost_paid", "cost_paid must be non-negative"),
    ("holdings", "holdings must be long-only weights summing to <= 1"),
])
@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_an_equity_curve_refuses_a_negative_or_nan_cost_or_weight(name, message, bad):
    curve = _grids(BASE)[4]
    arr = getattr(curve, name).copy()
    arr[2] = bad
    with pytest.raises(ValidationError) as info:
        replace(curve, **{name: arr})
    assert str(info.value) == message


@pytest.mark.parametrize("name, at, bad, message", [
    ("wealth", 0, np.nan, "wealth must start at 1.0"),
    ("wealth", 2, np.nan, f"non-finite wealth at {BASE[2]}"),
    ("wealth", 3, np.inf, f"non-finite wealth at {BASE[3]}"),
    ("daily_returns", 1, -np.inf, f"non-finite daily_returns at {BASE[1]}"),
    ("daily_returns", 4, np.nan, f"non-finite daily_returns at {BASE[4]}"),
])
def test_an_equity_curve_refuses_a_non_finite_wealth_path(name, at, bad, message):
    curve = _grids(BASE)[4]
    arr = getattr(curve, name).copy()
    arr[at] = bad
    arr[5] = bad
    with pytest.raises(ValidationError) as info:
        replace(curve, **{name: arr})
    assert str(info.value) == message
