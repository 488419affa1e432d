"""Four-axis news signals: the article table, trailing-window aggregation to a
trading panel with neutral defaults, coverage accounting, masking, and the
effective-dimensionality check.

An article carries four integer scores in {1..5} (sentiment, risk,
confidence, volatility_forecast). The trading panel holds per-(date, ticker)
per-axis means over a trailing trading-day window; cells with no news get the
neutral vector (3, 3, 3, 3) and a cleared presence flag. Presence — not the
score value — defines coverage: news that happens to average exactly 3.0 is
still covered.
"""

from __future__ import annotations

import csv
import hashlib
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._grid import check_date, check_increasing, check_unique, date_span, records, ticker_positions
from .errors import ParseError, RankError, ValidationError

AXES = ("sentiment", "risk", "confidence", "volatility_forecast")
NEUTRAL = 3.0

# Default per-axis score distributions for the mock scorer, over {1..5}.
# Chosen so the axis means land on 3.35 / 2.47 / 3.51 / 2.74 with the
# right-skewed risk/volatility shape typical of financial headlines.
DEFAULT_SCORE_DISTRIBUTIONS: dict[str, tuple[float, ...]] = {
    "sentiment": (0.05, 0.15, 0.35, 0.30, 0.15),
    "risk": (0.20, 0.35, 0.28, 0.12, 0.05),
    "confidence": (0.02, 0.08, 0.38, 0.41, 0.11),
    "volatility_forecast": (0.10, 0.30, 0.39, 0.18, 0.03),
}


def _frozen_array(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _score_error(scores: np.ndarray, dates, tickers) -> tuple[int, str] | None:
    """The first row of an (n, 4) score array with a score outside [1, 5] and
    the message naming it, or None when every score is in range."""
    bad = (scores < 1) | (scores > 5)
    if not bad.any():
        return None
    r, a = np.argwhere(bad)[0]
    return int(r), f"{AXES[a]} score {scores[r, a]} outside [1, 5] for ({dates[r]}, {tickers[r]})"


@dataclass(frozen=True, eq=False)
class ArticleTable:
    """Scored articles held as columns: ``source_ids``, ``tickers`` and
    ``dates`` (ISO calendar dates) string tuples and a read-only (n, 4)
    integer ``scores`` array, one row per article, every score in [1, 5].
    """

    source_ids: tuple[str, ...]
    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    scores: np.ndarray  # (n, 4) int64, one row per article, axes in AXES order

    def __post_init__(self) -> None:
        for name in ("source_ids", "tickers", "dates"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        scores = _frozen_array(self.scores, np.int64)
        if scores.ndim != 2 or scores.shape[1] != 4:
            raise ValidationError(f"scores shape {scores.shape}, expected (n, 4)")
        lengths = (len(self.source_ids), len(self.tickers), len(self.dates))
        if lengths != (len(scores),) * 3:
            raise ValidationError(
                f"column lengths {lengths} (source_ids, tickers, dates) differ from "
                f"{len(scores)} score rows"
            )
        error = _score_error(scores, self.dates, self.tickers)
        if error is not None:
            raise ValidationError(error[1])
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if isinstance(other, ArticleTable):
            return (
                (self.source_ids, self.tickers, self.dates)
                == (other.source_ids, other.tickers, other.dates)
                and np.array_equal(self.scores, other.scores)
            )
        return NotImplemented

    __hash__ = None

    def _take(self, rows: np.ndarray) -> "ArticleTable":
        """The articles at the given positions, in that order."""
        rows = rows.tolist()
        picked = ([col[r] for r in rows] for col in (self.source_ids, self.tickers, self.dates))
        return ArticleTable(*picked, self.scores[rows])


@dataclass(frozen=True)
class SignalPanel:
    """Per-(date, ticker) four-axis signal means with presence flags.

    ``non_neutral[d, t]`` is the presence flag set at aggregation time;
    wherever it is False the stored vector equals the neutral default
    bit-exactly. ``masked_axes`` records evaluation-time masking; once every
    axis is masked no cell carries content and the flags clear.
    """

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    values: np.ndarray  # (dates, tickers, 4)
    non_neutral: np.ndarray  # (dates, tickers) bool
    masked_axes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "masked_axes", frozenset(self.masked_axes))
        check_increasing(self.dates)
        check_unique(self.tickers)
        values = _frozen_array(self.values, float)
        flags = _frozen_array(self.non_neutral, bool)
        shape = (len(self.dates), len(self.tickers))
        if values.shape != shape + (4,):
            raise ValidationError(f"values shape {values.shape}, expected {shape + (4,)}")
        if flags.shape != shape:
            raise ValidationError(f"non_neutral shape {flags.shape}, expected {shape}")
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        if values.size and not (values.min() >= 1.0 and values.max() <= 5.0):
            d, t, a = np.argwhere(~((values >= 1.0) & (values <= 5.0)))[0]
            raise ValidationError(
                f"signal value {float(values[d, t, a])} outside [1, 5] at "
                f"({self.dates[d]}, {self.tickers[t]}, {AXES[a]})"
            )
        if not np.all(values[~flags] == NEUTRAL):
            raise ValidationError("neutral cells must hold the neutral default exactly")
        bad = self.masked_axes - set(AXES)
        if bad:
            raise ValidationError(f"unknown axis names: {sorted(bad)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "non_neutral", flags)

    @property
    def deviations(self) -> np.ndarray:
        """(dates, tickers, 4) signal deviations from the neutral default."""
        return self.values - NEUTRAL

    def axis(self, name: str) -> np.ndarray:
        if name not in AXES:
            raise ValidationError(f"unknown axis {name!r}")
        return self.values[:, :, AXES.index(name)]

    def slice_dates(self, start: str, end: str) -> "SignalPanel":
        sl = date_span(self.dates, start, end)
        if sl.start == sl.stop:
            raise ValidationError(f"no signal dates in [{start}, {end}]")
        return self._select(sl, self.tickers, slice(None))

    def restrict(self, tickers: list[str] | tuple[str, ...]) -> "SignalPanel":
        return self._select(slice(None), tuple(tickers), ticker_positions(self.tickers, tickers))

    def _select(self, rows: slice, tickers: tuple[str, ...], cols) -> "SignalPanel":
        return SignalPanel(
            dates=self.dates[rows], tickers=tickers, values=self.values[rows, cols],
            non_neutral=self.non_neutral[rows, cols], masked_axes=self.masked_axes,
        )

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(",".join(self.dates).encode())
        h.update(",".join(self.tickers).encode())
        h.update(np.ascontiguousarray(self.values).tobytes())
        h.update(np.ascontiguousarray(self.non_neutral).tobytes())
        h.update(",".join(sorted(self.masked_axes)).encode())
        return h.hexdigest()

    def equals(self, other: "SignalPanel") -> bool:
        return (
            self.dates == other.dates
            and self.tickers == other.tickers
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.non_neutral, other.non_neutral)
            and self.masked_axes == other.masked_axes
        )


@dataclass(frozen=True)
class CoverageReport:
    """Per-ticker coverage fractions and tercile labels.

    ``any_fraction`` counts stock-days with news present (the presence flag);
    ``value_fractions`` counts stock-days whose stored score differs from 3.0,
    per axis and for any axis — the imputation-based definition, reported
    side by side because news can average to exactly 3.0.
    """

    tickers: tuple[str, ...]
    any_fraction: dict[str, float]
    value_fractions: dict[str, dict[str, float]]  # ticker -> axis/"any" -> fraction
    terciles: dict[str, str]  # ticker -> "Low" | "Mid" | "High"

    def tercile_members(self, label: str) -> list[str]:
        return [t for t in self.tickers if self.terciles[t] == label]


@dataclass(frozen=True)
class AggregationReport:
    """Articles that could not be placed on the panel, each in input order."""

    unmatched_tickers: ArticleTable
    out_of_calendar: ArticleTable

    @property
    def total(self) -> int:
        return len(self.unmatched_tickers) + len(self.out_of_calendar)


# ---------------------------------------------------------------------------
# Mock scorer
# ---------------------------------------------------------------------------

def mock_score(
    text: str,
    ticker: str,
    seed: int,
    distributions: dict[str, tuple[float, ...]] | None = None,
) -> tuple[int, int, int, int]:
    """Deterministic hash-based stand-in for a hosted scoring model: the four
    integer scores of one article, in AXES order.

    The (text, ticker, seed) triple is hashed into one uniform draw per axis
    and pushed through the axis distribution's inverse CDF, so the same
    inputs always produce the same integer scores and the sample shape tracks
    the configured distributions. Never fails, even on empty text.
    """
    dists = DEFAULT_SCORE_DISTRIBUTIONS if distributions is None else distributions
    scores = []
    for axis in AXES:
        probs = dists[axis]
        if len(probs) != 5 or abs(sum(probs) - 1.0) > 1e-9 or min(probs) < 0:
            raise ValidationError(f"bad score distribution for {axis}")
        digest = hashlib.blake2b(
            f"{seed}|{axis}|{ticker}|{text}".encode(), digest_size=8
        ).digest()
        u = int.from_bytes(digest, "big") / 2**64
        cum = 0.0
        value = 5
        for level, p in enumerate(probs, start=1):
            cum += p
            if u < cum:
                value = level
                break
        scores.append(value)
    return tuple(scores)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _codes(keys: tuple[str, ...], code: dict[str, int]) -> np.ndarray:
    """``code`` of each key (-1 for a key it lacks) as an int64 array."""
    return np.fromiter(map(code.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))


def _trailing(x: np.ndarray, window: int) -> np.ndarray:
    """Sums over each date's trailing ``window + 1`` rows of ``x`` (axis 0,
    clipped at the first date), from one cumulative sum."""
    c = np.cumsum(x, axis=0)
    return np.concatenate([c[: window + 1], c[window + 1 :] - c[: -window - 1]])


def aggregate_signals(
    articles: ArticleTable,
    calendar: list[str] | tuple[str, ...],
    tickers: list[str] | tuple[str, ...],
    window: int = 3,
) -> tuple[SignalPanel, AggregationReport]:
    """Aggregate article scores onto the trading calendar.

    Each (day d, ticker) cell averages, per axis, every article placed on a
    trading day in [d - window, d], counted in trading days with both ends
    inclusive: ``window + 1`` trading days, so ``window=0`` is same-day
    only. Articles dated between trading days roll forward to the next
    trading day. Cells with no articles get the neutral default and a cleared
    presence flag. Articles for unknown tickers or beyond the calendar are
    returned in the report, never silently dropped.

    Scores are integers, so the per-cell sums are exact and each mean is one
    division.
    """
    calendar = tuple(calendar)
    tickers = tuple(tickers)
    if not calendar:
        raise ValidationError("calendar is empty")
    if window < 0:
        raise ValidationError(f"window must be >= 0, got {window}")
    check_increasing(calendar, "calendar")
    n_d, n_t = len(calendar), len(tickers)

    # each article's ticker column and its next trading day at or after the
    # publication date (searched once per distinct date); -1 marks a ticker
    # not in the universe or a date before the calendar starts or after it ends
    distinct = list(set(articles.dates))
    when = np.asarray(distinct, dtype=str)
    pos = np.searchsorted(np.asarray(calendar, dtype=str), when)
    next_day = dict(zip(distinct, np.where((when >= calendar[0]) & (pos < n_d), pos, -1).tolist()))
    col = _codes(articles.tickers, {t: j for j, t in enumerate(tickers)})
    day = _codes(articles.dates, next_day)
    unmatched = col < 0
    out_of_range = ~unmatched & (day < 0)
    placed = ~(unmatched | out_of_range)

    cell = day[placed] * n_t + col[placed]
    counts = np.bincount(cell, minlength=n_d * n_t).reshape(n_d, n_t)
    sums = np.zeros(n_d * n_t * 4, dtype=np.int64)
    np.add.at(sums, (cell[:, None] * 4 + np.arange(4)).ravel(), articles.scores[placed].ravel())
    counts = _trailing(counts, window)
    sums = _trailing(sums.reshape(n_d, n_t, 4), window)

    values = np.full((n_d, n_t, 4), NEUTRAL)
    flags = counts > 0
    values[flags] = sums[flags] / counts[flags, None]
    panel = SignalPanel(dates=calendar, tickers=tickers, values=values, non_neutral=flags)
    report = AggregationReport(
        unmatched_tickers=articles._take(np.flatnonzero(unmatched)),
        out_of_calendar=articles._take(np.flatnonzero(out_of_range)),
    )
    return panel, report


def coverage_stats(panel: SignalPanel) -> CoverageReport:
    """Per-ticker coverage fractions and tercile assignment.

    Terciles split the universe into Low/Mid/High by presence-based any-axis
    coverage, ties broken lexicographically by ticker; group sizes differ by
    at most one (extra names land in the lower groups first).
    """
    n_d = len(panel.dates)
    any_frac: dict[str, float] = {}
    value_fracs: dict[str, dict[str, float]] = {}
    for j, t in enumerate(panel.tickers):
        present = panel.non_neutral[:, j]
        any_frac[t] = float(present.sum()) / n_d if n_d else 0.0
        per_axis = {
            axis: float((panel.values[:, j, a] != NEUTRAL).sum()) / n_d if n_d else 0.0
            for a, axis in enumerate(AXES)
        }
        per_axis["any"] = (
            float((panel.values[:, j] != NEUTRAL).any(axis=1).sum()) / n_d if n_d else 0.0
        )
        value_fracs[t] = per_axis

    order = sorted(panel.tickers, key=lambda t: (any_frac[t], t))
    groups = np.array_split(np.array(order, dtype=object), 3)
    terciles: dict[str, str] = {}
    for label, group in zip(("Low", "Mid", "High"), groups):
        for t in group:
            terciles[str(t)] = label
    return CoverageReport(
        tickers=panel.tickers,
        any_fraction=any_frac,
        value_fractions=value_fracs,
        terciles=terciles,
    )


def _mask_axis_set(axes: set[str] | frozenset[str] | str) -> frozenset[str]:
    """The axes a mask names: a set of axis names, or the string "ALL"."""
    if isinstance(axes, str):
        if axes != "ALL":
            raise ValidationError(f"unknown axis name {axes!r} (did you mean 'ALL'?)")
        return frozenset(AXES)
    axes = frozenset(axes)
    unknown = axes - set(AXES)
    if unknown:
        raise ValidationError(f"unknown axis names: {sorted(unknown)}")
    return axes


def mask_axes(panel: SignalPanel, axes: set[str] | frozenset[str] | str) -> SignalPanel:
    """Return a copy with the selected coordinates pinned to 3.0 everywhere.

    ``axes`` is a set of axis names or the string "ALL". Other coordinates
    are untouched and the input panel is never modified. Masks accumulate:
    once all four axes are masked, no cell carries content and the presence
    flags clear. Masking is a projection — repeating or splitting the same
    mask set gives an identical panel.
    """
    masked = panel.masked_axes | _mask_axis_set(axes)
    values = np.array(panel.values, copy=True)
    for a, axis in enumerate(AXES):
        if axis in masked:
            values[:, :, a] = NEUTRAL
    flags = panel.non_neutral if masked != set(AXES) else np.zeros_like(panel.non_neutral)
    return SignalPanel(
        dates=panel.dates, tickers=panel.tickers,
        values=values, non_neutral=flags, masked_axes=masked,
    )


# ---------------------------------------------------------------------------
# Effective dimensionality
# ---------------------------------------------------------------------------

def _axis_stats(panel: SignalPanel, days=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axis values of the non-neutral stock-days on ``days`` (a slice or
    boolean mask over the dates), with their per-axis mean and std (ddof=1)."""
    rows = panel.values[days][panel.non_neutral[days]]
    if rows.shape[0] < 5:
        raise RankError(
            f"need at least 5 non-neutral stock-days, have {rows.shape[0]}"
        )
    mean = rows.mean(axis=0)
    std = rows.std(axis=0, ddof=1)
    if np.any(std == 0):
        flat = [AXES[a] for a in np.where(std == 0)[0]]
        raise RankError(f"constant axis values over non-neutral stock-days: {flat}")
    return rows, mean, std


def _principal_axes(
    rows: np.ndarray, mean: np.ndarray, std: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-component loadings and explained fractions of the standardised
    ``rows`` (see ``pca_effective_dim``)."""
    z = (rows - mean) / std
    corr = (z.T @ z) / (rows.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    loadings = eigvecs[:, 0]
    if loadings[AXES.index("sentiment")] < 0:
        loadings = -loadings
    explained = eigvals / eigvals.sum()
    return loadings, explained


def pca_effective_dim(panel: SignalPanel) -> tuple[np.ndarray, np.ndarray]:
    """Principal components of the standardised axis values over stock-days
    with news present.

    Returns (first-component loadings, explained-variance fractions sorted
    descending). The leading component's sign is fixed so its sentiment
    loading is non-negative. Fractions sum to one.
    """
    return _principal_axes(*_axis_stats(panel))


# ---------------------------------------------------------------------------
# Article score cache interchange format
# ---------------------------------------------------------------------------

CACHE_HEADER = ("source_id", "ticker", "date") + AXES


def write_article_scores(articles: ArticleTable, path: str) -> None:
    """Write the cache that ``load_article_scores`` reads, one row per article."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CACHE_HEADER)
        writer.writerows(zip(
            articles.source_ids, articles.tickers, articles.dates, *articles.scores.T.tolist()
        ))


def load_article_scores(path: str) -> ArticleTable:
    """Read the delimited cache ``source_id,ticker,date,<four integer scores>``
    into an ``ArticleTable``, with the header, blank-row and field-count rules
    of ``_grid.records`` and its YYYY-MM-DD ``check_date``. A score that is
    not an integer is a ParseError, one outside [1, 5] a ValidationError, each
    naming its line."""
    source_ids: list[str] = []
    tickers: list[str] = []
    dates: list[str] = []
    lines, flat = array("q"), array("q")
    checked: set[str] = set()
    for lineno, row in records(path, CACHE_HEADER):
        date = row[2].strip()
        if date not in checked:
            check_date(date, path, lineno)
            checked.add(date)
        try:
            flat.extend(map(int, row[3:]))
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        source_ids.append(row[0].strip())
        tickers.append(row[1].strip())
        dates.append(date)
        lines.append(lineno)
    scores = np.frombuffer(flat, dtype=np.int64).reshape(-1, 4)
    error = _score_error(scores, dates, tickers)
    if error is not None:
        raise ValidationError(f"{path}: line {lines[error[0]]}: {error[1]}")
    return ArticleTable(source_ids, tickers, dates, scores)
