"""Statistical diagnostics: rank correlations, paired tests, block bootstrap,
signal persistence, and seed-level summaries.

The rank tests use the two-sided normal approximation with tie correction
and no continuity correction; Wilcoxon drops zero differences by default
(Pratt handling behind a flag). The bootstrap resamples circular moving
blocks of the daily series and reports a percentile interval for the mean.
All of it is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from ._grid import write_csv
from .errors import DegenerateTestError, UndefinedMetricError, ValidationError
from .metrics import sharpe_ratio
from .signals import AXES, SignalPanel


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float | None
    method: str
    n: int
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self) -> None:
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value} outside [0, 1]")
        if self.ci_low is not None and self.ci_high is not None and self.ci_low > self.ci_high:
            raise ValidationError("ci_low exceeds ci_high")


# ---------------------------------------------------------------------------
# Rank correlation
# ---------------------------------------------------------------------------

def spearman_ic(signal_values, forward_returns) -> TestResult:
    """Pooled Spearman rank correlation with mid-rank ties.

    Non-finite pairs are dropped; the p-value uses the large-sample t
    approximation. Constant inputs have no defined correlation.
    """
    x = np.asarray(signal_values, dtype=float).ravel()
    y = np.asarray(forward_returns, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValidationError(f"paired samples differ in length: {x.shape} vs {y.shape}")
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    n = x.size
    if n < 10:
        raise ValidationError(f"need >= 10 finite pairs, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedMetricError("correlation undefined for constant input")
    rx = sps.rankdata(x)
    ry = sps.rankdata(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    if abs(rho) >= 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = float(2.0 * sps.t.sf(abs(t), df=n - 2))
    return TestResult(statistic=rho, p_value=p, method="spearman-t", n=n)


# ---------------------------------------------------------------------------
# Block bootstrap
# ---------------------------------------------------------------------------

def block_bootstrap_ci(
    paired_diffs,
    block_len: int = 20,
    resamples: int = 10000,
    level: float = 0.95,
    seed: int = 0,
) -> TestResult:
    """Circular moving-block bootstrap CI for the mean of a daily series.

    Blocks of ``block_len`` consecutive observations (wrapping at the end)
    are drawn with replacement until the resample reaches the original
    length; the interval is the percentile band of the resampled means.
    """
    x = np.asarray(paired_diffs, dtype=float)
    if x.ndim != 1:
        raise ValidationError("paired_diffs must be one-dimensional")
    n = x.size
    if n < block_len:
        raise ValidationError(f"series length {n} shorter than block length {block_len}")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    n_blocks = math.ceil(n / block_len)
    ext = np.concatenate([x, x[:block_len]])
    prefix = np.concatenate([[0.0], np.cumsum(ext)])
    rng = np.random.default_rng(seed)

    means = np.empty(resamples)
    tail = n - (n_blocks - 1) * block_len  # length of the final, possibly partial block
    chunk = 2000
    done = 0
    while done < resamples:
        m = min(chunk, resamples - done)
        starts = rng.integers(0, n, size=(m, n_blocks))
        sums = prefix[starts[:, :-1] + block_len] - prefix[starts[:, :-1]]
        total = sums.sum(axis=1)
        total += prefix[starts[:, -1] + tail] - prefix[starts[:, -1]]
        means[done : done + m] = total / n
        done += m
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [alpha * 100.0, (1.0 - alpha) * 100.0])
    return TestResult(
        statistic=float(x.mean()),
        p_value=None,
        method=f"block-bootstrap(L={block_len},B={resamples})",
        n=n,
        ci_low=float(lo),
        ci_high=float(hi),
    )


# ---------------------------------------------------------------------------
# Nonparametric paired / two-sample tests
# ---------------------------------------------------------------------------

def _tie_term(values: np.ndarray) -> float:
    _, counts = np.unique(values, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


def wilcoxon_signed_rank(paired_diffs, zero_method: str = "drop") -> TestResult:
    """Two-sided Wilcoxon signed-rank test via the normal approximation.

    ``zero_method`` is "drop" (discard zero differences) or "pratt" (rank them,
    then discard). Tie correction is applied; no continuity correction.
    """
    d = np.asarray(paired_diffs, dtype=float)
    d = d[np.isfinite(d)]
    if zero_method not in ("drop", "pratt"):
        raise ValidationError(f"unknown zero_method {zero_method!r}")
    n_zero = int(np.sum(d == 0.0))
    if np.all(d == 0.0):
        raise DegenerateTestError("all paired differences are zero")
    if zero_method == "drop":
        d = d[d != 0.0]
        n = d.size
        if n < 10:
            raise ValidationError(f"need >= 10 nonzero differences, got {n}")
        ranks = sps.rankdata(np.abs(d))
        w_plus = float(np.sum(ranks[d > 0]))
        mu = n * (n + 1) / 4.0
        sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_term(np.abs(d)) / 48.0
    else:
        n_all = d.size
        if n_all - n_zero < 10:
            raise ValidationError(f"need >= 10 nonzero differences, got {n_all - n_zero}")
        ranks = sps.rankdata(np.abs(d))
        w_plus = float(np.sum(ranks[d > 0]))
        m = n_zero
        mu = (n_all * (n_all + 1) - m * (m + 1)) / 4.0
        sigma2 = (
            n_all * (n_all + 1) * (2 * n_all + 1) - m * (m + 1) * (2 * m + 1)
        ) / 24.0 - _tie_term(np.abs(d[d != 0.0])) / 48.0
        n = n_all - m
    if sigma2 <= 0:
        raise DegenerateTestError("tie-corrected variance is zero")
    z = (w_plus - mu) / math.sqrt(sigma2)
    p = float(2.0 * sps.norm.sf(abs(z)))
    return TestResult(statistic=w_plus, p_value=min(p, 1.0), method=f"wilcoxon-{zero_method}", n=n)


def mann_whitney_u(a, b) -> TestResult:
    """Two-sided Mann-Whitney U via the tie-corrected normal approximation."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    x = x[np.isfinite(x)]
    y = y[np.isfinite(y)]
    n1, n2 = x.size, y.size
    if n1 < 3 or n2 < 3:
        raise ValidationError(f"both groups need >= 3 values, got {n1} and {n2}")
    combined = np.concatenate([x, y])
    if np.all(combined == combined[0]):
        raise DegenerateTestError("all values identical across both groups")
    ranks = sps.rankdata(combined)
    u = float(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0)
    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie = _tie_term(combined)
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie / (n * (n - 1)))
    if sigma2 <= 0:
        raise DegenerateTestError("tie-corrected variance is zero")
    z = (u - mu) / math.sqrt(sigma2)
    p = float(2.0 * sps.norm.sf(abs(z)))
    return TestResult(statistic=u, p_value=min(p, 1.0), method="mann-whitney-u", n=n)


# ---------------------------------------------------------------------------
# Paired daily-return diagnostics
# ---------------------------------------------------------------------------

def paired_comparison(
    returns_a,
    returns_b,
    label: str,
    block_len: int = 20,
    resamples: int = 10000,
    seed: int = 0,
) -> dict:
    """Active-return diagnostics for two aligned daily return streams.

    Reports the mean active return in basis points per day with its block
    bootstrap interval, the Sharpe difference, the share of days the first
    stream wins outright, and the Wilcoxon signed-rank p-value (NaN when
    every active return is zero).
    """
    a = np.asarray(returns_a, dtype=float)
    b = np.asarray(returns_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("paired comparison needs two aligned return streams")
    active = a - b
    ci = block_bootstrap_ci(active, block_len=block_len, resamples=resamples, seed=seed)
    try:
        wilcoxon_p = wilcoxon_signed_rank(active).p_value
    except (DegenerateTestError, ValidationError):
        wilcoxon_p = float("nan")  # all-zero or too few nonzero active days
    return {
        "comparison": label,
        "mean_bp_day": float(active.mean() * 1e4),
        "ci_low": ci.ci_low * 1e4,
        "ci_high": ci.ci_high * 1e4,
        "delta_sharpe": sharpe_ratio(a) - sharpe_ratio(b),
        "win_pct": float(np.mean(a > b) * 100.0),
        "wilcoxon_p": wilcoxon_p,
    }


TEST_RESULT_COLUMNS = (
    "comparison", "mean_bp_day", "ci_low", "ci_high",
    "delta_sharpe", "win_pct", "wilcoxon_p",
)


def write_test_results(rows: list[dict], path: str) -> None:
    """Delimited export with the paired-diagnostics column set."""
    write_csv(path, TEST_RESULT_COLUMNS, (
        [row["comparison"], *[f"{row[c]:.6f}" for c in TEST_RESULT_COLUMNS[1:]]] for row in rows))


# ---------------------------------------------------------------------------
# Signal persistence
# ---------------------------------------------------------------------------

def lag1_autocorr(
    panel: SignalPanel, axis: str, min_obs: int = 20
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-ticker lag-1 autocorrelation of an axis over days with news.

    Pairs (x_t, x_{t+1}) only count when both days carry news back to back;
    gaps never bridge. Tickers with too little content or constant scores are
    skipped and reported with the reason.
    """
    if axis not in AXES:
        raise ValidationError(f"unknown axis {axis!r}")
    a = AXES.index(axis)
    values: dict[str, float] = {}
    skipped: dict[str, str] = {}
    for j, t in enumerate(panel.tickers):
        present = panel.non_neutral[:, j]
        n_obs = int(present.sum())
        if n_obs < min_obs:
            skipped[t] = f"only {n_obs} non-neutral observations (need {min_obs})"
            continue
        x = panel.values[:, j, a]
        pair = present[:-1] & present[1:]
        x0 = x[:-1][pair]
        x1 = x[1:][pair]
        if x0.size < 2:
            skipped[t] = f"only {x0.size} consecutive non-neutral pairs"
            continue
        if np.all(x0 == x0[0]) or np.all(x1 == x1[0]):
            skipped[t] = "constant non-neutral scores"
            continue
        values[t] = float(np.corrcoef(x0, x1)[0, 1])
    return values, skipped


# ---------------------------------------------------------------------------
# Seed-level comparison
# ---------------------------------------------------------------------------

def seed_summary(values) -> tuple[float, float]:
    """Mean and sample std over seeds."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValidationError(f"need >= 2 seeds, got {v.size}")
    return float(v.mean()), float(v.std(ddof=1))
