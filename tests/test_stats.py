import numpy as np
import pytest
from scipy import stats as sps

from semlab import (
    block_bootstrap_ci,
    lag1_autocorr,
    mann_whitney_u,
    seed_summary,
    spearman_ic,
    wilcoxon_signed_rank,
)
from semlab.errors import DegenerateTestError, UndefinedMetricError, ValidationError

from conftest import make_signal_panel


def rank_pearson_oracle(x, y):
    """Brute-force oracle: double-argsort ranks, textbook Pearson formula."""
    rx = np.empty(len(x))
    rx[np.argsort(x)] = np.arange(1, len(x) + 1)
    ry = np.empty(len(y))
    ry[np.argsort(y)] = np.arange(1, len(y) + 1)
    mx, my = rx.mean(), ry.mean()
    num = np.sum((rx - mx) * (ry - my))
    den = np.sqrt(np.sum((rx - mx) ** 2) * np.sum((ry - my) ** 2))
    return num / den


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(20.0)
        res = spearman_ic(x, np.exp(x))
        assert res.statistic == pytest.approx(1.0, abs=1e-14)
        assert res.p_value == 0.0

    def test_matches_rank_pearson_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=200)
            y = rng.normal(size=200)
            res = spearman_ic(x, y)
            assert res.statistic == pytest.approx(rank_pearson_oracle(x, y), abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedMetricError):
            spearman_ic(np.ones(50), np.arange(50.0))

    def test_nan_pairs_dropped(self):
        x = np.array([1.0, 2, 3, np.nan, 5, 6, 7, 8, 9, 10, 11, 12])
        y = np.arange(12.0)
        res = spearman_ic(x, y)
        assert res.n == 11

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            spearman_ic(np.arange(5.0), np.arange(5.0))


class TestBlockBootstrap:
    def test_constant_series_degenerate_interval(self):
        res = block_bootstrap_ci(np.full(100, 3.7), block_len=20, resamples=200, seed=1)
        assert res.ci_low == pytest.approx(3.7, abs=1e-12)
        assert res.ci_high == pytest.approx(3.7, abs=1e-12)
        assert res.statistic == pytest.approx(3.7, abs=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=300)
        a = block_bootstrap_ci(x, seed=42, resamples=500)
        b = block_bootstrap_ci(x, seed=42, resamples=500)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        c = block_bootstrap_ci(x, seed=43, resamples=500)
        assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)

    def test_interval_brackets_mean_for_iid_data(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.5, 1.0, 1000)
        res = block_bootstrap_ci(x, block_len=20, resamples=2000, seed=4)
        assert res.ci_low < x.mean() < res.ci_high
        assert res.ci_low < res.ci_high

    def test_partial_tail_block_lengths(self):
        # n not divisible by the block length exercises the partial last block
        rng = np.random.default_rng(5)
        x = rng.normal(size=107)
        res = block_bootstrap_ci(x, block_len=20, resamples=300, seed=6)
        assert res.n == 107

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            block_bootstrap_ci(np.ones(5), block_len=20)

    def test_coverage_calibration_small(self):
        # fuller 500-trial calibration lives in the acceptance suite
        rng = np.random.default_rng(7)
        cover = sum(
            1
            for t in range(100)
            if (lambda r: r.ci_low <= 0.0 <= r.ci_high)(
                block_bootstrap_ci(rng.standard_normal(400), resamples=500, seed=t)
            )
        )
        assert 88 <= cover <= 100


class TestWilcoxon:
    def test_alternating_signs_near_one(self):
        d = np.tile([1.0, -1.0], 15)
        res = wilcoxon_signed_rank(d)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_all_positive_small_p(self):
        res = wilcoxon_signed_rank(np.arange(1.0, 21.0))
        assert res.p_value < 0.001

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateTestError):
            wilcoxon_signed_rank(np.zeros(30))

    def test_zeros_dropped_by_default(self):
        d = np.concatenate([np.zeros(5), np.arange(1.0, 16.0)])
        res = wilcoxon_signed_rank(d)
        assert res.n == 15

    def test_pratt_handles_zeros(self):
        d = np.concatenate([np.zeros(5), np.arange(1.0, 16.0)])
        res = wilcoxon_signed_rank(d, zero_method="pratt")
        assert res.n == 15
        assert res.p_value < 0.01

    def test_matches_scipy_on_clean_data(self):
        rng = np.random.default_rng(8)
        d = rng.normal(0.2, 1.0, 80)
        mine = wilcoxon_signed_rank(d)
        ref = sps.wilcoxon(d, zero_method="wilcox", correction=False,
                           mode="approx")
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-10)


class TestMannWhitney:
    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0, 1, 30)
        b = rng.normal(0.5, 1, 25)
        mine = mann_whitney_u(a, b)
        ref = sps.mannwhitneyu(a, b, alternative="two-sided",
                               method="asymptotic", use_continuity=False)
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_identical_groups_degenerate(self):
        with pytest.raises(DegenerateTestError):
            mann_whitney_u(np.ones(10), np.ones(10))

    def test_small_groups_rejected(self):
        with pytest.raises(ValidationError):
            mann_whitney_u([1.0, 2.0], [3.0, 4.0, 5.0])

    def test_null_calibration(self):
        rng = np.random.default_rng(10)
        ps = []
        for _ in range(300):
            ps.append(mann_whitney_u(rng.normal(size=12), rng.normal(size=12)).p_value)
        assert sps.kstest(ps, "uniform").pvalue > 0.01
        assert np.mean(np.asarray(ps) < 0.05) < 0.10


class TestLag1Autocorr:
    def _panel_from_series(self, series, present):
        n = len(series)
        values = np.full((n, 1, 4), 3.0)
        values[:, 0, 0] = np.clip(series, 1.0, 5.0)
        flags = np.asarray(present, dtype=bool)[:, None]
        values[~flags[:, 0], 0, :] = 3.0
        return make_signal_panel(values, flags)

    def test_ar1_recovery(self):
        rng = np.random.default_rng(11)
        n, phi = 4000, 0.5
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.normal(0, 0.3)
        panel = self._panel_from_series(3.0 + x, np.ones(n, dtype=bool))
        values, skipped = lag1_autocorr(panel, "sentiment")
        assert not skipped
        assert values["T00"] == pytest.approx(phi, abs=0.05)

    def test_iid_near_zero(self):
        rng = np.random.default_rng(12)
        panel = self._panel_from_series(rng.uniform(1, 5, 3000), np.ones(3000, dtype=bool))
        values, _ = lag1_autocorr(panel, "sentiment")
        assert abs(values["T00"]) < 0.05

    def test_constant_scores_skipped(self):
        panel = self._panel_from_series(np.full(100, 4.0), np.ones(100, dtype=bool))
        values, skipped = lag1_autocorr(panel, "sentiment")
        assert not values
        assert "constant" in skipped["T00"]

    def test_sparse_ticker_skipped(self):
        present = np.zeros(100, dtype=bool)
        present[:10] = True
        panel = self._panel_from_series(np.linspace(1, 5, 100), present)
        values, skipped = lag1_autocorr(panel, "sentiment")
        assert "T00" in skipped

    def test_gaps_do_not_bridge(self):
        # alternating presence leaves no adjacent pairs at all
        present = np.zeros(60, dtype=bool)
        present[::2] = True
        panel = self._panel_from_series(np.linspace(1, 5, 60), present)
        values, skipped = lag1_autocorr(panel, "sentiment")
        assert "pairs" in skipped["T00"]


class TestPairedComparison:
    def test_fields_and_units(self):
        from semlab.stats import paired_comparison

        rng = np.random.default_rng(15)
        b = rng.normal(0.0004, 0.01, 600)
        a = b + 0.0002 + rng.normal(0, 0.002, 600)  # ~2bp/day advantage
        row = paired_comparison(a, b, "a vs b", resamples=2000, seed=1)
        assert row["comparison"] == "a vs b"
        assert 0.0 < row["mean_bp_day"] < 6.0
        assert row["ci_low"] < row["mean_bp_day"] < row["ci_high"]
        assert 0.0 <= row["win_pct"] <= 100.0
        assert 0.0 <= row["wilcoxon_p"] <= 1.0

    def test_identical_streams_flat_diagnostics(self):
        from semlab.stats import paired_comparison

        rng = np.random.default_rng(16)
        a = rng.normal(0.0004, 0.01, 300)
        row = paired_comparison(a, a.copy(), "self", resamples=500, seed=2)
        assert row["mean_bp_day"] == 0.0
        assert row["delta_sharpe"] == 0.0
        assert row["win_pct"] == 0.0
        assert np.isnan(row["wilcoxon_p"])

    def test_export_column_order(self, tmp_path):
        from semlab.stats import paired_comparison, write_test_results

        rng = np.random.default_rng(17)
        a = rng.normal(0, 0.01, 200)
        b = rng.normal(0, 0.01, 200)
        row = paired_comparison(a, b, "a vs b", resamples=500, seed=3)
        path = tmp_path / "tests.csv"
        write_test_results([row], str(path))
        header = path.read_text().splitlines()[0]
        assert header == "comparison,mean_bp_day,ci_low,ci_high,delta_sharpe,win_pct,wilcoxon_p"

    def test_deterministic_per_seed(self):
        from semlab.stats import paired_comparison

        rng = np.random.default_rng(18)
        a = rng.normal(0, 0.01, 300)
        b = rng.normal(0, 0.01, 300)
        r1 = paired_comparison(a, b, "x", resamples=500, seed=9)
        r2 = paired_comparison(a, b, "x", resamples=500, seed=9)
        assert r1 == r2


class TestSeedSummary:
    """Seed groups are summarised by ``seed_summary`` and compared by
    ``mann_whitney_u``, as env_eval does."""

    def test_identical_seeds_zero_std(self):
        assert seed_summary([1.2, 1.2, 1.2]) == (1.2, 0.0)

    def test_with_comparator(self):
        rng = np.random.default_rng(13)
        a = rng.normal(1.0, 0.1, 10)
        b = rng.normal(1.5, 0.1, 10)
        assert mann_whitney_u(a, b).p_value < 0.01

    def test_null_comparator_rarely_significant(self):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(200):
            a = rng.normal(0, 1, 10)
            b = rng.normal(0, 1, 10)
            hits += mann_whitney_u(a, b).p_value < 0.05
        assert hits / 200 < 0.10
