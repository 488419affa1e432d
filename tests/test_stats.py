import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as sps

from semlab import (
    block_bootstrap_ci,
    lag1_autocorr,
    mann_whitney_u,
    seed_summary,
    spearman_ic,
    spearman_ics,
    wilcoxon_signed_rank,
)
from semlab import stats as semlab_stats
from semlab.errors import DegenerateTestError, LabError, UndefinedMetricError, ValidationError
from semlab.stats import _normal_sf, _rankdata, _t_two_sided

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


class TestOracles:
    """The ranks and tail probabilities the tests are built on, against
    scipy and, for the t tail, mpmath at 40 digits (scipy's own t tail is off
    by 4e-9 relative at df = 1 and |t| near 1e-8)."""

    @given(arrays(float, st.integers(1, 60), elements=st.one_of(
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
        st.floats(-1e6, 1e6, allow_nan=False))))
    def test_rankdata_matches_scipy_with_ties(self, x):
        np.testing.assert_array_equal(_rankdata(x), sps.rankdata(x))

    def test_normal_tail_matches_scipy(self):
        for z in np.linspace(0.0, 37.0, 741):
            assert _normal_sf(z) == pytest.approx(sps.norm.sf(z), rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [1, 2, 29, 30, 31, 100, 1e4, 7.5e4, 1e6])
    def test_t_tail_matches_incomplete_beta(self, df):
        mpmath.mp.dps = 40
        for t in np.geomspace(1e-9, 30.0, 40):
            x = mpmath.mpf(df) / (mpmath.mpf(df) + mpmath.mpf(t) ** 2)
            exact = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True)
            assert _t_two_sided(t, df) == pytest.approx(float(exact), rel=1e-10, abs=0)
            assert _t_two_sided(-t, df) == _t_two_sided(t, df)

    @pytest.mark.parametrize("df", [1, 2, 30, 1e6])
    def test_t_tail_is_one_at_zero(self, df):
        assert _t_two_sided(0.0, df) == 1.0


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(20.0)
        res = spearman_ic(x, np.exp(x))
        assert res.statistic == pytest.approx(1.0, abs=1e-14)
        assert res.p_value == 0.0

    def test_perfect_antitone(self):
        x = np.arange(20.0)
        res = spearman_ic(x, -np.exp(x))
        assert res.statistic == pytest.approx(-1.0, abs=1e-14)
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


class TestSharedRanks:
    """``spearman_ics`` against one ``spearman_ic`` call per pair: the same
    result bit for bit, or the same error, with each series ranked once per
    finite-pair mask."""

    def _series(self):
        rng = np.random.default_rng(24)
        y = np.round(rng.normal(size=300), 1)  # ties in both series
        y[[7, 150]] = np.nan, np.inf
        xs = [np.round(rng.normal(size=300), 1) for _ in range(2)]
        holed = np.round(rng.normal(size=300), 1)
        holed[[3, 150, 299]] = np.nan  # its own mask, one cell shared with y's
        sparse = np.full(300, np.nan)
        sparse[20:29] = np.arange(9.0)  # 9 finite pairs
        xs += [holed, np.full(300, 3.0), sparse, np.arange(10.0)]
        return xs, [y, np.abs(y)]

    def test_table_matches_each_pair_alone(self):
        xs, ys = self._series()
        table = spearman_ics(xs, ys)
        assert len(table) == len(xs) and all(len(row) == len(ys) for row in table)
        for x, row in zip(xs, table):
            for y, got in zip(ys, row):
                try:
                    want = spearman_ic(x, y)
                except LabError as exc:
                    assert type(got) is type(exc) and str(got) == str(exc)
                else:
                    assert got == want  # the dataclass compares every field exactly
        errors = [str(r) for row in table for r in row if isinstance(r, LabError)]
        assert errors == ["correlation undefined for constant input"] * 2 + [
            "need >= 10 finite pairs, got 9"] * 2 + [
            "paired samples differ in length: (10,) vs (300,)"] * 2

    def test_pairs_match_scipy(self):
        xs, ys = self._series()
        for x, row in zip(xs[:3], spearman_ics(xs[:3], ys)):
            for y, got in zip(ys, row):
                keep = np.isfinite(x) & np.isfinite(y)
                ref = sps.spearmanr(x[keep], y[keep])
                assert got.statistic == pytest.approx(ref.statistic, abs=1e-12)
                assert got.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    @pytest.mark.parametrize("holed, calls", [(False, 6), (True, 8)])
    def test_each_series_is_ranked_once_per_mask(self, monkeypatch, holed, calls):
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=200) for _ in range(4)]
        y = rng.normal(size=200)
        if holed:
            xs[2][10] = np.nan  # x2 and both ys meet a second mask
        ranked = []
        monkeypatch.setattr(semlab_stats, "_rankdata",
                            lambda v: ranked.append(v.size) or _rankdata(v))
        table = spearman_ics(xs, [y, np.abs(y)])
        assert len(ranked) == calls
        assert table[2][0].n == (199 if holed else 200)


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
