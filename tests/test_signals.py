import string

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlab import (
    AXES,
    NEUTRAL,
    aggregate_signals,
    coverage_stats,
    mask_axes,
    pca_effective_dim,
)
from semlab.errors import ParseError, RankError, ValidationError
from semlab.signals import (
    DEFAULT_SCORE_DISTRIBUTIONS,
    ArticleTable,
    load_article_scores,
    write_article_scores,
)

import scalar_aggregate
from conftest import business_days, make_signal_panel


def arts(*rows):
    """The ArticleTable of (ticker, date, scores) rows, with source ids s0, s1, ..."""
    return ArticleTable(
        source_ids=[f"s{i}" for i in range(len(rows))],
        tickers=[r[0] for r in rows], dates=[r[1] for r in rows],
        scores=np.array([r[2] for r in rows], dtype=np.int64).reshape(-1, 4),
    )


def test_default_score_distributions_give_the_paper_axis_means():
    """Each axis is a distribution over the levels 1..5 whose mean is the
    paper's axis mean."""
    assert tuple(DEFAULT_SCORE_DISTRIBUTIONS) == AXES
    for axis, want in zip(AXES, (3.35, 2.47, 3.51, 2.74)):
        probs = DEFAULT_SCORE_DISTRIBUTIONS[axis]
        assert len(probs) == 5 and min(probs) >= 0, axis
        assert sum(probs) == pytest.approx(1.0, abs=1e-12), axis
        mean = sum(level * p for level, p in enumerate(probs, start=1))
        assert mean == pytest.approx(want, abs=1e-12), axis


class TestAggregation:
    def test_mean_of_two_articles_still_non_neutral(self):
        cal = business_days("2020-01-02", 5)
        panel, report = aggregate_signals(
            arts(("AA", cal[2], (4, 4, 4, 4)), ("AA", cal[2], (2, 2, 2, 2))),
            cal, ["AA"], window=3,
        )
        assert panel.values[2, 0, 0] == 3.0
        assert panel.non_neutral[2, 0]
        assert report.total == 0

    def test_no_articles_gives_exact_neutral(self):
        cal = business_days("2020-01-02", 4)
        panel, _ = aggregate_signals(arts(), cal, ["AA", "BB"], window=3)
        assert not panel.non_neutral.any()
        assert np.all(panel.values == NEUTRAL)

    def test_window_membership_hand_enumerated(self):
        # one article on day 0: with a 3-day trailing window it covers days
        # 0..3 inclusive and drops off on day 4
        cal = business_days("2020-01-02", 5)
        panel, _ = aggregate_signals(
            arts(("AA", cal[0], (5, 5, 5, 5))), cal, ["AA"], window=3
        )
        np.testing.assert_array_equal(panel.non_neutral[:, 0], [1, 1, 1, 1, 0])
        assert panel.values[3, 0, 0] == 5.0
        assert panel.values[4, 0, 0] == NEUTRAL

    def test_weekend_article_rolls_forward(self):
        cal = ("2020-01-03", "2020-01-06", "2020-01-07")  # Fri, Mon, Tue
        panel, _ = aggregate_signals(
            arts(("AA", "2020-01-04", (4, 3, 3, 3))), cal, ["AA"], window=0
        )
        np.testing.assert_array_equal(panel.non_neutral[:, 0], [0, 1, 0])

    def test_unmatched_and_out_of_range_reported(self):
        cal = business_days("2020-01-02", 3)
        articles = arts(
            ("ZZ", cal[0], (4, 4, 4, 4)),
            ("AA", "2019-06-01", (4, 4, 4, 4)),
            ("AA", "2030-01-01", (4, 4, 4, 4)),
        )
        panel, report = aggregate_signals(articles, cal, ["AA"], window=3)
        assert len(report.unmatched_tickers) == 1
        assert len(report.out_of_calendar) == 2
        assert not panel.non_neutral.any()

    def test_window_translation_invariance(self):
        rng = np.random.default_rng(8)
        cal_a = business_days("2020-01-02", 30)
        cal_b = business_days("2021-06-01", 30)
        arts_a, arts_b = [], []
        for _ in range(40):
            i = rng.integers(0, 30)
            scores = tuple(rng.integers(1, 6, size=4))
            arts_a.append(("AA", cal_a[i], scores))
            arts_b.append(("AA", cal_b[i], scores))
        pa, _ = aggregate_signals(arts(*arts_a), cal_a, ["AA"], window=3)
        pb, _ = aggregate_signals(arts(*arts_b), cal_b, ["AA"], window=3)
        np.testing.assert_array_equal(pa.values, pb.values)
        np.testing.assert_array_equal(pa.non_neutral, pb.non_neutral)

    def test_coverage_monotone_in_articles(self):
        cal = business_days("2020-01-02", 10)
        base = [("AA", cal[i], (4, 4, 4, 4)) for i in (0, 5)]
        p1, _ = aggregate_signals(arts(*base), cal, ["AA", "BB"], window=2)
        p2, _ = aggregate_signals(
            arts(*base, ("BB", cal[7], (2, 2, 2, 2))), cal, ["AA", "BB"], window=2
        )
        c1 = coverage_stats(p1)
        c2 = coverage_stats(p2)
        for t in ("AA", "BB"):
            assert c2.any_fraction[t] >= c1.any_fraction[t]


def _day(offset: int) -> str:
    return str(np.datetime64("2020-01-01") + offset)


score_rows = st.lists(st.integers(1, 5), min_size=4, max_size=4)


@st.composite
def aggregation_cases(draw):
    """A calendar of up to 8 days out of 20, a universe, a window from 0 to
    past the calendar's end, and up to 30 articles on few enough cells that
    several share one; their tickers may be unknown and their dates fall
    before, between, on and after the calendar days."""
    calendar = tuple(_day(o) for o in sorted(draw(st.sets(st.integers(0, 20), min_size=1,
                                                          max_size=8))))
    tickers = tuple(draw(st.lists(st.sampled_from(["AA", "BB", "CC"]), min_size=1,
                                  max_size=3, unique=True)))
    window = draw(st.integers(0, len(calendar) + 2))
    n = draw(st.integers(0, 30))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    articles = ArticleTable(
        source_ids=column(st.text("abc", max_size=2)),
        tickers=column(st.sampled_from(["AA", "BB", "CC", "ZZ"])),
        dates=column(st.integers(-3, 24).map(_day)),
        scores=np.array(column(score_rows), dtype=np.int64).reshape(n, 4),
    )
    return articles, calendar, tickers, window


class TestAggregationOracle:
    @given(aggregation_cases())
    def test_matches_the_per_article_loop(self, case):
        articles, calendar, tickers, window = case
        panel, report = aggregate_signals(articles, calendar, tickers, window=window)
        want, unmatched, out_of_range = scalar_aggregate.aggregate(
            articles, calendar, tickers, window)
        assert panel.content_hash() == want.content_hash()
        assert report.unmatched_tickers == unmatched
        assert report.out_of_calendar == out_of_range
        assert report.total == len(unmatched) + len(out_of_range)


class TestArticleTable:
    def test_scores_are_read_only(self):
        table = arts(("AA", "2020-01-02", (1, 2, 3, 4)), ("BB", "2020-01-03", (5, 4, 3, 2)))
        assert not table.scores.flags.writeable

    @pytest.mark.parametrize("columns, match", [
        ((("s",), ("AA",), ("2020-01-02",), [[1, 2, 3]]), r"scores shape \(1, 3\)"),
        ((("s",), ("AA", "BB"), ("2020-01-02",), [[1, 2, 3, 4]]), "column lengths"),
        ((("s",), ("AA",), ("2020-01-02",), [[1, 2, 0, 4]]),
         r"confidence score 0 outside \[1, 5\] for \(2020-01-02, AA\)"),
    ])
    def test_constructor_checks_columns_in_bulk(self, columns, match):
        with pytest.raises(ValidationError, match=match):
            ArticleTable(*columns)


class TestCoverage:
    def test_zero_articles(self):
        cal = business_days("2020-01-02", 6)
        panel, _ = aggregate_signals(arts(), cal, ["AA", "BB", "CC"], window=3)
        rep = coverage_stats(panel)
        assert all(v == 0.0 for v in rep.any_fraction.values())
        assert sorted(rep.terciles.values()) == ["High", "Low", "Mid"]

    def test_published_fraction_example(self):
        # 338 covered days out of 1258 is 26.9% coverage
        n_days = 1258
        values = np.full((n_days, 1, 4), NEUTRAL)
        flags = np.zeros((n_days, 1), dtype=bool)
        flags[:338, 0] = True
        values[:338, 0, :] = 4.0
        panel = make_signal_panel(values, flags, start="2019-01-02")
        rep = coverage_stats(panel)
        assert round(rep.any_fraction["T00"], 3) == 0.269

    def test_nine_tickers_split_three_ways(self):
        cal = business_days("2020-01-02", 10)
        tickers = [f"T{i}" for i in range(9)]
        rows = []
        for j, t in enumerate(tickers):
            for i in range(j + 1):
                rows.append((t, cal[i], (4, 4, 4, 4)))
        panel, _ = aggregate_signals(arts(*rows), cal, tickers, window=0)
        rep = coverage_stats(panel)
        counts = {lab: len(rep.tercile_members(lab)) for lab in ("Low", "Mid", "High")}
        assert counts == {"Low": 3, "Mid": 3, "High": 3}
        assert rep.tercile_members("High") == ["T6", "T7", "T8"]

    def test_value_definition_reported_alongside(self):
        # news averaging to exactly 3.0 stays covered by presence but not by
        # the value-based definition
        cal = business_days("2020-01-02", 4)
        panel, _ = aggregate_signals(
            arts(("AA", cal[0], (4, 3, 3, 3)), ("AA", cal[0], (2, 3, 3, 3))),
            cal, ["AA"], window=0,
        )
        rep = coverage_stats(panel)
        assert rep.any_fraction["AA"] == 0.25
        assert rep.value_fractions["AA"]["any"] == 0.0


# panels of up to 5 x 3 cells, scores on the half-point grid in [1, 5],
# neutral wherever the presence flag is clear
@st.composite
def signal_panels(draw):
    n_d, n_t = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    scores = st.sampled_from([1.0 + 0.5 * i for i in range(9)])
    flags = np.array(draw(st.lists(st.booleans(), min_size=n_d * n_t, max_size=n_d * n_t)))
    values = np.array(draw(st.lists(scores, min_size=n_d * n_t * 4, max_size=n_d * n_t * 4)))
    flags = flags.reshape(n_d, n_t)
    values = np.where(flags[:, :, None], values.reshape(n_d, n_t, 4), NEUTRAL)
    return make_signal_panel(values, flags)


masks = st.just("ALL") | st.sets(st.sampled_from(AXES))


def _axis_set(axes):
    return set(AXES) if axes == "ALL" else axes


class TestMasking:
    @given(signal_panels())
    def test_mask_all_is_neutral_everywhere(self, panel):
        masked = mask_axes(panel, "ALL")
        assert np.all(masked.values == NEUTRAL)
        assert not masked.non_neutral.any()

    @given(signal_panels())
    def test_mask_empty_is_identity(self, panel):
        assert mask_axes(panel, set()).content_hash() == panel.content_hash()

    @given(signal_panels(), masks, masks)
    def test_sequential_masks_compose(self, panel, a, b):
        # masking A then B is masking A | B at once
        union = _axis_set(a) | _axis_set(b)
        assert (mask_axes(mask_axes(panel, a), b).content_hash()
                == mask_axes(panel, union).content_hash())

    @given(signal_panels(), masks)
    def test_projection_property(self, panel, axes):
        once = mask_axes(panel, axes)
        assert mask_axes(once, axes).content_hash() == once.content_hash()

    @given(signal_panels(), masks)
    def test_input_panel_untouched(self, panel, axes):
        before = panel.values.copy()
        mask_axes(panel, axes)
        np.testing.assert_array_equal(panel.values, before)

    def test_unknown_axis_rejected(self):
        panel = make_signal_panel(np.full((2, 1, 4), NEUTRAL))
        with pytest.raises(ValidationError, match="unknown axis"):
            mask_axes(panel, {"sentimentt"})

    def test_a_string_other_than_all_rejected(self):
        panel = make_signal_panel(np.full((2, 1, 4), NEUTRAL))
        with pytest.raises(ValidationError,
                           match=r"unknown axis name 'all' \(did you mean 'ALL'\?\)"):
            mask_axes(panel, "all")


class TestDuplicateTickers:
    def test_signal_panel_rejects_a_repeated_ticker(self):
        with pytest.raises(ValidationError, match="duplicate ticker 'T00' in panel"):
            make_signal_panel(np.full((2, 1, 4), NEUTRAL)).restrict(["T00", "T00"])

    def test_aggregation_rejects_a_repeated_ticker(self):
        cal = business_days("2020-01-02", 2)
        with pytest.raises(ValidationError, match="duplicate ticker 'AA' in panel"):
            aggregate_signals(arts(("AA", cal[0], (4, 4, 4, 4))), cal, ["AA", "AA"], window=0)


class TestSignalPanelValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5, 5.5])
    def test_bad_flagged_value_names_the_cell(self, bad):
        values = np.full((3, 2, 4), 4.0)
        values[1, 1, 2] = bad
        with pytest.raises(ValidationError, match=r"outside \[1, 5\] at \(2020-01-03, T01, confidence\)"):
            make_signal_panel(values, np.ones((3, 2), dtype=bool))


class TestPca:
    def test_identical_columns_load_equally(self):
        rng = np.random.default_rng(11)
        n = 200
        base = rng.integers(1, 6, size=n).astype(float)
        values = np.stack([base] * 4, axis=-1)[:, None, :]
        panel = make_signal_panel(values, np.ones((n, 1), dtype=bool))
        loadings, explained = pca_effective_dim(panel)
        assert explained[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(loadings), 0.5, atol=1e-12)
        assert loadings[0] > 0  # sentiment sign convention

    def test_independent_columns_near_isotropy(self):
        rng = np.random.default_rng(12)
        n = 60000
        values = rng.integers(1, 6, size=(n, 1, 4)).astype(float)
        panel = make_signal_panel(values, np.ones((n, 1), dtype=bool))
        _, explained = pca_effective_dim(panel)
        assert np.all(np.abs(explained - 0.25) < 0.02)

    def test_explained_fractions_sum_and_order(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            values = rng.integers(1, 6, size=(n, 2, 4)).astype(float)
            panel = make_signal_panel(values, np.ones((n, 2), dtype=bool))
            try:
                _, explained = pca_effective_dim(panel)
            except RankError:
                continue  # a constant axis can happen at tiny n
            assert abs(explained.sum() - 1.0) < 1e-12
            assert all(a >= b - 1e-12 for a, b in zip(explained, explained[1:]))

    def test_too_few_rows(self):
        values = np.full((3, 1, 4), 4.0)
        panel = make_signal_panel(values, np.ones((3, 1), dtype=bool))
        with pytest.raises(RankError):
            pca_effective_dim(panel)


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        table = arts(("AA", "2020-01-02", (1, 2, 3, 4)), ("BB", "2020-01-03", (5, 4, 3, 2)))
        path = tmp_path / "cache.csv"
        write_article_scores(table, str(path))
        loaded = load_article_scores(str(path))
        assert loaded == table

    @given(st.data())
    def test_write_then_load_is_bit_exact(self, tmp_path_factory, data):
        # fields are stored stripped; delimiters, quotes and newlines are quoted
        text = st.text(string.ascii_letters + string.digits + ' ,"\n-_', max_size=6).map(str.strip)
        n = data.draw(st.integers(0, 12))
        column = lambda elements: data.draw(st.lists(elements, min_size=n, max_size=n))
        table = ArticleTable(
            source_ids=column(text), tickers=column(text),
            dates=column(st.integers(-400, 4000).map(_day)),
            scores=np.array(column(score_rows), dtype=np.int64).reshape(n, 4),
        )
        path = str(tmp_path_factory.mktemp("cache") / "cache.csv")
        write_article_scores(table, path)
        assert load_article_scores(path) == table

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text(
            "source_id,ticker,date,sentiment,risk,confidence,volatility_forecast\n"
            "s1,AA,2020-01-02,6,3,3,3\n"
        )
        with pytest.raises(ValidationError, match="line 2"):
            load_article_scores(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ParseError):
            load_article_scores(str(path))
