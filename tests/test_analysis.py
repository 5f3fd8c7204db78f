"""Closed-form step distribution vs the literal game, and bound reports."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbasim.analysis import (
    BoundReport,
    EmpiricalHistogram,
    bound_check,
    coin_game_ccdf,
    coin_game_oracle,
    coin_game_pmf,
)


class TestCcdf:
    def test_zero_steps_tail_is_one(self):
        for n in (1, 2, 9):
            for p in (0.1, 0.5, 1.0):
                assert coin_game_ccdf(n, p, 0) == 1.0

    def test_single_coin_is_geometric_tail(self):
        for w in range(0, 30):
            assert math.isclose(coin_game_ccdf(1, 0.3, w), 0.7**w, rel_tol=1e-12)

    def test_no_coins_game_already_over(self):
        assert coin_game_ccdf(0, 0.5, 0) == 0.0
        assert coin_game_ccdf(0, 0.5, 7) == 0.0

    def test_certain_heads_ends_in_one_step(self):
        assert coin_game_ccdf(5, 1.0, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            coin_game_ccdf(2, 0.0, 1)
        with pytest.raises(ValueError):
            coin_game_ccdf(2, 1.5, 1)
        with pytest.raises(ValueError):
            coin_game_ccdf(-1, 0.5, 1)
        with pytest.raises(ValueError):
            coin_game_ccdf(2, 0.5, -1)

    def test_three_coins_against_million_game_oracle(self):
        n, p, w, games = 3, 1 / 3, 5, 1_000_000
        rng = random.Random(123)
        hits = sum(1 for _ in range(games) if coin_game_oracle(n, p, rng) > w)
        exact = coin_game_ccdf(n, p, w)
        sigma = math.sqrt(exact * (1 - exact) / games)
        assert abs(hits / games - exact) <= 3 * sigma


class TestPmf:
    def test_single_coin_is_geometric(self):
        p = 0.37
        for w in range(1, 40):
            assert math.isclose(coin_game_pmf(1, p, w), p * (1 - p) ** (w - 1), rel_tol=1e-11)

    def test_four_fair_coins_all_heads_first_step(self):
        assert math.isclose(coin_game_pmf(4, 0.5, 1), 0.0625, rel_tol=1e-15)

    def test_partial_sums_telescope_to_ccdf(self):
        n, p = 5, 0.21
        total = 0.0
        for w in range(1, 60):
            total += coin_game_pmf(n, p, w)
            assert math.isclose(total, 1 - coin_game_ccdf(n, p, w), rel_tol=1e-12)

    def test_certain_heads(self):
        assert coin_game_pmf(3, 1.0, 1) == 1.0
        assert coin_game_pmf(3, 1.0, 2) == 0.0


@settings(max_examples=400)
@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=1e-4, max_value=1.0, exclude_min=True),
    st.integers(min_value=1, max_value=500),
)
def test_pmf_equals_ccdf_difference(n, p, w):
    pmf = coin_game_pmf(n, p, w)
    diff = coin_game_ccdf(n, p, w - 1) - coin_game_ccdf(n, p, w)
    assert pmf >= 0.0
    assert math.isclose(pmf, diff, rel_tol=1e-15, abs_tol=0.0) or pmf == diff == 0.0


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=0, max_value=199),
)
def test_ccdf_monotone_in_w_and_coins(n, p, w):
    here = coin_game_ccdf(n, p, w)
    assert coin_game_ccdf(n, p, w + 1) <= here
    assert coin_game_ccdf(n + 1, p, w) >= here


def test_raising_heads_probability_lowers_steps():
    # stochastic ordering via the tail at every w up to 200
    for n in (1, 4, 16):
        for lo, hi in ((0.2, 0.3), (0.35, 0.5), (0.5, 0.9)):
            for w in range(0, 201):
                assert coin_game_ccdf(n, hi, w) <= coin_game_ccdf(n, lo, w) + 1e-15


class TestOracle:
    def test_zero_coins_take_zero_steps(self):
        assert coin_game_oracle(0, 0.5, 1) == 0

    def test_certain_heads_one_step(self):
        assert coin_game_oracle(9, 1.0, 1) == 1

    def test_accepts_seed_or_rng(self):
        assert coin_game_oracle(3, 0.5, 7) == coin_game_oracle(3, 0.5, random.Random(7))

    def test_matches_closed_form_within_three_sigma(self):
        rng = random.Random(99)
        games = 20_000
        samples = [coin_game_oracle(3, 1 / 3, rng) for _ in range(games)]
        for w in range(1, 12):
            expected = games * coin_game_pmf(3, 1 / 3, w)
            if expected < 10:
                continue
            observed = sum(1 for s in samples if s == w)
            sigma = math.sqrt(expected * (1 - coin_game_pmf(3, 1 / 3, w)))
            assert abs(observed - expected) <= 3 * sigma, w


class TestBoundCheck:
    def synthetic_hist(self, ambiguous, honest_ratio, trials, seed=5, shift=0):
        rng = random.Random(seed)
        samples = [
            1 + coin_game_oracle(ambiguous, honest_ratio / 2, rng) + shift
            for _ in range(trials)
        ]
        hist = EmpiricalHistogram.from_samples(samples)
        for s in samples:
            prev = hist.max_comm_by_iter.get(s, 0)
            hist.max_comm_by_iter[s] = max(prev, 3 + 3 * (s - 1) + 2)
        return hist

    def test_samples_from_the_bound_itself_pass(self):
        hist = self.synthetic_hist(4, 5 / 7, 20_000)
        report = bound_check(hist, 4, 5 / 7)
        assert report.passed, report.to_text()

    def test_shifted_samples_fail(self):
        hist = self.synthetic_hist(4, 5 / 7, 20_000, shift=2)
        report = bound_check(hist, 4, 5 / 7)
        assert not report.passed

    def test_all_single_iteration_trivially_dominated(self):
        hist = EmpiricalHistogram.from_samples([1] * 500)
        report = bound_check(hist, 0, 5 / 7)
        assert report.passed

    def test_comm_step_rows(self):
        hist = EmpiricalHistogram.from_samples([2, 2, 3])
        hist.max_comm_by_iter = {2: 9, 3: 20}
        report = bound_check(hist, 1, 5 / 7)
        rows = {r["iterations"]: r for r in report.comm_rows}
        assert rows[2]["ok"]            # 9 <= 5 + 3 + 3
        assert not rows[3]["ok"]        # 20 > 5 + 6 + 3
        assert not report.passed

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            bound_check(EmpiricalHistogram(), 2, 5 / 7)

    def test_report_renderings(self):
        hist = self.synthetic_hist(2, 5 / 7, 2_000)
        report = bound_check(hist, 2, 5 / 7)
        text = report.to_text()
        assert "verdict" in text and "overall" in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == "w,empirical_ccdf,bound_ccdf,margin,verdict"
        data = report.to_json_dict()
        assert data["passed"] == report.passed
        assert len(data["rows"]) == len(report.rows)
