import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from gapsandwich.bounds import (
    gap_upper_first_order,
    improved_upper,
    jensen_lower,
    log_ratio_mean,
    midpoint_evidence,
    optimal_c,
    optimal_h_check,
    optimal_upper,
    sandwich,
    tangent_family_g,
)
from gapsandwich.distributions import Gamma, LogNormal, sample
from gapsandwich.errors import EmptyGrid
from gapsandwich.samples import PairedSamples, k_sample_pairs, paired_from_halves

N = 100_000


def pairs_for(dist, n, seed, k=1):
    return paired_from_halves(sample(dist, 2 * n * k, seed), k)


def gamma_mean_log_by_quadrature(a, theta):
    """Independent oracle: numerical quadrature of E log X for Gamma(a, theta)."""
    density = lambda x: x ** (a - 1.0) * math.exp(-x / theta) / (
        math.gamma(a) * theta**a
    )
    val, err = quad(lambda x: math.log(x) * density(x), 0.0, np.inf)
    assert err < 1e-8
    return val


class TestJensenLower:
    def test_constant_samples(self):
        s = k_sample_pairs(np.full(3, math.e), np.full(3, math.e), 1)
        est = jensen_lower(s)
        assert est.mean == pytest.approx(1.0, abs=1e-12)
        assert est.stderr == 0.0

    def test_lognormal_converges_to_m(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=11)
        est = jensen_lower(s)
        assert abs(est.mean - 0.0) <= 3.0 * est.stderr

    def test_gamma_matches_quadrature_oracle(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=12)
        est = jensen_lower(s)
        exact = gamma_mean_log_by_quadrature(2.0, 1.0)
        assert exact == pytest.approx(0.42278, abs=1e-4)
        assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_single_pair_has_infinite_stderr(self):
        s = k_sample_pairs(np.array([2.0]), np.array([3.0]), 1)
        assert jensen_lower(s).stderr == math.inf


class TestGapUpperFirstOrder:
    def test_constant_samples_have_zero_gap(self):
        s = k_sample_pairs(np.full(4, 2.0), np.full(4, 2.0), 1)
        est = gap_upper_first_order(s)
        assert est.mean == pytest.approx(0.0, abs=1e-15)
        assert est.saturated == 0

    def test_gamma_2_1_gap_is_one(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=13)
        est = gap_upper_first_order(s)
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_lognormal_gap_is_e_minus_one(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=14)
        est = gap_upper_first_order(s)
        assert abs(est.mean - (math.e - 1.0)) <= 3.0 * est.stderr

    def test_saturation_is_counted_and_finite(self):
        s = PairedSamples(np.array([0.0, 0.0]), np.array([800.0, 0.0]))
        est = gap_upper_first_order(s)
        assert est.saturated == 1
        assert math.isfinite(est.mean)


class TestImprovedUpper:
    def test_reduces_to_first_order_at_c_zero(self):
        s = pairs_for(Gamma(2.0, 1.0), 10_000, seed=15)
        a = improved_upper(s, 0.0).mean
        b = jensen_lower(s).mean + gap_upper_first_order(s).mean
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_constant_at_c_zero_is_log_c(self):
        s = k_sample_pairs(np.full(5, 3.0), np.full(5, 3.0), 1)
        assert improved_upper(s, 0.0).mean == pytest.approx(math.log(3.0), abs=1e-12)

    def test_lognormal_at_c_one(self):
        # E log X - 1 + 1 + exp(-1) * e^{sigma^2} = 1 for m=0, sigma=1.
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=16)
        est = improved_upper(s, 1.0)
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_rejects_non_finite_c(self):
        s = k_sample_pairs(np.ones(2), np.ones(2), 1)
        with pytest.raises(ValueError):
            improved_upper(s, math.inf)

    @given(st.integers(0, 2**32 - 1))
    def test_c_zero_identity_holds_for_any_sample(self, seed):
        s = pairs_for(Gamma(2.0, 1.0), 200, seed=seed)
        a = improved_upper(s, 0.0).mean
        b = jensen_lower(s).mean + gap_upper_first_order(s).mean
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class TestOptimalC:
    def test_constant_samples_give_zero(self):
        s = k_sample_pairs(np.full(4, 5.0), np.full(4, 5.0), 1)
        assert optimal_c(s) == pytest.approx(0.0, abs=1e-12)

    def test_lognormal_gives_sigma_squared(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=17)
        est = log_ratio_mean(s)
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_gamma_gives_log_two(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=18)
        est = log_ratio_mean(s)
        assert abs(est.mean - math.log(2.0)) <= 3.0 * est.stderr

    def test_minimizes_improved_upper(self):
        s = pairs_for(Gamma(2.0, 1.0), 5_000, seed=19)
        c_star = optimal_c(s)
        at_star = improved_upper(s, c_star).mean
        assert at_star <= improved_upper(s, c_star + 0.1).mean
        assert at_star <= improved_upper(s, c_star - 0.1).mean


class TestOptimalUpperAndMidpoint:
    def test_constant_is_tight(self):
        s = k_sample_pairs(np.full(4, 3.0), np.full(4, 3.0), 1)
        assert optimal_upper(s) == pytest.approx(math.log(3.0), abs=1e-12)
        assert midpoint_evidence(s) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_lognormal_optimal_upper_dominates_log_mean(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=20)
        up = optimal_upper(s)
        assert up == pytest.approx(1.0, abs=0.05)
        assert up >= 0.5  # log E X = m + sigma^2/2

    def test_lognormal_midpoint_is_exact(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=21)
        mid = midpoint_evidence(s)
        se = math.sqrt(jensen_lower(s).stderr ** 2
                       + 0.25 * log_ratio_mean(s).stderr ** 2)
        assert abs(mid - 0.5) <= 3.0 * se

    def test_gamma_midpoint_sits_inside_sandwich(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=22)
        mid = midpoint_evidence(s)
        lower = jensen_lower(s).mean
        upper = optimal_upper(s)
        exact = gamma_mean_log_by_quadrature(2.0, 1.0) + 0.5 * math.log(2.0)
        assert mid == pytest.approx(exact, abs=0.01)
        assert mid == pytest.approx(0.7694, abs=0.01)
        assert lower <= mid <= upper
        # True log E X = log 2 lies within half-width of the midpoint.
        assert abs(mid - math.log(2.0)) <= 0.5 * (upper - lower)


class TestSandwich:
    def test_constant_one_gives_all_zero(self):
        s = k_sample_pairs(np.ones(8), np.ones(8), 1)
        rep = sandwich(s, 0.0)
        assert rep.lower_mean == rep.upper_mean == rep.midpoint == 0.0
        assert rep.ratio_mean == pytest.approx(1.0)
        assert rep.n == 8 and rep.k == 1

    def test_lognormal_with_c_one(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=23)
        rep = sandwich(s, 1.0)
        assert rep.lower_mean == pytest.approx(0.0, abs=3.0 * rep.lower_stderr)
        assert rep.upper_mean == pytest.approx(1.0, abs=3.0 * rep.upper_stderr)
        assert rep.midpoint == pytest.approx(0.5, abs=0.02)
        assert rep.c_used == 1.0

    def test_gamma_upper_matches_formula_algebra(self):
        # At C = log 2 the report must satisfy, exactly in float terms,
        # upper = lower - 1 + C + exp(-C) * ratio_mean.
        s = pairs_for(Gamma(2.0, 1.0), N, seed=24)
        c = math.log(2.0)
        rep = sandwich(s, c)
        reconstructed = rep.lower_mean - 1.0 + c + math.exp(-c) * rep.ratio_mean
        assert rep.upper_mean == pytest.approx(reconstructed, abs=1e-9)
        assert rep.upper_mean == pytest.approx(0.42278 + math.log(2.0), abs=0.02)

    def test_midpoint_centers_interval_at_optimal_c(self):
        s = pairs_for(LogNormal(0.0, 1.0), 5_000, seed=25)
        rep = sandwich(s, optimal_c(s))
        assert rep.midpoint == pytest.approx(
            0.5 * (rep.lower_mean + rep.upper_mean), abs=1e-10
        )

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, lam):
        raw = sample(Gamma(2.0, 1.0), 1000, 26)
        s = paired_from_halves(raw, 1)
        scaled = paired_from_halves(raw * lam, 1)
        shift = math.log(lam)
        assert jensen_lower(scaled).mean == pytest.approx(
            jensen_lower(s).mean + shift, abs=1e-9)
        assert improved_upper(scaled, 0.7).mean == pytest.approx(
            improved_upper(s, 0.7).mean + shift, abs=1e-9)
        assert optimal_upper(scaled) == pytest.approx(
            optimal_upper(s) + shift, abs=1e-9)
        assert midpoint_evidence(scaled) == pytest.approx(
            midpoint_evidence(s) + shift, abs=1e-9)
        assert optimal_c(scaled) == pytest.approx(optimal_c(s), abs=1e-9)
        assert gap_upper_first_order(scaled).mean == pytest.approx(
            gap_upper_first_order(s).mean, abs=1e-9)


@st.composite
def heavy_tailed_pairs(draw):
    """Pairs whose d spans more than 1400 nats with both signs, so ratios
    saturate on one side and underflow on the other."""
    n = draw(st.integers(2, 40))
    lx = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    d = draw(st.lists(st.floats(-1000.0, 1000.0), min_size=n, max_size=n))
    d[0] = draw(st.floats(700.0, 1000.0))
    d[1] = draw(st.floats(-1000.0, -700.0))
    return PairedSamples(np.array(lx), np.array(d))


class TestHeavyTails:
    @given(heavy_tailed_pairs(), st.floats(-800.0, 800.0))
    def test_sandwich_stays_finite_and_counts_saturation(self, s, c):
        assert s.d.max() - s.d.min() > 1400.0
        rep = sandwich(s, c)
        for name in ("lower_mean", "lower_stderr", "upper_mean", "upper_stderr",
                     "ratio_mean", "c_used", "midpoint"):
            assert math.isfinite(getattr(rep, name)), name
        assert rep.saturated_pairs == np.count_nonzero(s.d - c > 700.0)

    @given(heavy_tailed_pairs())
    def test_first_order_gap_and_ratio_mean_stay_finite(self, s):
        gap = gap_upper_first_order(s)
        assert math.isfinite(gap.mean) and math.isfinite(gap.stderr)
        assert gap.saturated == np.count_nonzero(s.d > 700.0)
        ratio = log_ratio_mean(s)
        assert math.isfinite(ratio.mean) and math.isfinite(ratio.stderr)


class TestOptimalHCheck:
    def test_tangent_of_log_at_one(self):
        # g = -1 gives the bound log a <= -1 + a, tight at a = 1.
        assert optimal_h_check(np.array([-1.0]), np.array([0.5, 1.0, 2.0]))

    def test_family_member_at_x_one_c_zero(self):
        g = tangent_family_g(np.array([1.0]), 0.0)
        assert g[0] == pytest.approx(-1.0)
        assert optimal_h_check(g, np.geomspace(1e-3, 1e3, 101))

    def test_scaled_h_fails(self):
        g = np.array([-1.0])
        a_grid = np.array([0.5, 1.0, 2.0])
        assert not optimal_h_check(g, a_grid, h_scale=0.999)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyGrid):
            optimal_h_check(np.array([]), np.array([1.0]))
        with pytest.raises(EmptyGrid):
            optimal_h_check(np.array([0.0]), np.array([]))
        with pytest.raises(EmptyGrid):
            optimal_h_check(np.array([0.0]), np.array([-1.0, 1.0]))
