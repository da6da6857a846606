import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from gapsandwich.accumulate import EXP_SATURATION, Moments, log_mean_exp
from gapsandwich.bounds import (
    UpperPartial,
    optimal_h_check,
    pairwise_at,
    sandwich,
    sandwich_at_c_star,
    tangent_family_g,
)
from gapsandwich.distributions import Gamma, LogNormal, sample
from gapsandwich.errors import EmptyGrid
from gapsandwich.samples import PairedSamples, paired_from_halves

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
        s = paired_from_halves(np.full(6, math.e), 1)
        rep = sandwich(s, 0.0)
        assert rep.lower_mean == pytest.approx(1.0, abs=1e-12)
        assert rep.lower_stderr == 0.0

    def test_lognormal_converges_to_m(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=11)
        rep = sandwich(s, 0.0)
        assert abs(rep.lower_mean - 0.0) <= 3.0 * rep.lower_stderr

    def test_gamma_matches_quadrature_oracle(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=12)
        rep = sandwich(s, 0.0)
        exact = gamma_mean_log_by_quadrature(2.0, 1.0)
        assert exact == pytest.approx(0.42278, abs=1e-4)
        assert abs(rep.lower_mean - exact) <= 3.0 * rep.lower_stderr

    def test_single_pair_has_infinite_stderr(self):
        s = paired_from_halves(np.array([2.0, 3.0]), 1)
        assert sandwich(s, 0.0).lower_stderr == math.inf


class TestGapUpperFirstOrder:
    """The first-order gap mean(Y/X) - 1: the width of the sandwich at C = 0,
    with its paired stderr and saturation count."""

    def test_constant_samples_have_zero_gap(self):
        s = paired_from_halves(np.full(8, 2.0), 1)
        rep = sandwich(s, 0.0)
        assert rep.width == 0.0 and rep.width_stderr == 0.0
        assert rep.saturated_pairs == 0
        # C* is 0 too, so the tightest sandwich has no width either.
        assert rep.log_ratio_mean == 0.0
        assert sandwich_at_c_star(s).width == 0.0

    def test_gamma_2_1_gap_is_one(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=13)
        rep = sandwich(s, 0.0)
        assert abs(rep.width - 1.0) <= 3.0 * rep.width_stderr

    def test_lognormal_gap_is_e_minus_one(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=14)
        rep = sandwich(s, 0.0)
        assert abs(rep.width - (math.e - 1.0)) <= 3.0 * rep.width_stderr

    def test_saturation_is_counted_and_finite(self):
        s = PairedSamples(np.array([0.0, 0.0]), np.array([800.0, 0.0]))
        rep = sandwich(s, 0.0)
        assert rep.saturated_pairs == 1
        assert math.isfinite(rep.width) and math.isfinite(rep.width_stderr)

    @pytest.mark.parametrize("c", [-2.0, 0.0, 0.3, 12.0])
    def test_width_is_the_mean_of_the_pairs_gaps(self, c):
        # Against each pair's gap C - 1 + exp(d - C) formed directly: the
        # partial's width, and pairwise_at's.  At C = 12, C - 1 outweighs
        # every exp(d - C), and at the others the largest exp(d - C) does.
        s = pairs_for(LogNormal(0.0, 1.5), 1000, seed=27)
        ratios = np.exp(s.d - c)
        rep = sandwich(s, c)
        assert rep.width == pytest.approx(c - 1.0 + ratios.mean(), rel=1e-13)
        assert rep.width_stderr == pytest.approx(
            ratios.std(ddof=1) / math.sqrt(s.n), rel=1e-12)
        lx, d = s.lx.copy(), s.d.copy()
        _, widths, saturated = pairwise_at(lx, d, c, out=(d, lx))
        assert saturated == 0
        assert widths.mean_stderr() == pytest.approx(
            (rep.width, rep.width_stderr), rel=1e-13)


class TestImprovedUpper:
    def test_reduces_to_first_order_at_c_zero(self):
        s = pairs_for(Gamma(2.0, 1.0), 10_000, seed=15)
        rep = sandwich(s, 0.0)
        a = rep.upper_mean
        b = rep.lower_mean + (float(np.exp(s.d).mean()) - 1.0)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_constant_at_c_zero_is_log_c(self):
        s = paired_from_halves(np.full(10, 3.0), 1)
        assert sandwich(s, 0.0).upper_mean == pytest.approx(math.log(3.0), abs=1e-12)

    def test_lognormal_at_c_one(self):
        # E log X - 1 + 1 + exp(-1) * e^{sigma^2} = 1 for m=0, sigma=1.
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=16)
        rep = sandwich(s, 1.0)
        assert abs(rep.upper_mean - 1.0) <= 3.0 * rep.upper_stderr

    def test_rejects_non_finite_c(self):
        s = paired_from_halves(np.ones(4), 1)
        with pytest.raises(ValueError):
            sandwich(s, math.inf)
        with pytest.raises(ValueError):
            pairwise_at(s.lx, s.d, np.array([0.0, math.nan]))

    def test_one_c_per_pair(self):
        s = pairs_for(Gamma(2.0, 1.0), 40, seed=17)
        cs = np.linspace(-1.0, 1.0, s.n)
        terms = np.empty(s.n)
        *_, saturated = pairwise_at(s.lx, s.d, cs, out=(np.empty(s.n), terms))
        assert saturated == 0
        for i in range(s.n):
            one = (np.empty(1), np.empty(1))
            pairwise_at(s.lx[i:i + 1], s.d[i:i + 1], cs[i], out=one)
            assert terms[i] == one[1][0]
        assert (pairwise_at(s.lx, s.d, np.full(s.n, 0.3))
                == pairwise_at(s.lx, s.d, 0.3))

    @given(st.integers(0, 2**32 - 1))
    def test_c_zero_identity_holds_for_any_sample(self, seed):
        s = pairs_for(Gamma(2.0, 1.0), 200, seed=seed)
        rep = sandwich(s, 0.0)
        a = rep.upper_mean
        b = rep.lower_mean + (float(np.exp(s.d).mean()) - 1.0)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class TestOptimalC:
    """C* = log mean(Y/X) is the report's log_ratio_mean, at any C; its
    delta-method stderr is the width_stderr of the sandwich at C*."""

    def test_constant_samples_give_zero(self):
        s = paired_from_halves(np.full(8, 5.0), 1)
        assert sandwich(s, 0.0).log_ratio_mean == 0.0

    @pytest.mark.parametrize("c", [-3.0, 0.0, 0.4])
    def test_is_the_log_mean_of_the_ratios_at_any_c(self, c):
        s = pairs_for(LogNormal(0.0, 2.0), 1000, seed=28)
        assert sandwich(s, c).log_ratio_mean == log_mean_exp(s.d)

    @pytest.mark.parametrize("dist", [Gamma(2.0, 1.0), LogNormal(0.0, 2.0)])
    def test_sandwich_at_c_star_is_the_sandwich_at_its_log_ratio_mean(self, dist):
        # One reduction of the pairs gives the report of two.
        s = pairs_for(dist, 1000, seed=29)
        rep = sandwich_at_c_star(s)
        assert rep.c_used == rep.log_ratio_mean == sandwich(s, 0.0).log_ratio_mean
        assert rep == sandwich(s, rep.c_used)

    def test_lognormal_gives_sigma_squared(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=17)
        rep = sandwich_at_c_star(s)
        assert abs(rep.c_used - 1.0) <= 3.0 * rep.width_stderr

    def test_gamma_gives_log_two(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=18)
        rep = sandwich_at_c_star(s)
        assert abs(rep.c_used - math.log(2.0)) <= 3.0 * rep.width_stderr

    def test_minimizes_improved_upper(self):
        s = pairs_for(Gamma(2.0, 1.0), 5_000, seed=19)
        c_star = sandwich(s, 0.0).log_ratio_mean
        at_star = sandwich(s, c_star).upper_mean
        assert at_star <= sandwich(s, c_star + 0.1).upper_mean
        assert at_star <= sandwich(s, c_star - 0.1).upper_mean


def stderr_at_50_digits(d):
    """se(mean r) / mean r of the ratios r = exp(d), with the n - 1 variance,
    in 50-digit arithmetic."""
    with mpmath.workdps(50):
        r = [mpmath.exp(mpmath.mpf(float(x))) for x in d]
        mean = mpmath.fsum(r) / len(r)
        var = mpmath.fsum((x - mean) ** 2 for x in r) / (len(r) - 1)
        return float(mpmath.sqrt(var / len(r)) / mean)


class TestLogRatioMeanStderr:
    """The delta-method stderr of C* = log mean(Y/X), the width_stderr of
    the sandwich at C*, against a 50-digit oracle, at small n, where the
    n / (n - 1) factor matters, and at relative spreads down to 1e-6, which
    are not zero spread."""

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    @pytest.mark.parametrize("spread", [1e-6, 1e-5, 1e-4, 1e-3, 1e-1])
    def test_matches_the_oracle(self, n, spread):
        d = np.log1p(spread * np.linspace(-1.0, 1.0, n))
        got = sandwich_at_c_star(PairedSamples(np.zeros(n), d)).width_stderr
        want = stderr_at_50_digits(d)
        assert got != 0.0
        assert abs(got - want) <= 1e-9 * want


class TestOptimalUpperAndMidpoint:
    """The tightest upper bound is lower_mean + C*, C* the report's
    log_ratio_mean; the midpoint is the report's."""

    def test_constant_is_tight(self):
        s = paired_from_halves(np.full(8, 3.0), 1)
        rep = sandwich(s, 0.0)
        assert rep.lower_mean + rep.log_ratio_mean == pytest.approx(
            math.log(3.0), abs=1e-12)
        assert rep.midpoint == pytest.approx(math.log(3.0), abs=1e-12)

    def test_lognormal_optimal_upper_dominates_log_mean(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=20)
        rep = sandwich(s, 0.0)
        up = rep.lower_mean + rep.log_ratio_mean
        assert up == pytest.approx(1.0, abs=0.05)
        assert up >= 0.5  # log E X = m + sigma^2/2

    def test_lognormal_midpoint_is_exact(self):
        s = pairs_for(LogNormal(0.0, 1.0), N, seed=21)
        rep = sandwich_at_c_star(s)
        se = math.sqrt(rep.lower_stderr ** 2 + 0.25 * rep.width_stderr ** 2)
        assert abs(rep.midpoint - 0.5) <= 3.0 * se

    def test_gamma_midpoint_sits_inside_sandwich(self):
        s = pairs_for(Gamma(2.0, 1.0), N, seed=22)
        rep = sandwich(s, 0.0)
        mid, lower = rep.midpoint, rep.lower_mean
        upper = lower + rep.log_ratio_mean
        exact = gamma_mean_log_by_quadrature(2.0, 1.0) + 0.5 * math.log(2.0)
        assert mid == pytest.approx(exact, abs=0.01)
        assert mid == pytest.approx(0.7694, abs=0.01)
        assert lower <= mid <= upper
        # True log E X = log 2 lies within half-width of the midpoint.
        assert abs(mid - math.log(2.0)) <= 0.5 * (upper - lower)


class TestSandwich:
    def test_constant_one_gives_all_zero(self):
        s = paired_from_halves(np.ones(16), 1)
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
        rep = sandwich_at_c_star(s)
        assert rep.midpoint == pytest.approx(
            0.5 * (rep.lower_mean + rep.upper_mean), abs=1e-10
        )

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, lam):
        raw = sample(Gamma(2.0, 1.0), 1000, 26)
        s = paired_from_halves(raw, 1)
        scaled = paired_from_halves(raw * lam, 1)
        shift = math.log(lam)
        rep, rep_scaled = sandwich(s, 0.7), sandwich(scaled, 0.7)
        c_star, c_star_scaled = rep.log_ratio_mean, rep_scaled.log_ratio_mean
        assert rep_scaled.lower_mean == pytest.approx(
            rep.lower_mean + shift, abs=1e-9)
        assert rep_scaled.upper_mean == pytest.approx(
            rep.upper_mean + shift, abs=1e-9)
        assert rep_scaled.lower_mean + c_star_scaled == pytest.approx(
            rep.lower_mean + c_star + shift, abs=1e-9)
        assert rep_scaled.midpoint == pytest.approx(
            rep.midpoint + shift, abs=1e-9)
        assert c_star_scaled == pytest.approx(c_star, abs=1e-9)
        assert sandwich(scaled, 0.0).width == pytest.approx(
            sandwich(s, 0.0).width, abs=1e-9)


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
                     "width", "width_stderr", "log_ratio_mean", "ratio_mean",
                     "c_used", "midpoint"):
            assert math.isfinite(getattr(rep, name)), name
        assert rep.saturated_pairs == np.count_nonzero(s.d - c > 700.0)

    @given(heavy_tailed_pairs())
    def test_first_order_gap_and_ratio_mean_stay_finite(self, s):
        # The first-order gap at C = 0, where some ratio saturates, and the
        # width at C*, whose stderr is C*'s.
        gap = sandwich(s, 0.0)
        assert math.isfinite(gap.width) and math.isfinite(gap.width_stderr)
        assert gap.saturated_pairs == np.count_nonzero(s.d > 700.0)
        star = sandwich_at_c_star(s)
        assert math.isfinite(star.c_used) and math.isfinite(star.width_stderr)
        assert star.saturated_pairs == 0


@st.composite
def split_pairs(draw):
    """Finite pairs (lx, d), 1 to 40 of them, and the bounds of contiguous
    chunks that cover them."""
    n = draw(st.integers(1, 40))
    lx = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    d = draw(st.lists(st.floats(-2000.0, 2000.0), min_size=n, max_size=n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else set()
    return np.array(lx), np.array(d), [0, *sorted(cuts), n]


class TestUpperPartial:
    @given(split_pairs(), st.floats(-1e4, 1e4))
    def test_chunks_at_any_c_merge_to_the_whole_upper_moments(self, pairs, c):
        # Each chunk's partial at C, or pairwise_at where it saturates,
        # merged in chunk order, for the upper terms and the widths.  The
        # tolerance is in units of the terms' scale, not of the result,
        # which can cancel; below the smallest normal float the terms round
        # to nothing.
        lx, d, bounds = pairs
        empty = Moments(0, 0.0, 0.0, 0.0)
        merged, saturated = (empty, empty), 0
        for a, b in zip(bounds, bounds[1:]):
            part = UpperPartial.of(lx[a:b], d[a:b])
            work = d[a:b].copy()
            assert UpperPartial.of(lx[a:b], work,
                                   out=(work, np.empty(b - a + 3))) == part
            upper, widths, count = pairwise_at(lx[a:b], d[a:b], c)
            at_c = part.at(c)
            assert (at_c is None) == (count >= 1)
            at_c = at_c or (upper, widths, count)
            merged = (merged[0].merge(at_c[0]), merged[1].merge(at_c[1]))
            saturated += count
        *whole, whole_saturated = pairwise_at(lx, d, c)
        assert saturated == whole_saturated
        width_scale = max(abs(c - 1.0), math.exp(min(d.max() - c, EXP_SATURATION)),
                          np.finfo(float).tiny)
        for got, want, scale in zip(merged, whole, (
                max(np.abs(lx).max(), width_scale), width_scale)):
            (mean, std), (want_mean, want_std) = got.mean_std(), want.mean_std()
            assert abs(mean - want_mean) <= 1e-13 * scale
            assert abs((std / scale) ** 2 - (want_std / scale) ** 2) <= 1e-13

    def test_saturates_only_above_the_threshold(self):
        part = UpperPartial.of(np.zeros(2), np.array([EXP_SATURATION, 0.0]))
        assert part.at(0.0) is not None
        assert part.at(-1e-13) is None
        assert pairwise_at(np.zeros(2), np.array([EXP_SATURATION, 0.0]),
                           -1e-13)[2] == 1

    def test_concentrated_pairs_far_from_zero_keep_their_spread(self):
        # lx near 50 with a spread of 0.01: the co-moment is taken over
        # centred lx, or the spread would move by about 1e-10 relative.
        s = pairs_for(LogNormal(50.0, 0.01), N, seed=5)
        mean, std = UpperPartial.of(s.lx, s.d).at(1e-4)[0].mean_std()
        ref_mean, ref_std = pairwise_at(s.lx, s.d, 1e-4)[0].mean_std()
        assert abs(mean - ref_mean) <= 1e-13 * abs(ref_mean)
        assert abs(std - ref_std) <= 1e-13 * ref_std

    def test_upper_terms_that_cancel_have_a_finite_stderr(self):
        # lx = 5 - exp(d - C) makes every upper term 4 + C up to rounding: the
        # co-moment cancels both spreads, and an m2 that rounds below zero
        # is no spread, not a math domain error.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d, c = rng.normal(size=20), float(rng.normal())
            s = PairedSamples(5.0 - np.exp(d - c), d)
            rep = sandwich(s, c)
            assert rep.upper_mean == pytest.approx(4.0 + c, abs=1e-14)
            assert 0.0 <= rep.upper_stderr <= 1e-7


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
