import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsandwich.errors import (
    EmptySamples,
    InvalidK,
    LengthNotDivisible,
    NonPositiveSample,
    ShapeMismatch,
)
from gapsandwich.samples import PairedSamples, paired_from_halves

positive_vals = st.floats(min_value=1e-3, max_value=1e3)


class TestPairedSamples:
    def test_lengths_must_match(self):
        with pytest.raises(ShapeMismatch):
            PairedSamples(np.array([1.0, 2.0]), np.array([1.0]))

    def test_vectors_must_be_one_dimensional(self):
        with pytest.raises(ShapeMismatch, match="one-dimensional"):
            PairedSamples(np.ones((2, 2)), np.ones((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(EmptySamples):
            PairedSamples(np.array([]), np.array([]))

    def test_nonpositive_rejected_in_linear_domain(self):
        with pytest.raises(NonPositiveSample):
            paired_from_halves(np.array([1.0, -2.0, 1.0, 1.0]), 1)
        with pytest.raises(NonPositiveSample):
            paired_from_halves(np.array([1.0, 0.0, 1.0, 1.0]), 1)

    def test_log_domain_allows_negatives_but_not_inf(self):
        s = PairedSamples(np.array([-5.0, 3.0]), np.array([0.0, -1.0]))
        assert s.n == 2
        with pytest.raises(NonPositiveSample):
            PairedSamples(np.array([np.inf]), np.array([0.0]))
        with pytest.raises(NonPositiveSample):
            PairedSamples(np.array([0.0]), np.array([np.nan]))

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            PairedSamples(np.array([1.0]), np.array([1.0]), k=0)

    def test_buffers_are_immutable(self):
        s = PairedSamples(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            s.lx[0] = 9.0
        with pytest.raises(ValueError):
            s.d[0] = 9.0

    def test_log_xs_converts_linear(self):
        s = paired_from_halves(np.array([math.e, 1.0]), 1)
        assert s.lx[0] == pytest.approx(1.0)
        assert s.d[0] == pytest.approx(-1.0)


class TestKSamplePairs:
    def test_arithmetic_mean_blocks(self):
        s = paired_from_halves(np.array([1.0, 3.0, 2.0, 4.0,
                                         2.0, 2.0, 6.0, 2.0]), k=2)
        np.testing.assert_allclose(np.exp(s.lx), [2.0, 3.0])
        np.testing.assert_allclose(np.exp(s.lx + s.d), [2.0, 4.0])
        assert s.k == 2

    def test_k_one_is_identity(self):
        s = paired_from_halves(np.array([5.0, 7.0]), k=1)
        np.testing.assert_array_equal(s.lx, [math.log(5.0)])
        np.testing.assert_array_equal(s.d, [math.log(7.0) - math.log(5.0)])

    def test_length_not_divisible(self):
        with pytest.raises(LengthNotDivisible):
            paired_from_halves(np.ones(10), k=2)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            paired_from_halves(np.ones(8), k=0)

    def test_nonpositive_raw_rejected(self):
        with pytest.raises(NonPositiveSample):
            paired_from_halves(np.array([1.0, -1.0, 1.0, 1.0]), k=1)

    @given(st.lists(st.tuples(positive_vals, positive_vals), min_size=3,
                    max_size=60).filter(lambda v: len(v) % 3 == 0))
    def test_log_and_linear_block_means_agree(self, values):
        raw_x, raw_y = np.array(values).T
        s = paired_from_halves(np.concatenate([raw_x, raw_y]), k=3)
        lx = np.log(raw_x.reshape(-1, 3).mean(axis=1))
        np.testing.assert_array_equal(s.lx, lx)
        np.testing.assert_array_equal(
            s.d, np.log(raw_y.reshape(-1, 3).mean(axis=1)) - lx)


class TestPairedFromHalves:
    def test_splits_into_disjoint_halves(self):
        s = paired_from_halves(np.array([1.0, 2.0, 3.0, 4.0]), k=1)
        np.testing.assert_array_equal(s.lx, np.log([1.0, 2.0]))
        np.testing.assert_array_equal(s.d, np.log([3.0, 4.0]) - np.log([1.0, 2.0]))

    def test_k_averaging_applies_per_half(self):
        s = paired_from_halves(np.array([1.0, 3.0, 4.0, 8.0]), k=2)
        np.testing.assert_allclose(np.exp(s.lx), [2.0])
        np.testing.assert_allclose(np.exp(s.lx + s.d), [6.0])

    def test_odd_length_rejected(self):
        with pytest.raises(LengthNotDivisible):
            paired_from_halves(np.ones(5), k=1)

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_scratch_shorter_than_the_pairs_is_refused(self, k):
        with pytest.raises(ValueError, match="4 floats"):
            paired_from_halves(np.ones(2 * 5 * k), k, scratch=np.empty(4))


class TestBlockMeans:
    """The k-block means paired_from_halves takes in one scan of the draws."""

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("n", [1, 7, 13, 1001])
    def test_bits_of_numpys_mean(self, k, n):
        # k = 2..7 add the k columns and divide once, which numpy's mean
        # over a short axis matches bit for bit; if a numpy release changes
        # its order of summation, this fails.
        rng = np.random.default_rng(1000 * k + n)
        raw = rng.gamma(2.0, size=2 * n * k) * 10.0 ** rng.uniform(-3, 3, 2 * n * k)
        means = raw.reshape(2, n, k).mean(axis=2)
        s = paired_from_halves(raw, k)
        assert s.lx.tobytes() == np.log(means[0]).tobytes()
        assert s.d.tobytes() == (np.log(means[1]) - np.log(means[0])).tobytes()

    def test_k_one_pairs_may_overwrite_the_raw_halves(self):
        raw = np.arange(1.0, 11.0)
        expected = paired_from_halves(raw.copy(), 1)
        s = paired_from_halves(raw, 1, out=(raw[:5], raw[5:]))
        assert raw[:5].tobytes() == expected.lx.tobytes()
        assert raw[5:].tobytes() == expected.d.tobytes()
        assert np.shares_memory(s.lx, raw)

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 16])
    @pytest.mark.parametrize("n", [1, 5, 1001])
    @pytest.mark.parametrize("rows", [1, 3, 64, 5000])
    def test_pairs_may_overwrite_the_first_draws(self, k, n, rows):
        # Through a scratch of at least n floats, the pairs overwrite only
        # draws already read and keep the bits of pairing into new vectors;
        # a shorter scratch is refused before any draw is overwritten.
        rng = np.random.default_rng(100 * k + n)
        raw = rng.gamma(2.0, size=2 * n * k) * 10.0 ** rng.uniform(-3, 3, 2 * n * k)
        expected = paired_from_halves(raw.copy(), k)
        if rows < n:
            before = raw.copy()
            with pytest.raises(ValueError, match="shorter"):
                paired_from_halves(raw, k, out=(raw[:n], raw[n:2 * n]),
                                   scratch=np.full(rows, np.nan))
            assert raw.tobytes() == before.tobytes()
            return
        s = paired_from_halves(raw, k, out=(raw[:n], raw[n:2 * n]),
                               scratch=np.full(rows, np.nan))
        assert raw[:n].tobytes() == expected.lx.tobytes()
        assert raw[n:2 * n].tobytes() == expected.d.tobytes()
        assert np.shares_memory(s.lx, raw) and np.shares_memory(s.d, raw)

    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_pairs_over_the_draws_without_a_scratch_are_refused(self, k):
        # The block means would go through d, over X rows that later column
        # adds still read: refused before any draw is overwritten.
        n = 1000
        raw = np.random.default_rng(k).gamma(2.0, size=2 * n * k)
        before = raw.copy()
        for out in ((raw[:n], raw[n:2 * n]), (np.empty(n), raw[n:2 * n]),
                    (raw[:n], np.empty(n))):
            with pytest.raises(ValueError, match="scratch"):
                paired_from_halves(raw, k, out=out)
            assert raw.tobytes() == before.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("half", [0, 1])
    def test_non_finite_draw_is_a_non_positive_sample(self, k, bad, half):
        raw = np.ones(2 * 4 * k)
        raw[half * 4 * k + k + 1] = bad
        with pytest.raises(NonPositiveSample):
            paired_from_halves(raw, k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_infinite_draws_in_both_halves_raise_without_a_warning(self, k):
        # inf - inf is NaN; the session turns numpy's warning into an error.
        raw = np.ones(2 * 4 * k)
        raw[[k, 4 * k + k]] = np.inf
        with pytest.raises(NonPositiveSample):
            paired_from_halves(raw, k)

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    @pytest.mark.parametrize("half", [0, 1])
    def test_overflowing_block_sum_raises_without_a_warning(self, k, half):
        # Finite draws whose block sum overflows to inf, through the column
        # adds below k = 8 and mean(axis=1) from 8 up; the session turns
        # numpy's overflow warning into an error.
        raw = np.ones(2 * 4 * k)
        raw[half * 4 * k + k:half * 4 * k + 2 * k] = np.finfo(float).max
        with pytest.raises(NonPositiveSample):
            paired_from_halves(raw, k)
