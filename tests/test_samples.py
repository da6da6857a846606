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
from gapsandwich.samples import PairedSamples, k_sample_pairs, paired_from_halves

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
            PairedSamples(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
        with pytest.raises(NonPositiveSample):
            PairedSamples(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_log_domain_allows_negatives_but_not_inf(self):
        s = PairedSamples(np.array([-5.0, 3.0]), np.array([0.0, -1.0]),
                          log_domain=True)
        assert s.n == 2
        with pytest.raises(NonPositiveSample):
            PairedSamples(np.array([np.inf]), np.array([0.0]), log_domain=True)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            PairedSamples(np.array([1.0]), np.array([1.0]), k=0)

    def test_buffers_are_immutable(self):
        s = PairedSamples(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            s.xs[0] = 9.0

    def test_log_xs_converts_linear(self):
        s = PairedSamples(np.array([math.e]), np.array([1.0]))
        assert s.log_xs()[0] == pytest.approx(1.0)

    def test_subset(self):
        s = PairedSamples(np.arange(1.0, 5.0), np.arange(5.0, 9.0), k=2)
        sub = s.subset(1, 3)
        np.testing.assert_array_equal(sub.xs, [2.0, 3.0])
        assert sub.k == 2


class TestKSamplePairs:
    def test_arithmetic_mean_blocks(self):
        s = k_sample_pairs(np.array([1.0, 3.0, 2.0, 4.0]),
                           np.array([2.0, 2.0, 6.0, 2.0]), k=2)
        np.testing.assert_allclose(s.xs, [2.0, 3.0])
        np.testing.assert_allclose(s.ys, [2.0, 4.0])
        assert s.k == 2

    def test_k_one_is_identity(self):
        s = k_sample_pairs(np.array([5.0]), np.array([7.0]), k=1)
        np.testing.assert_array_equal(s.xs, [5.0])

    def test_log_domain_blocks_use_log_mean_exp(self):
        raw = np.log(np.array([1.0, 3.0]))
        s = k_sample_pairs(raw, raw, k=2, log_domain=True)
        assert s.xs[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert s.log_domain

    def test_length_not_divisible(self):
        with pytest.raises(LengthNotDivisible):
            k_sample_pairs(np.ones(5), np.ones(5), k=2)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            k_sample_pairs(np.ones(4), np.ones(4), k=0)

    def test_nonpositive_raw_rejected(self):
        with pytest.raises(NonPositiveSample):
            k_sample_pairs(np.array([1.0, -1.0]), np.ones(2), k=1)

    @given(st.lists(positive_vals, min_size=6, max_size=60).filter(
        lambda v: len(v) % 3 == 0))
    def test_log_and_linear_block_means_agree(self, values):
        values = np.array(values)
        lin = k_sample_pairs(values, values, k=3)
        logd = k_sample_pairs(np.log(values), np.log(values), k=3, log_domain=True)
        np.testing.assert_allclose(np.log(lin.xs), logd.xs, rtol=1e-10, atol=1e-10)


class TestPairedFromHalves:
    def test_splits_into_disjoint_halves(self):
        s = paired_from_halves(np.array([1.0, 2.0, 3.0, 4.0]), k=1)
        np.testing.assert_array_equal(s.xs, [1.0, 2.0])
        np.testing.assert_array_equal(s.ys, [3.0, 4.0])

    def test_k_averaging_applies_per_half(self):
        s = paired_from_halves(np.array([1.0, 3.0, 4.0, 8.0]), k=2)
        np.testing.assert_allclose(s.xs, [2.0])
        np.testing.assert_allclose(s.ys, [6.0])

    def test_odd_length_rejected(self):
        with pytest.raises(LengthNotDivisible):
            paired_from_halves(np.ones(5), k=1)
