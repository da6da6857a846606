import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsandwich.accumulate import (
    EXP_SATURATION,
    LogSumExp,
    Moments,
    log_mean_exp,
    logsumexp,
)

finite_lists = st.lists(
    st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=200
)


def whole_pass_logsumexp(values, axis=None):
    """logsumexp as one max-shifted pass over the whole array computes it."""
    vmax = np.max(values, axis=axis, keepdims=True)
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    out = np.log(np.sum(np.exp(values - vmax), axis=axis, keepdims=True)) + vmax
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def whole_pass_mean_stderr(values):
    """Mean and stderr as one pass over the whole vector, divided by its
    largest magnitude, computes them."""
    n = values.size
    scale = float(np.max(np.abs(values)))
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    scaled = values / scale
    mean_scaled = float(scaled.mean())
    if n == 1:
        return scale * mean_scaled, math.inf
    var_scaled = float(np.sum((scaled - mean_scaled) ** 2)) / (n - 1)
    return scale * mean_scaled, scale * math.sqrt(var_scaled) / math.sqrt(n)


def blocks_of(values, cuts):
    """values split into contiguous blocks at the given cut points; a
    repeated cut makes an empty block."""
    return np.split(values, sorted(c % (values.size + 1) for c in cuts))


def close(merged, whole, rel=1e-13):
    return abs(merged - whole) <= rel * max(1.0, abs(whole))


class TestLogSumExp:
    @given(finite_lists)
    def test_matches_naive_sum(self, values):
        values = np.array(values)
        naive = math.log(np.sum(np.exp(values)))
        assert logsumexp(values) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_large_offsets_do_not_overflow(self):
        values = np.array([1000.0, 1000.0 + math.log(2.0)])
        assert logsumexp(values) == pytest.approx(1000.0 + math.log(3.0))

    def test_axis_reduction(self):
        mat = np.log(np.array([[1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_allclose(logsumexp(mat, axis=1), np.log([4.0, 4.0]))

    def test_neg_inf_entries_are_ignored(self):
        assert logsumexp(np.array([-np.inf, 0.0])) == pytest.approx(0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            logsumexp(np.array([]))

    @given(st.floats(min_value=-30, max_value=30), st.integers(1, 50))
    def test_log_mean_exp_of_constant(self, c, n):
        assert log_mean_exp(np.full(n, c)) == pytest.approx(c, abs=1e-12)


class TestMeanStderr:
    def test_single_sample_reports_infinite_stderr(self):
        mean, stderr = Moments.of(np.array([2.5])).mean_stderr()
        assert mean == 2.5
        assert stderr == math.inf

    def test_matches_numpy(self):
        values = np.linspace(-3.0, 5.0, 101)
        mean, stderr = Moments.of(values).mean_stderr()
        assert mean == pytest.approx(values.mean())
        assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(values.size))

    def test_huge_values_do_not_overflow(self):
        values = np.array([1e300, 1e300, -1e300])
        mean, stderr = Moments.of(values).mean_stderr()
        assert math.isfinite(mean)
        assert math.isfinite(stderr)


class TestOneBlock:
    """Moments.of(v).mean_stderr(), logsumexp and log_mean_exp are the
    one-block case of the partials, with the bits of one whole-vector pass."""

    @given(finite_lists)
    def test_random_vectors(self, values):
        values = np.array(values)
        assert Moments.of(values).mean_stderr() == whole_pass_mean_stderr(values)
        assert logsumexp(values) == whole_pass_logsumexp(values)
        assert log_mean_exp(values) == (whole_pass_logsumexp(values)
                                        - math.log(values.size))

    @pytest.mark.parametrize("values", [[2.5], [0.0], [-1e300]])
    def test_one_value(self, values):
        values = np.array(values)
        assert Moments.of(values).mean_stderr() == whole_pass_mean_stderr(values)
        assert Moments.of(values).mean_stderr()[1] == math.inf
        assert logsumexp(values) == whole_pass_logsumexp(values)

    @pytest.mark.parametrize("values", [np.zeros(7), np.full(9, 3.25),
                                        np.full(300, -0.1)])
    def test_constant_and_all_zero_vectors(self, values):
        assert Moments.of(values).mean_stderr() == whole_pass_mean_stderr(values)
        assert logsumexp(values) == whole_pass_logsumexp(values)

    @given(finite_lists, st.lists(st.integers(0, 199), min_size=1, max_size=20))
    def test_neg_inf_entries(self, values, where):
        values = np.array(values)
        values[[i % values.size for i in where]] = -np.inf
        values[0] = 1.5  # at least one finite entry
        assert logsumexp(values) == whole_pass_logsumexp(values)
        assert LogSumExp.of(values).n == values.size

    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 1),
           st.integers(0, 2**32 - 1))
    def test_axis_reduction(self, rows, cols, axis, seed):
        values = np.random.default_rng(seed).normal(0.0, 20.0, (rows, cols))
        assert np.array_equal(logsumexp(values, axis=axis),
                              whole_pass_logsumexp(values, axis=axis))

    @given(finite_lists)
    def test_scratch_changes_no_bit(self, values):
        values = np.array(values)
        scratch = np.full(values.size + 3, np.nan)
        assert Moments.of(values, scratch=scratch) == Moments.of(values)
        assert LogSumExp.of(values, scratch=scratch) == LogSumExp.of(values)


class TestMerge:
    """Partials of contiguous blocks, merged in order, give the whole
    vector's mean, stderr and log-sum-exp up to rounding."""

    @given(finite_lists, st.lists(st.integers(0, 200), max_size=8))
    def test_any_split_agrees_with_the_whole(self, values, cuts):
        values = np.array(values)
        blocks = blocks_of(values, cuts)
        moments = reduce(Moments.merge, map(Moments.of, blocks))
        lse = reduce(LogSumExp.merge, map(LogSumExp.of, blocks))
        assert moments.n == lse.n == values.size
        mean, stderr = moments.mean_stderr()
        whole_mean, whole_stderr = Moments.of(values).mean_stderr()
        assert close(mean, whole_mean)
        assert stderr == whole_stderr == math.inf or close(stderr, whole_stderr)
        assert close(float(lse.log_sum()), logsumexp(values))
        assert close(float(lse.log_mean()), log_mean_exp(values))

    @given(finite_lists, st.lists(st.integers(0, 200), max_size=8),
           st.lists(st.integers(0, 199), min_size=1, max_size=20))
    def test_blocks_of_neg_inf_merge_as_empty(self, values, cuts, where):
        values = np.array(values)
        values[[i % values.size for i in where]] = -np.inf
        values[-1] = -2.0
        lse = reduce(LogSumExp.merge, map(LogSumExp.of, blocks_of(values, cuts)))
        assert lse.n == values.size
        assert close(float(lse.log_sum()), logsumexp(values))

    def test_one_block_merged_with_empty_ones_keeps_its_bits(self):
        values = np.linspace(-3.0, 5.0, 101)
        empty_m, empty_l = Moments.of(values[:0]), LogSumExp.of(values[:0])
        for m in (empty_m.merge(Moments.of(values)),
                  Moments.of(values).merge(empty_m)):
            assert m.mean_stderr() == Moments.of(values).mean_stderr()
        for lse in (empty_l.merge(LogSumExp.of(values)),
                    LogSumExp.of(values).merge(empty_l)):
            assert float(lse.log_mean()) == log_mean_exp(values)

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 120)), min_size=2,
                    max_size=8), st.integers(0, 2**32 - 1))
    def test_saturated_blocks_stay_finite(self, layout, seed):
        # Upper terms saturate at exp(700) ~ 1.01e304; 17 800 of them
        # overflow an unscaled sum.
        rng = np.random.default_rng(seed)
        big = math.exp(EXP_SATURATION)
        blocks = [big * (1.0 + 0.01 * rng.random(m)) if saturated
                  else rng.normal(0.0, 5.0, m) for saturated, m in layout]
        blocks.append(np.full(17_800, big))
        values = np.concatenate(blocks)
        with np.errstate(over="ignore"):
            assert np.sum(values) == np.inf
        mean, stderr = reduce(Moments.merge, map(Moments.of, blocks)).mean_stderr()
        whole_mean, whole_stderr = Moments.of(values).mean_stderr()
        assert math.isfinite(mean) and math.isfinite(stderr)
        assert close(mean, whole_mean) and close(stderr, whole_stderr)


class TestLeafByLeaf:
    """No sum is taken leaf by leaf: a scratch holds every value, so each
    sum is numpy's own over a whole vector, and one shorter than the values
    is refused."""

    @pytest.mark.parametrize("values", [
        np.zeros(5000), np.full(4099, 3.25), np.full(300, -0.1),
        np.concatenate([np.full(2000, 1e300), np.full(3001, -1e300)]),
        np.linspace(-1e300, 1e300, 10_007),
        np.random.default_rng(9).lognormal(0.0, 3.0, 100_003),
    ])
    @pytest.mark.parametrize("cap", [128, 1000, 2**14])
    def test_short_scratch_keeps_every_field(self, values, cap):
        # The shortest scratch allowed, exactly as long as the values, keeps
        # every field; cap floats are refused unless they hold the values.
        exact = np.full(values.size, np.nan)
        assert Moments.of(values, scratch=exact) == Moments.of(values)
        assert LogSumExp.of(values, scratch=exact) == LogSumExp.of(values)
        short = np.full(cap, np.nan)
        if cap < values.size:
            with pytest.raises(ValueError, match="shorter"):
                Moments.of(values, scratch=short)
            with pytest.raises(ValueError, match="shorter"):
                LogSumExp.of(values, scratch=short)
        else:
            assert Moments.of(values, scratch=short) == Moments.of(values)

    @pytest.mark.parametrize("cap", [128, 2**14])
    def test_short_scratch_keeps_neg_inf_log_sum_exp(self, cap):
        values = np.random.default_rng(10).normal(0.0, 30.0, 50_000)
        values[::7] = -np.inf
        exact = np.empty(values.size)
        assert LogSumExp.of(values, scratch=exact) == LogSumExp.of(values)
        values[:] = -np.inf
        assert (LogSumExp.of(values, scratch=exact) == LogSumExp.of(values)
                == (values.size, 0.0, 0.0))
        with pytest.raises(ValueError, match="shorter"):
            LogSumExp.of(values, scratch=np.empty(cap))

    def test_scratch_shorter_than_the_values_is_refused(self):
        values = np.ones((20, 10))
        for axis in (None, 0, 1):
            with pytest.raises(ValueError, match="199 floats"):
                LogSumExp.of(values, axis=axis, scratch=np.empty(199))
        with pytest.raises(ValueError, match="199 floats"):
            Moments.of(values, scratch=np.empty(199))

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 40),
           st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_axis_scratch_changes_no_bit(self, a, b, c, axis, seed):
        values = np.random.default_rng(seed).normal(0.0, 20.0, (a, b, 2, c))
        values[0, 0, 0, 0] = -np.inf
        scratch = np.full(values.size + 5, np.nan)
        ref = LogSumExp.of(values, axis=axis)
        got = LogSumExp.of(values, axis=axis, scratch=scratch)
        assert got.n == ref.n
        assert np.array_equal(got.shift, ref.shift)
        assert np.array_equal(got.total, ref.total)
