import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsandwich.accumulate import log_mean_exp, logsumexp, mean_stderr

finite_lists = st.lists(
    st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=200
)


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
        mean, stderr = mean_stderr(np.array([2.5]))
        assert mean == 2.5
        assert stderr == math.inf

    def test_matches_numpy(self):
        values = np.linspace(-3.0, 5.0, 101)
        mean, stderr = mean_stderr(values)
        assert mean == pytest.approx(values.mean())
        assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(values.size))

    def test_huge_values_do_not_overflow(self):
        values = np.array([1e300, 1e300, -1e300])
        mean, stderr = mean_stderr(values)
        assert math.isfinite(mean)
        assert math.isfinite(stderr)
