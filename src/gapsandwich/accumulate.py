"""Numerically stable accumulation primitives, in mergeable form.

All per-pair bound arithmetic runs in log domain, so the core primitives are
a max-shifted log-sum-exp and log-mean-exp, plus an overflow-safe sample
mean and standard error.  Each is a reduction with a partial that two
contiguous blocks merge exactly, up to rounding (Chan, Golub & LeVeque,
1979):

  Moments    a block's (n, max |v|, mean and squared deviations of v / scale);
             merging rescales both sides to the larger scale, then applies
             Chan's update, so terms up to exp(700) never overflow a sum;
             Moments.of(v).mean_stderr() is one block's mean and stderr;
  LogSumExp  a block's (n, max, sum of exp(v - max)).

logsumexp and log_mean_exp are the one-block case of LogSumExp, with the
same arithmetic they always had.  A pass that splits its vectors into
chunks reduces each chunk where it was computed and merges the partials in
chunk order, so its result does not depend on which thread reduced which
chunk.

Moments.of and LogSumExp.of take an optional scratch vector, at least as
long as the values, for their temporaries; a shorter one is a ValueError.
Either way each sum is one numpy sum over a whole temporary vector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Per-pair exponents above this saturate to keep every reported value finite.
EXP_SATURATION = 700.0


def _work(values: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """A vector shaped like values for a temporary: the head of scratch, or
    a new one without."""
    if scratch is None:
        return np.empty(values.shape)
    if scratch.size < values.size:
        raise ValueError(f"scratch of {scratch.size} floats is shorter than "
                         f"the {values.size} values")
    return scratch[:values.size].reshape(values.shape)


def _divisor(scale: float) -> float:
    """The scale values are divided by: max |v|, or 1 where that is 0 or
    not finite."""
    return scale if scale != 0.0 and math.isfinite(scale) else 1.0


class Moments(NamedTuple):
    """Mergeable sample moments of a block of n values.

    scale is max |v|, or a value of its order; mean and m2 are the mean of
    v / s and the sum of the squared deviations of v / s from it, where s
    is _divisor(scale).  The empty block, n = 0, is the identity of merge.
    """

    n: int
    scale: float
    mean: float
    m2: float

    @classmethod
    def of(cls, values: np.ndarray, scratch: np.ndarray | None = None) -> "Moments":
        """The moments of values; with scratch, a float64 vector at least
        as long as values, no temporary is allocated."""
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 0:
            return cls(0, 0.0, 0.0, 0.0)
        scale = max(abs(float(values.max())), abs(float(values.min())))
        work = np.divide(values, _divisor(scale), out=_work(values, scratch))
        mean = float(work.mean())
        np.subtract(work, mean, out=work)
        np.square(work, out=work)
        return cls(n, scale, mean, float(work.sum()))

    def merge(self, other: "Moments") -> "Moments":
        """The moments of this block followed by other (Chan's update)."""
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        scale = max(self.scale, other.scale)
        s = _divisor(scale)
        ra, rb = _divisor(self.scale) / s, _divisor(other.scale) / s
        ma, mb = self.mean * ra, other.mean * rb
        n = self.n + other.n
        delta = mb - ma
        return Moments(n, scale, ma + delta * (other.n / n),
                       self.m2 * ra * ra + other.m2 * rb * rb
                       + delta * delta * (self.n * other.n / n))

    def mean_std(self) -> tuple[float, float]:
        """Sample mean and standard deviation (n-1 variance); one value
        reports a deviation of 0."""
        if self.n == 0:
            raise ValueError("mean of an empty array")
        s = _divisor(self.scale)
        if self.n == 1:
            return s * self.mean, 0.0
        return s * self.mean, s * math.sqrt(self.m2 / (self.n - 1))

    def mean_stderr(self) -> tuple[float, float]:
        """Sample mean and standard error (n-1 variance, std/sqrt(n)); one
        value reports stderr = +inf rather than a falsely tight 0."""
        mean, std = self.mean_std()
        if self.n == 1:
            return mean, math.inf
        return mean, std / math.sqrt(self.n)


class LogSumExp(NamedTuple):
    """Mergeable log-sum-exp of a block of n values.

    shift is the block's max, or 0 where that is not finite, and total is
    the sum of exp(v - shift); a block of -inf values has total 0 and is,
    like the empty block, an identity of merge.  Built along an axis, shift
    and total are arrays that keep the reduced axis, n counts the values
    along it, and the partial does not merge.
    """

    n: int
    shift: float | np.ndarray
    total: float | np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, axis: int | None = None,
           scratch: np.ndarray | None = None) -> "LogSumExp":
        """The partial of values, or of each slice along axis; with scratch,
        a float64 vector at least as long as values, no temporary as large
        as values is allocated, and its head is left holding
        exp(values - shift)."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return cls(0, 0.0, 0.0)
        vmax = np.max(values, axis=axis, keepdims=True)
        shift = np.where(np.isfinite(vmax), vmax, 0.0)
        exps = np.subtract(values, shift, out=_work(values, scratch))
        np.exp(exps, out=exps)
        total = np.sum(exps, axis=axis, keepdims=True)
        if axis is None:
            return cls(values.size, float(shift.reshape(())),
                       float(total.reshape(())))
        return cls(values.shape[axis], shift, total)

    def merge(self, other: "LogSumExp") -> "LogSumExp":
        """The partial of this block followed by other."""
        n = self.n + other.n
        if other.total == 0.0:
            return LogSumExp(n, self.shift, self.total)
        if self.total == 0.0:
            return LogSumExp(n, other.shift, other.total)
        shift = max(self.shift, other.shift)
        return LogSumExp(n, shift, float(
            self.total * np.exp(self.shift - shift)
            + other.total * np.exp(other.shift - shift)))

    def log_sum(self) -> float | np.ndarray:
        """log(sum(exp(values)))."""
        return np.log(self.total) + self.shift

    def log_mean(self) -> float | np.ndarray:
        """log of the arithmetic mean of exp(values)."""
        return self.log_sum() - math.log(self.n)


def _one_block(values: np.ndarray, axis: int | None) -> LogSumExp:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("logsumexp of an empty array")
    return LogSumExp.of(values, axis)


def _drop_axis(out: np.ndarray, axis: int | None) -> np.ndarray | float:
    return float(out) if axis is None else np.squeeze(out, axis=axis)


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(values))) with max-shifting; -inf entries are harmless.
    The one-block case of LogSumExp."""
    return _drop_axis(_one_block(values, axis).log_sum(), axis)


def log_mean_exp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log of the arithmetic mean of exp(values).  The one-block case of
    LogSumExp."""
    return _drop_axis(_one_block(values, axis).log_mean(), axis)

