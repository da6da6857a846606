"""Lower/upper bound estimators for log E X from paired samples.

Given pairs (X_i, Y_i) of independent draws with the same positive law
(possibly k-sample means), the log-evidence log E X is sandwiched between

    E log X   and   E log X - 1 + C + exp(-C) * E[Y/X]     (any real C),

with the classical first-order bound recovered at C = 0 and the tightest
member at C* = log E[Y/X].  The midpoint estimator E log X + C*/2 is exact
when X is log-normal.  Every estimator reads the pairs' stored lx = log x
and d = log y - log x; exponents are saturated at EXP_SATURATION so
heavy-tailed ratios cannot produce infinities in reports.

sandwich(s, C) is the one estimator over a batch of pairs: its BoundReport
holds the lower bound and the upper bound at C with their stderrs, the
mean ratio, the midpoint and the saturation count.  C* is
log_ratio_mean(s).mean, and the tightest bound is lower_mean + C*.

The upper terms lx - 1 + C + exp(M - C) w, with M = max d and
w = exp(d - M), are affine in exp(-C), so UpperPartial reduces a block of
pairs without C and gives the Moments of its upper terms at any C that
saturates no exponent.  bound_report merges blocks' partials in order into
a report.  upper_moments forms the upper terms pair by pair, at one C or
one C per pair, as a block that saturates at its C needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .accumulate import EXP_SATURATION, LogSumExp, Moments, log_mean_exp
from .errors import EmptyGrid
from .samples import PairedSamples


class Estimate(NamedTuple):
    """Monte Carlo mean with its standard error and saturation count."""

    mean: float
    stderr: float
    saturated: int = 0


@dataclass(frozen=True)
class BoundReport:
    """Composite sandwich report for one batch of pairs.

    lower_* is E log X, upper_* the upper bound at C = c_used, ratio_mean
    the saturated mean of Y/X, and midpoint E log X + C*/2: exact for
    log-normal X, elsewhere a heuristic center of the optimal-C sandwich,
    second-order accurate for concentrated X.
    """

    lower_mean: float
    lower_stderr: float
    upper_mean: float
    upper_stderr: float
    ratio_mean: float
    c_used: float
    n: int
    k: int
    midpoint: float
    saturated_pairs: int = 0

    @property
    def width(self) -> float:
        return self.upper_mean - self.lower_mean


def gap_upper_first_order(s: PairedSamples) -> Estimate:
    """Mean and stderr of Y_i/X_i - 1, the first-order gap bound.

    Adding this to the report's lower_mean gives a valid upper-bound
    estimate of log E X: sandwich's upper_mean at C = 0.  Ratios are
    exp(d), saturated and counted.
    """
    saturated = int(np.count_nonzero(s.d > EXP_SATURATION))
    ratios = np.exp(np.minimum(s.d, EXP_SATURATION))
    mean, stderr = Moments.of(ratios - 1.0).mean_stderr()
    return Estimate(mean, stderr, saturated)


def upper_moments(lx: np.ndarray, d: np.ndarray, c: float | np.ndarray,
                  out: tuple[np.ndarray, np.ndarray] | None = None,
                  ) -> tuple[Moments, int]:
    """The Moments of the upper terms log X_i - 1 + C_i + exp(d_i - C_i) of
    pairs (lx, d), and the count of saturated exponents.

    c is one finite C or one per pair; for each, the terms' mean is a valid
    upper bound on log E X.  out, two float64 vectors of lx.size elements,
    receives the terms' exponentials and the terms, so none is allocated;
    it may be (d, lx) itself, which the terms then overwrite.
    """
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError(f"C must be finite, got {c!r}")
    scaled, terms = (np.empty(lx.size), np.empty(lx.size)) if out is None else out
    np.subtract(d, c, out=scaled)
    saturated = int(np.count_nonzero(scaled > EXP_SATURATION))
    np.exp(np.minimum(scaled, EXP_SATURATION, out=scaled), out=scaled)
    np.subtract(lx, 1.0, out=terms)
    terms += c
    terms += scaled
    return Moments.of(terms, scratch=scaled), saturated


class UpperPartial(NamedTuple):
    """The upper terms of a block of pairs, reduced without C.

    lower is the Moments of lx, log_ratio the LogSumExp (n, M, sum of w) of
    d with w = exp(d - M), w_m2 the sum of the squared deviations of w, and
    co the sum of the products of the deviations of lx / s, s lower's
    divisor, and of w."""

    lower: Moments
    log_ratio: LogSumExp
    w_m2: float
    co: float

    @classmethod
    def of(cls, lx: np.ndarray, d: np.ndarray,
           out: tuple[np.ndarray, np.ndarray] | None = None) -> "UpperPartial":
        """The partial of n >= 1 pairs (lx, d).  out, two float64 vectors of
        at least n elements, takes the temporaries, so none is allocated; it
        may be (d, scratch), and d is then overwritten."""
        n = lx.size
        w, work = (np.empty(n), np.empty(n)) if out is None else out
        w, work = w[:n], work[:n]
        lower = Moments.of(lx, scratch=work)
        log_ratio = LogSumExp.of(d, scratch=w)  # leaves w = exp(d - M) there
        w -= log_ratio.total / n
        # lx / s centred, as Moments.of forms it: uncentred, the co-moment
        # would cancel when lx has a large mean.
        np.divide(lx, lower.scale or 1.0, out=work)
        work -= lower.mean
        co = float(np.multiply(work, w, out=work).sum())
        return cls(lower, log_ratio, float(np.square(w, out=w).sum()), co)

    def at(self, c: float) -> Moments | None:
        """The Moments of the upper terms at a finite C, or None if some
        exponent d - C saturates: those terms need upper_moments."""
        if not math.isfinite(c):
            raise ValueError(f"C must be finite, got {c!r}")
        n, shift, total = self.log_ratio
        if shift - c > EXP_SATURATION:
            return None
        # (n - 1) Var(U) = m2(lx) + a^2 m2(w) + 2 a c(lx, w) with a = e^(M-C),
        # every term taken in units of the terms' scale s.
        a = math.exp(shift - c)
        scale = max(self.lower.scale, abs(c - 1.0), a)
        s = scale or 1.0
        rl, ra = self.lower.scale / s, a / s
        mean = self.lower.mean * rl + (c - 1.0) / s + ra * (total / n)
        m2 = (self.lower.m2 * rl * rl + ra * ra * self.w_m2
              + 2.0 * ra * rl * self.co)
        return Moments(n, scale, mean, max(m2, 0.0))


def log_ratio_mean(s: PairedSamples) -> Estimate:
    """log of the sample mean of Y_i/X_i, with a delta-method stderr.

    The mean is log-sum-exp of d minus log n, so it stays finite even when
    individual ratios overflow.  stderr is se(mean ratio)/mean ratio,
    evaluated entirely in log domain.
    """
    n = s.n
    log_mean = log_mean_exp(s.d)
    if n == 1:
        return Estimate(log_mean, math.inf)
    log_mean_sq = log_mean_exp(2.0 * s.d)
    # log Var = log(E r^2 - (E r)^2); the subtraction cancels to zero for
    # (near-)constant ratios, which is genuinely zero spread.
    ratio_sq = math.exp(min(2.0 * log_mean - log_mean_sq, 0.0))
    if ratio_sq >= 1.0 - 1e-15:
        return Estimate(log_mean, 0.0)
    diff = log_mean_sq + math.log1p(-ratio_sq)
    log_se = 0.5 * diff + 0.5 * math.log(n / (n - 1)) - 0.5 * math.log(n)
    stderr = math.exp(min(log_se - log_mean, EXP_SATURATION))
    return Estimate(log_mean, stderr)


def bound_report(blocks: Sequence[tuple[UpperPartial, tuple[Moments, int]]],
                 c: float, k: int) -> BoundReport:
    """The report at C of blocks of pairs, each its UpperPartial with the
    Moments and saturation count of its upper terms at C, merged in block
    order."""
    lower = reduce(Moments.merge, (part.lower for part, _ in blocks))
    upper = reduce(Moments.merge, (moments for _, (moments, _) in blocks))
    log_ratio = reduce(LogSumExp.merge, (part.log_ratio for part, _ in blocks))
    lower_mean, lower_stderr = lower.mean_stderr()
    log_ratio_mean = float(log_ratio.log_mean())
    return BoundReport(
        lower_mean, lower_stderr, *upper.mean_stderr(),
        ratio_mean=math.exp(min(log_ratio_mean, EXP_SATURATION)), c_used=c,
        n=lower.n, k=k, midpoint=lower_mean + 0.5 * log_ratio_mean,
        saturated_pairs=sum(saturated for _, (_, saturated) in blocks))


def sandwich(s: PairedSamples, c: float) -> BoundReport:
    """The report of one batch of pairs at a finite C: bound_report of its
    UpperPartial, with upper_moments where an exponent saturates.

    Every bound estimate of the batch is one of its fields, or, for C* and
    the tightest bound lower_mean + C*, log_ratio_mean(s).mean.
    """
    partial = UpperPartial.of(s.lx, s.d)
    upper = partial.at(c)
    return bound_report([(partial, upper_moments(s.lx, s.d, c) if upper is None
                          else (upper, 0))], c, s.k)


def optimal_h_check(
    g_values: np.ndarray,
    a_grid: np.ndarray,
    h_scale: float = 1.0,
    rel_tol: float = 1e-9,
) -> bool:
    """Verify the tangent-family inequality log a <= g + a*h(g) and the
    pointwise minimality of h(g) = exp(-g - 1).

    Checks, for every g and every grid a (plus each g's tangency point
    a = exp(1+g) clamped to the grid hull, where equality is attained):

      1. validity:   log a <= g + a * h_scale * exp(-g-1)  (within rel_tol);
      2. minimality: shrinking h by the factor (1 - 1e-6) breaks the
         inequality at some probed point.

    Returns True only if both hold.  Passing h_scale < 1 deliberately tests
    a sub-minimal h, so validity itself fails near the tangency points.
    """
    g_values = np.asarray(g_values, dtype=float).ravel()
    a_grid = np.asarray(a_grid, dtype=float).ravel()
    if g_values.size == 0 or a_grid.size == 0:
        raise EmptyGrid("g_values and a_grid must be nonempty")
    if (a_grid <= 0.0).any():
        raise EmptyGrid("a_grid must be strictly positive")

    a_lo, a_hi = float(a_grid.min()), float(a_grid.max())
    minimality_delta = 1e-6

    def holds_everywhere(scale: float) -> bool:
        for g in g_values:
            h = scale * math.exp(-g - 1.0)
            probes = [np.clip(math.exp(1.0 + g), a_lo, a_hi)]
            for a in np.concatenate([a_grid, probes]):
                lhs = math.log(a)
                rhs = g + a * h
                if lhs > rhs + rel_tol * max(1.0, abs(rhs)):
                    return False
        return True

    valid = holds_everywhere(h_scale)
    minimal = not holds_everywhere(h_scale * (1.0 - minimality_delta))
    return valid and minimal


def tangent_family_g(x: np.ndarray, c: float) -> np.ndarray:
    """The one-parameter family g(x) = log x - 1 + C whose tangent bound
    yields the improved upper bound at parameter C."""
    return np.log(np.asarray(x, dtype=float)) - 1.0 + c
