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
width, the mean of the pairs' gaps W_i = C - 1 + Y_i/X_i exp(-C), with its
paired stderr, C* as log_ratio_mean, the mean ratio, the midpoint and the
saturation count.  So sandwich(s, 0.0)'s width is the first-order gap, the
tightest bound is lower_mean + C*, and sandwich_at_c_star(s)'s width_stderr is
the delta-method stderr of C*, since Var(exp(d - C*)) = Var(Y/X) / E[Y/X]^2.

The upper terms lx + W, with W = C - 1 + exp(M - C) w, M = max d and
w = exp(d - M), are affine in exp(-C), so UpperPartial reduces a block of
pairs without C and gives the Moments of its upper terms and widths at any
C that saturates no exponent.  bound_report merges blocks' partials in
order into a report, for sandwich, the sweep's cells and vae.evaluate
alike.  pairwise_at forms the upper terms and widths pair
by pair, at one C or one C per pair, as a block that saturates at its C
and vae.evaluate need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .accumulate import EXP_SATURATION, LogSumExp, Moments
from .errors import EmptyGrid
from .samples import PairedSamples


@dataclass(frozen=True)
class BoundReport:
    """Composite sandwich report for one batch of pairs.

    lower_* is E log X, upper_* the upper bound at C = c_used, width and
    width_stderr the mean of the pairs' gaps C - 1 + exp(d - C) and its
    paired stderr, and log_ratio_mean C* = log mean(Y/X).  With one C per
    pair, as vae.evaluate bounds them, c_used is their mean.  ratio_mean is
    the saturated mean of Y/X, and midpoint E log X + C*/2: exact for
    log-normal X, elsewhere a heuristic center of the optimal-C sandwich,
    second-order accurate for concentrated X.
    """

    lower_mean: float
    lower_stderr: float
    upper_mean: float
    upper_stderr: float
    width: float
    width_stderr: float
    log_ratio_mean: float
    c_used: float
    n: int
    k: int
    saturated_pairs: int = 0

    @property
    def ratio_mean(self) -> float:
        return math.exp(min(self.log_ratio_mean, EXP_SATURATION))

    @property
    def midpoint(self) -> float:
        return self.lower_mean + 0.5 * self.log_ratio_mean


def pairwise_at(lx: np.ndarray, d: np.ndarray, c: float | np.ndarray,
                out: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> tuple[Moments, Moments, int]:
    """The Moments of the upper terms log X_i - 1 + C_i + exp(d_i - C_i) of
    pairs (lx, d) and of their widths C_i - 1 + exp(d_i - C_i), and the
    count of saturated exponents, formed pair by pair: what UpperPartial.at
    gives, for a block that saturates at its C.

    c is one finite C or one per pair; for each, the terms' mean is a valid
    upper bound on log E X.  out, two float64 vectors of lx.size elements,
    is the work space, so none is allocated, and its second vector is left
    holding the terms; it may be (d, lx) itself, which is then overwritten.
    """
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError(f"C must be finite, got {c!r}")
    exps, terms = (np.empty(lx.size), np.empty(lx.size)) if out is None else out
    np.subtract(d, c, out=exps)
    saturated = int(np.count_nonzero(exps > EXP_SATURATION))
    np.exp(np.minimum(exps, EXP_SATURATION, out=exps), out=exps)
    np.subtract(lx, 1.0, out=terms)
    terms += c
    terms += exps
    exps += c - 1.0
    widths = Moments.of(exps, scratch=exps)
    return Moments.of(terms, scratch=exps), widths, saturated


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

    def at(self, c: float) -> tuple[Moments, Moments, int] | None:
        """The Moments of the upper terms and of the widths at a finite C,
        and no saturated exponent; None if some exponent d - C saturates:
        that block needs pairwise_at."""
        if not math.isfinite(c):
            raise ValueError(f"C must be finite, got {c!r}")
        n, shift, total = self.log_ratio
        if shift - c > EXP_SATURATION:
            return None
        # With a = e^(M-C), W = C - 1 + a w and U = lx + W, so (n - 1) Var(W)
        # = a^2 m2(w) and (n - 1) Var(U) = m2(lx) + a^2 m2(w) + 2 a c(lx, w),
        # every term taken in units of its Moments' scale.
        a = math.exp(shift - c)
        w_scale = max(abs(c - 1.0), a)
        s = w_scale or 1.0
        widths = Moments(n, w_scale, (c - 1.0) / s + a / s * (total / n),
                         (a / s) ** 2 * self.w_m2)
        scale = max(self.lower.scale, w_scale)
        s = scale or 1.0
        rl, ra = self.lower.scale / s, a / s
        mean = self.lower.mean * rl + (c - 1.0) / s + ra * (total / n)
        m2 = (self.lower.m2 * rl * rl + ra * ra * self.w_m2
              + 2.0 * ra * rl * self.co)
        return Moments(n, scale, mean, max(m2, 0.0)), widths, 0


def bound_report(blocks: Sequence[tuple[UpperPartial,
                                        tuple[Moments, Moments, int]]],
                 c: float, k: int) -> BoundReport:
    """The report of blocks of pairs, each its UpperPartial with its
    UpperPartial.at(C), or pairwise_at where it saturates, merged in block
    order.  c is the report's c_used: the blocks' one C, or the mean C over
    the pairs where the blocks or pairs have their own, as the sweep's
    folds and vae.evaluate's pairs do."""
    parts, at_c = zip(*blocks)
    uppers, widths, saturated = zip(*at_c)
    lower = reduce(Moments.merge, (part.lower for part in parts))
    log_ratio = reduce(LogSumExp.merge, (part.log_ratio for part in parts))
    return BoundReport(
        *lower.mean_stderr(), *reduce(Moments.merge, uppers).mean_stderr(),
        *reduce(Moments.merge, widths).mean_stderr(),
        log_ratio_mean=float(log_ratio.log_mean()), c_used=c, n=lower.n, k=k,
        saturated_pairs=sum(saturated))


def sandwich(s: PairedSamples, c: float) -> BoundReport:
    """The report of one batch of pairs at a finite C: bound_report of its
    UpperPartial, with pairwise_at where an exponent saturates.  Every
    bound estimate of the batch is one of its fields."""
    return _sandwich_of(s, UpperPartial.of(s.lx, s.d), c)


def sandwich_at_c_star(s: PairedSamples) -> BoundReport:
    """sandwich(s, C*) at the pairs' own C* = log mean(Y/X), from one
    reduction of the pairs, since their partial does not depend on C."""
    partial = UpperPartial.of(s.lx, s.d)
    return _sandwich_of(s, partial, float(partial.log_ratio.log_mean()))


def _sandwich_of(s: PairedSamples, partial: UpperPartial, c: float) -> BoundReport:
    return bound_report([(partial, partial.at(c)
                          or pairwise_at(s.lx, s.d, c))], c, s.k)


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
