"""Lower/upper bound estimators for log E X from paired samples.

Given pairs (X_i, Y_i) of independent draws with the same positive law
(possibly k-sample means), the log-evidence log E X is sandwiched between

    E log X   and   E log X - 1 + C + exp(-C) * E[Y/X]     (any real C),

with the classical first-order bound recovered at C = 0 and the tightest
member at C* = log E[Y/X].  The midpoint estimator E log X + C*/2 is exact
when X is log-normal.  Every estimator reads the pairs' stored lx = log x
and d = log y - log x; exponents are saturated at EXP_SATURATION so
heavy-tailed ratios cannot produce infinities in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accumulate import EXP_SATURATION, log_mean_exp, mean_stderr
from .errors import EmptyGrid
from .samples import PairedSamples


class Estimate(NamedTuple):
    """Monte Carlo mean with its standard error and saturation count."""

    mean: float
    stderr: float
    saturated: int = 0


@dataclass(frozen=True)
class BoundReport:
    """Composite sandwich report for one batch of pairs."""

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


def jensen_lower(s: PairedSamples) -> Estimate:
    """Mean and stderr of log X_i: the Jensen lower bound on log E X."""
    mean, stderr = mean_stderr(s.lx)
    return Estimate(mean, stderr)


def _saturated_exp(exponents: np.ndarray) -> tuple[np.ndarray, int]:
    saturated = int(np.count_nonzero(exponents > EXP_SATURATION))
    return np.exp(np.minimum(exponents, EXP_SATURATION)), saturated


def gap_upper_first_order(s: PairedSamples) -> Estimate:
    """Mean and stderr of Y_i/X_i - 1, the first-order gap bound.

    Adding this to jensen_lower gives a valid upper-bound estimate of
    log E X.  Ratios are exp(d), saturated and counted.
    """
    ratios, saturated = _saturated_exp(s.d)
    mean, stderr = mean_stderr(ratios - 1.0)
    return Estimate(mean, stderr, saturated)


def improved_upper(s: PairedSamples, c: float) -> Estimate:
    """Mean and stderr of log X_i - 1 + C + exp(-C) * Y_i/X_i.

    A valid upper bound on log E X for every finite C; the per-pair
    exponential is computed as exp(d - C) for stability.
    """
    if not math.isfinite(c):
        raise ValueError(f"C must be finite, got {c!r}")
    scaled, saturated = _saturated_exp(s.d - c)
    terms = s.lx - 1.0 + c + scaled
    mean, stderr = mean_stderr(terms)
    return Estimate(mean, stderr, saturated)


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


def optimal_c(s: PairedSamples) -> float:
    """The bound-minimizing C: log of the sample mean of Y/X."""
    return log_ratio_mean(s).mean


def optimal_upper(s: PairedSamples) -> float:
    """Tightest (non-additive) upper bound: E log X + log E[Y/X]."""
    return jensen_lower(s).mean + optimal_c(s)


def midpoint_evidence(s: PairedSamples) -> float:
    """Point estimate E log X + 0.5 * log E[Y/X].

    Exact for log-normal X; elsewhere a heuristic center of the optimal-C
    sandwich, second-order accurate for concentrated X.
    """
    return jensen_lower(s).mean + 0.5 * optimal_c(s)


def sandwich(s: PairedSamples, c: float) -> BoundReport:
    """Assemble the full lower/upper report at a given C."""
    lower = jensen_lower(s)
    upper = improved_upper(s, c)
    ratio = log_ratio_mean(s)
    return BoundReport(
        lower_mean=lower.mean,
        lower_stderr=lower.stderr,
        upper_mean=upper.mean,
        upper_stderr=upper.stderr,
        ratio_mean=math.exp(min(ratio.mean, EXP_SATURATION)),
        c_used=c,
        n=s.n,
        k=s.k,
        midpoint=lower.mean + 0.5 * ratio.mean,
        saturated_pairs=upper.saturated,
    )


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
