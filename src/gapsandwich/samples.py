"""Paired Monte Carlo samples and the k-sample block reduction.

A pair holds one draw X of a positive quantity and one draw Y of an
independent copy with the same law.  The bound estimators read only log X
and log(Y/X), so a pair is stored as lx = log x and d = log y - log x.
k_sample_pairs and paired_from_halves take positive linear draws, average
blocks of k and take the logs once, into new vectors or into ones the caller
gives.  PairedSamples holds read-only views, never copies, and scans its
values with min and max, so no check makes a temporary as large as a vector.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySamples,
    InvalidK,
    LengthNotDivisible,
    NonPositiveSample,
    ShapeMismatch,
)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only float64 view of arr (a copy only if arr is not float64)."""
    view = np.asarray(arr, dtype=float).view()
    view.flags.writeable = False
    return view


def _all_finite(arr: np.ndarray) -> bool:
    # min and max propagate NaN and reach any infinity.
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


@dataclass(frozen=True)
class PairedSamples:
    """Equal-length finite vectors lx = log X and d = log Y - log X.

    k records the inner averaging count that produced each pair (1 for raw
    draws).
    """

    lx: np.ndarray
    d: np.ndarray
    k: int = 1

    def __post_init__(self) -> None:
        lx = _readonly(self.lx)
        d = _readonly(self.d)
        object.__setattr__(self, "lx", lx)
        object.__setattr__(self, "d", d)
        if lx.ndim != 1 or d.ndim != 1:
            raise ShapeMismatch("samples must be one-dimensional vectors")
        if lx.size != d.size:
            raise ShapeMismatch(f"lx and d lengths differ: {lx.size} vs {d.size}")
        if lx.size == 0:
            raise EmptySamples("paired samples are empty")
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidK(f"k must be a positive integer, got {self.k!r}")
        if not (_all_finite(lx) and _all_finite(d)):
            raise NonPositiveSample("lx and d must be finite")

    @property
    def n(self) -> int:
        return int(self.lx.size)

    def subset(self, start: int, stop: int) -> "PairedSamples":
        """Pairs [start, stop) as views of these vectors.  A slice of checked
        vectors needs no second check, so only emptiness is tested."""
        lx = self.lx[start:stop]
        if lx.size == 0:
            raise EmptySamples(f"pairs [{start}, {stop}) of {self.n} are empty")
        part = copy.copy(self)
        object.__setattr__(part, "lx", lx)
        object.__setattr__(part, "d", self.d[start:stop])
        return part


def k_sample_pairs(raw_x: np.ndarray, raw_y: np.ndarray, k: int,
                   out: tuple[np.ndarray, np.ndarray] | None = None) -> PairedSamples:
    """Average consecutive non-overlapping blocks of k positive raw draws of
    X and of Y, and store the logs of the block means as (lx, d).

    With out, two float64 vectors of raw_x.size // k elements, lx and d are
    written there and the result views them; nothing as large as the raw
    draws is allocated either way.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")
    raw_x = np.asarray(raw_x, dtype=float)
    raw_y = np.asarray(raw_y, dtype=float)
    if raw_x.size == 0 or raw_y.size == 0:
        raise EmptySamples("raw sample vectors are empty")
    if raw_x.size % k != 0 or raw_y.size % k != 0:
        raise LengthNotDivisible(
            f"lengths ({raw_x.size}, {raw_y.size}) not divisible by k={k}"
        )
    for name, arr in (("raw_x", raw_x), ("raw_y", raw_y)):
        if not (arr.min() > 0.0 and arr.max() < np.inf):
            raise NonPositiveSample(f"{name} must be strictly positive and finite")
    if raw_x.size != raw_y.size:
        raise ShapeMismatch(
            f"raw_x and raw_y lengths differ: {raw_x.size} vs {raw_y.size}"
        )
    n = raw_x.size // k
    lx, d = (np.empty(n), np.empty(n)) if out is None else out
    # log(mean x) and log(mean y) - log(mean x), the same operations in
    # place.
    raw_x.reshape(n, k).mean(axis=1, out=lx)
    np.log(lx, out=lx)
    raw_y.reshape(n, k).mean(axis=1, out=d)
    np.log(d, out=d)
    d -= lx
    return PairedSamples(lx, d, k=k)


def paired_from_halves(raw: np.ndarray, k: int,
                       out: tuple[np.ndarray, np.ndarray] | None = None) -> PairedSamples:
    """Split 2*n*k raw draws into disjoint halves (X first, Y second) and
    k-average each half, into out if given (see k_sample_pairs).  Disjoint
    halves keep X and Y independent."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % 2 != 0:
        raise LengthNotDivisible(f"need an even number of draws, got {raw.size}")
    half = raw.size // 2
    return k_sample_pairs(raw[:half], raw[half:], k, out)
