"""Paired Monte Carlo samples and the k-sample block reduction.

A pair holds one draw X of a positive quantity and one draw Y of an
independent copy with the same law.  The bound estimators read only log X
and log(Y/X), so a pair is stored as lx = log x and d = log y - log x.
k_sample_pairs and paired_from_halves take positive linear draws, average
blocks of k and take the logs once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySamples,
    InvalidK,
    LengthNotDivisible,
    NonPositiveSample,
    ShapeMismatch,
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


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
        lx = _frozen(self.lx)
        d = _frozen(self.d)
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
        if not (np.isfinite(lx).all() and np.isfinite(d).all()):
            raise NonPositiveSample("lx and d must be finite")

    @property
    def n(self) -> int:
        return int(self.lx.size)

    def subset(self, start: int, stop: int) -> "PairedSamples":
        return PairedSamples(self.lx[start:stop], self.d[start:stop], k=self.k)


def k_sample_pairs(raw_x: np.ndarray, raw_y: np.ndarray, k: int) -> PairedSamples:
    """Average consecutive non-overlapping blocks of k positive raw draws of
    X and of Y, and store the logs of the block means as (lx, d)."""
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
        if not np.isfinite(arr).all() or (arr <= 0.0).any():
            raise NonPositiveSample(f"{name} must be strictly positive and finite")
    if raw_x.size != raw_y.size:
        raise ShapeMismatch(
            f"raw_x and raw_y lengths differ: {raw_x.size} vs {raw_y.size}"
        )
    lx = np.log(raw_x.reshape(-1, k).mean(axis=1))
    return PairedSamples(lx, np.log(raw_y.reshape(-1, k).mean(axis=1)) - lx, k=k)


def paired_from_halves(raw: np.ndarray, k: int) -> PairedSamples:
    """Split 2*n*k raw draws into disjoint halves (X first, Y second) and
    k-average each half.  Disjoint halves keep X and Y independent."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % 2 != 0:
        raise LengthNotDivisible(f"need an even number of draws, got {raw.size}")
    half = raw.size // 2
    return k_sample_pairs(raw[:half], raw[half:], k)
