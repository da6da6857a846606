"""Paired Monte Carlo samples and the k-sample block reduction.

A pair holds one draw X of a positive quantity and one draw Y of an
independent copy with the same law.  The bound estimators read only log X
and log(Y/X), so a pair is stored as lx = log x and d = log y - log x.
paired_from_halves takes 2*n*k positive linear draws, averages blocks of k
in each half and takes the logs, in one scan of the draws, into new vectors
or into ones the caller gives.  Those may lie over the draws themselves:
at k = 1 the two raw halves, which the logs overwrite, and at k >= 2 the
first n and the next n draws.  At k >= 2 the block means of each half go
through a scratch vector of at least n floats, and their logs overwrite
only draws already read: lx is written once every X row is read, and d,
written once every Y row is read, lies in X rows alone, since 2n <= nk.
PairedSamples holds read-only views, never copies, and scans its values
with min and max, so no check makes a temporary as large as a vector.
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


# Below this k, numpy's mean over the block axis adds the k columns left to
# right from zero, so k strided column adds and one divide give its bits at
# a fraction of its cost; from 8 up it unrolls the sum by 8.
_COLUMN_ADDS_BELOW = 8


def _block_means(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The means of the rows of blocks, an (n, k) view with k >= 2, into out,
    with the bits of blocks.mean(axis=1)."""
    k = blocks.shape[1]
    if k >= _COLUMN_ADDS_BELOW:
        return blocks.mean(axis=1, out=out)
    np.add(blocks[:, 0], blocks[:, 1], out=out)
    for i in range(2, k):
        out += blocks[:, i]
    out /= k
    return out


def paired_from_halves(raw: np.ndarray, k: int,
                       out: tuple[np.ndarray, np.ndarray] | None = None,
                       scratch: np.ndarray | None = None) -> PairedSamples:
    """Split 2*n*k positive raw draws into disjoint halves (X first, Y
    second), average consecutive non-overlapping blocks of k in each, and
    store the logs of the block means as (lx, d).  Disjoint halves keep X
    and Y independent.

    With out, two float64 vectors of n elements, lx and d are written there
    and the result views them; nothing as large as the raw draws is
    allocated either way.  At k >= 2 the block means go through scratch, a
    float64 vector of at least n elements apart from raw and out, or else
    through d; a shorter scratch is a ValueError.  out may be raw[:n] and
    raw[n:2n], which then hold lx and d; at k >= 2 an out that may share
    memory with raw needs a scratch, and is a ValueError without one.  A
    draw that is not positive raises NonPositiveSample here, and one that
    is infinite or NaN makes lx or d non-finite, which PairedSamples
    rejects with the same class.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        raise EmptySamples("raw sample vector is empty")
    if raw.size % (2 * k) != 0:
        raise LengthNotDivisible(
            f"need 2*n*k draws, got {raw.size}, not divisible by 2k={2 * k}"
        )
    if not raw.min() > 0.0:
        raise NonPositiveSample("raw draws must be strictly positive and finite")
    n = raw.size // (2 * k)
    if scratch is not None and scratch.size < n:
        raise ValueError(f"scratch of {scratch.size} floats is shorter than "
                         f"the {n} pairs")
    blocks = raw.reshape(2, n, k)
    lx, d = (np.empty(n), np.empty(n)) if out is None else out
    if k > 1 and scratch is None and (np.may_share_memory(lx, raw)
                                      or np.may_share_memory(d, raw)):
        raise ValueError("pairs written over the draws need a scratch at k >= 2")
    # A block of finite draws may sum to inf, and infinite draws in both
    # halves give inf - inf: PairedSamples rejects the inf or NaN, so numpy
    # need not warn of either.
    with np.errstate(over="ignore", invalid="ignore"):
        if k == 1:
            # A mean over one draw is the draw itself.
            np.log(blocks[0, :, 0], out=lx)
            np.log(blocks[1, :, 0], out=d)
            d -= lx
        else:
            means = d if scratch is None else scratch[:n]
            np.log(_block_means(blocks[0], means), out=lx)
            np.log(_block_means(blocks[1], means), out=means)
            np.subtract(means, lx, out=d)
    return PairedSamples(lx, d, k=k)
