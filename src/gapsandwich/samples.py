"""Paired Monte Carlo samples and the k-sample block reduction.

A pair (xs[i], ys[i]) holds one draw of a positive quantity and one draw of
an independent copy with the same law; bound estimators consume these pairs.
Storage may be linear or log domain; all downstream ratio arithmetic happens
in log domain regardless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accumulate import logsumexp
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
    """Equal-length vectors of draws of X and of an independent copy Y.

    k records the inner averaging count that produced each element (1 for raw
    draws).  When log_domain is set, xs/ys hold natural logs of the underlying
    positive samples and may be any finite reals.
    """

    xs: np.ndarray
    ys: np.ndarray
    k: int = 1
    log_domain: bool = False

    def __post_init__(self) -> None:
        xs = _frozen(self.xs)
        ys = _frozen(self.ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ShapeMismatch("samples must be one-dimensional vectors")
        if xs.size != ys.size:
            raise ShapeMismatch(
                f"xs and ys lengths differ: {xs.size} vs {ys.size}"
            )
        if xs.size == 0:
            raise EmptySamples("paired samples are empty")
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidK(f"k must be a positive integer, got {self.k!r}")
        if self.log_domain:
            if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
                raise NonPositiveSample("log-domain samples must be finite")
        else:
            for name, arr in (("xs", xs), ("ys", ys)):
                if not np.isfinite(arr).all() or (arr <= 0.0).any():
                    raise NonPositiveSample(
                        f"linear-domain {name} must be strictly positive and finite"
                    )

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def log_xs(self) -> np.ndarray:
        return self.xs if self.log_domain else np.log(self.xs)

    def log_ys(self) -> np.ndarray:
        return self.ys if self.log_domain else np.log(self.ys)

    def subset(self, start: int, stop: int) -> "PairedSamples":
        return PairedSamples(
            self.xs[start:stop], self.ys[start:stop], k=self.k,
            log_domain=self.log_domain,
        )

    def scaled(self, lam: float) -> "PairedSamples":
        """Samples of lam*X, lam*Y (adds log(lam) in log domain)."""
        if lam <= 0.0:
            raise NonPositiveSample("scale factor must be positive")
        if self.log_domain:
            shift = np.log(lam)
            return PairedSamples(self.xs + shift, self.ys + shift, k=self.k,
                                 log_domain=True)
        return PairedSamples(self.xs * lam, self.ys * lam, k=self.k,
                             log_domain=False)


def _block_means(raw: np.ndarray, k: int, log_domain: bool) -> np.ndarray:
    blocks = raw.reshape(-1, k)
    if log_domain:
        return np.asarray(logsumexp(blocks, axis=1)) - np.log(k)
    return blocks.mean(axis=1)


def k_sample_pairs(
    raw_x: np.ndarray,
    raw_y: np.ndarray,
    k: int,
    log_domain: bool = False,
) -> PairedSamples:
    """Average consecutive non-overlapping blocks of k raw draws.

    Linear inputs use the arithmetic mean; log inputs use log-sum-exp minus
    log k, so the result is the log of the linear block mean.
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
    if not log_domain:
        for name, arr in (("raw_x", raw_x), ("raw_y", raw_y)):
            if not np.isfinite(arr).all() or (arr <= 0.0).any():
                raise NonPositiveSample(
                    f"linear-domain {name} must be strictly positive and finite"
                )
    return PairedSamples(
        _block_means(raw_x, k, log_domain),
        _block_means(raw_y, k, log_domain),
        k=k,
        log_domain=log_domain,
    )


def paired_from_halves(
    raw: np.ndarray, k: int, log_domain: bool = False
) -> PairedSamples:
    """Split 2*n*k raw draws into disjoint halves (X first, Y second) and
    k-average each half.  Disjoint halves keep X and Y independent."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % 2 != 0:
        raise LengthNotDivisible(f"need an even number of draws, got {raw.size}")
    half = raw.size // 2
    return k_sample_pairs(raw[:half], raw[half:], k, log_domain=log_domain)
