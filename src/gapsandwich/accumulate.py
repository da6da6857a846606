"""Numerically stable accumulation primitives.

All per-pair bound arithmetic runs in log domain, so the core primitives are
a max-shifted log-sum-exp and log-mean-exp, plus an overflow-safe sample
mean and standard error.
"""

from __future__ import annotations

import math

import numpy as np

# Per-pair exponents above this saturate to keep every reported value finite.
EXP_SATURATION = 700.0


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(values))) with max-shifting; -inf entries are harmless."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("logsumexp of an empty array")
    vmax = np.max(values, axis=axis, keepdims=True)
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    out = np.log(np.sum(np.exp(values - vmax), axis=axis, keepdims=True)) + vmax
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def log_mean_exp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log of the arithmetic mean of exp(values)."""
    values = np.asarray(values, dtype=float)
    n = values.size if axis is None else values.shape[axis]
    return logsumexp(values, axis=axis) - math.log(n)


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error (n-1 variance, std/sqrt(n)).

    n = 1 reports stderr = +inf rather than a falsely tight 0.  Moments are
    computed on rescaled values so saturated terms (up to exp(700)) cannot
    overflow intermediate sums.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("mean of an empty array")
    scale = float(np.max(np.abs(values)))
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    scaled = values / scale
    mean_scaled = float(scaled.mean())
    mean = scale * mean_scaled
    if n == 1:
        return mean, math.inf
    var_scaled = float(np.sum((scaled - mean_scaled) ** 2)) / (n - 1)
    stderr = scale * math.sqrt(var_scaled) / math.sqrt(n)
    return mean, stderr
