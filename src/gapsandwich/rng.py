"""Deterministic, splittable random streams.

Every stochastic routine in the package takes a 64-bit seed plus integer
stream ids and derives an independent counter-based generator from them.
Results therefore depend only on (seed, stream ids), never on execution
order or thread count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(seed: int, *stream: int) -> int:
    """Hash a base seed and any number of stream ids into a 64-bit key.

    derive_key(s) != derive_key(s, 0): appending an id always moves the key,
    so nested derivations (replication, k, datapoint, ...) cannot collide by
    construction of the chain.
    """
    key = mix64(seed & _MASK64)
    for sid in stream:
        key = mix64((key + _GOLDEN) ^ mix64(sid & _MASK64))
    return key


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the given seed and stream ids."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *stream)))

