"""Deterministic, splittable random streams.

Every stochastic routine in the package takes a 64-bit seed plus integer
stream ids and hashes them with derive_key into the key of its own
generator.  Results therefore depend only on (seed, stream ids), never on
execution order or thread count.  The generator is counter-based Philox
unless the caller names another bit generator; the analytic sweep's chunks
name SFC64 (see sweep).
"""

from __future__ import annotations

from typing import Callable

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


def philox(key: int) -> np.random.BitGenerator:
    """Counter-based Philox4x64 keyed directly by a 64-bit key."""
    return np.random.Philox(key=key)


def generator(
    seed: int,
    *stream: int,
    bit_generator: Callable[[int], np.random.BitGenerator] = philox,
) -> np.random.Generator:
    """Generator for the given seed and stream ids: bit_generator called on
    derive_key(seed, *stream)."""
    return np.random.Generator(bit_generator(derive_key(seed, *stream)))

