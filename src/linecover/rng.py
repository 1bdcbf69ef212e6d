"""Counter-based deterministic random number generation.

The generator is specified completely so that any implementation can
reproduce the same stream from the same seed: output ``i`` of a stream with
64-bit key ``k`` is ``mix64((k + i * GOLDEN) mod 2**64)`` where ``mix64`` is
the splitmix64 finalizer, and uniforms take the top 53 bits of that word.
Substreams are addressed by integer labels folded into the key, so sweep
cells (n, run) draw from independent, order-insensitive streams.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)   # splitmix64 multipliers


def mix64(z):
    """splitmix64 finalizer: bijective 64-bit mixing function of an int or of
    each entry of a uint64 array, whose arithmetic wraps mod 2**64."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * _MIX[0]) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX[1]) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, *labels: int) -> int:
    """Fold a base seed and integer stream labels into one 64-bit key."""
    key = mix64((seed + _GOLDEN) & _MASK64)
    for word in labels:
        key = mix64((key + _GOLDEN + (word & _MASK64)) & _MASK64)
    return key


class StreamRng:
    """Uniform generator over the substream addressed by (seed, *labels)."""

    def __init__(self, seed: int, *labels: int):
        self.key = derive_key(seed, *labels)
        self.counter = 0

    def next_u64(self) -> int:
        value = mix64((self.key + self.counter * _GOLDEN) & _MASK64)
        self.counter += 1
        return value

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n doubles in [0, 1), as n calls of :meth:`uniform` would
        give them."""
        i = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return (mix64(self.key + i * _GOLDEN) >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via rejection-free modular draw."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span
