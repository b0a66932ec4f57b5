"""Deterministic 64-bit PRNG used everywhere randomness is needed.

The generator is splitmix64, pinned bit-exactly so that a seed produces the
same stream on every platform:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64        (one advance per draw)
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z XOR (z >> 31)

Derived conveniences are pinned too:

* ``uniform``      -- (output >> 11) * 2^-53, a float64 in [0, 1)
* ``below(n)``     -- output mod n (modulo bias is irrelevant for n << 2^64)
* ``permutation``  -- stable argsort of n raw outputs
* ``split``        -- child generator seeded with the next output

``GOLDEN_SEED0`` records the first ten outputs for seed 0; tests recompute
them with an independent big-integer implementation.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

GOLDEN_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1,
    0xC584133AC916AB3C,
    0x3EE5789041C98AC3,
    0xF3B8488C368CB0A6,
)


_U64_BLOCK = 1 << 14  # words per block of u64()


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SeededPrng:
    """splitmix64 stream; scalar draws use Python ints, batches use uint64 arrays."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state)

    def u64(self, n: int) -> np.ndarray:
        """n raw outputs as a uint64 array; identical to n next_u64() calls.

        Built in place one block of _U64_BLOCK words at a time, so the
        temporaries stay in cache.
        """
        u = np.uint64
        out = np.empty(n, dtype=u)
        shifted = np.empty(min(n, _U64_BLOCK), dtype=u)
        for lo in range(0, n, _U64_BLOCK):
            z = out[lo : lo + _U64_BLOCK]
            t = shifted[: z.size]
            np.multiply(np.arange(lo + 1, lo + 1 + z.size, dtype=u), u(_GAMMA), out=z)
            z += u(self.state)
            np.right_shift(z, u(30), out=t)
            z ^= t
            z *= u(_MIX1)
            np.right_shift(z, u(27), out=t)
            z ^= t
            z *= u(_MIX2)
            np.right_shift(z, u(31), out=t)
            z ^= t
        self.state = (self.state + n * _GAMMA) & _MASK64
        return out

    def uniform(self, shape=None) -> np.ndarray | float:
        """float64 uniforms in [0, 1) built from the top 53 bits."""
        if shape is None:
            return (self.next_u64() >> 11) * 2.0**-53
        n = int(np.prod(shape))
        vals = (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return vals.reshape(shape)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): stable argsort of raw draws."""
        return np.argsort(self.u64(n), kind="stable")

    def split(self) -> "SeededPrng":
        """Independent child stream seeded from the next output."""
        return SeededPrng(self.next_u64())
