"""Deterministic pseudo-random streams.

splitmix64 turns a (seed, stream name) pair into generator state and
xoshiro256** produces the actual numbers. Both are fixed-width integer
algorithms, so every stream replays identically across platforms and
Python versions for the same seed.
"""

from __future__ import annotations

import math
from typing import Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_stream(seed: int, name: str) -> int:
    """Derive a 64-bit stream id from a master seed and a stream name.

    Each UTF-8 byte of the name is folded into a running splitmix64
    state. The fully mixed output becomes the next chain value; chaining
    the raw incremented state instead is nearly linear and collides for
    names as close as "doc.10" and "doc.25".
    """
    state = seed & _MASK64
    for b in name.encode("utf-8"):
        _, state = splitmix64(state ^ b)
    _, out = splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** generator with named sub-streams.

    The four state words come from repeated splitmix64 steps of the
    derived stream id, which avoids the all-zero state.
    """

    def __init__(self, seed: int, stream: str = ""):
        state = derive_stream(seed, stream)
        words = []
        for _ in range(4):
            state, out = splitmix64(state)
            words.append(out)
        self._s = words
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """n float64 draws, bit-identical to n uniform(lo, hi) calls.

        One loop over local words advances the state and keeps each
        pre-step s1; the ** scrambler and the float conversion then run
        as whole-array uint64 and float64 ops. The generator ends in the
        same state as after the n per-draw calls.
        """
        s0, s1, s2, s3 = self._s
        pre = [0] * n
        for i in range(n):
            pre[i] = s1
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        x = np.array(pre, dtype=np.uint64) * np.uint64(5)
        x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
        return lo + (hi - lo) * ((x >> np.uint64(11)).astype(np.float64) * 2.0**-53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        threshold = (2**64 // n) * n
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randrange(hi - lo + 1)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Standard Box-Muller transform with the second value cached."""
        if self._spare_gauss is not None:
            z = self._spare_gauss
            self._spare_gauss = None
            return mu + sigma * z
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_gauss = r * math.sin(theta)
        return mu + sigma * r * math.cos(theta)

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
