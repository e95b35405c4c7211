"""Deterministic pseudo-random streams.

splitmix64 turns a (seed, stream name) pair into generator state
(stream_state) and xoshiro256** produces the actual numbers. Both are
fixed-width integer algorithms, so every stream replays identically across
platforms and Python versions for the same seed.

uniform_streams draws many streams at once, each from the state words it
is given, and advances no generator. xoshiro256**'s state step is linear
over GF(2) (only the output scrambler is not), so a 256-bit state row
times one fixed 256x256 0/1 matrix, mod 2, is the state LANE steps later.
Each stream is cut into lanes of LANE draws; lane j starts from lane j-1's
state times that matrix, one product per lane index over the streams that
still have a lane j. All lanes then take LANE steps in lockstep as uint64
arrays, and each stream's draws are its lanes read in order: the same bits
as stepping the stream alone. The product runs in float32 on 0/1 entries,
so every partial sum is an integer of at most 256, which float32 holds
exactly whatever order a BLAS sums in.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Draws per lane of uniform_streams: the jump matrix is LANE steps, and every
# lane takes LANE lockstep steps.
LANE = 256

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


def stream_state(seed: int, name: str = "") -> list[int]:
    """The four xoshiro256** state words of stream `name` under `seed`: splitmix64
    steps of derive_stream(seed, name), which avoid the all-zero state."""
    state = derive_stream(seed, name)
    words = []
    for _ in range(4):
        state, out = splitmix64(state)
        words.append(out)
    return words


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** generator with named sub-streams, started from stream_state."""

    def __init__(self, seed: int, stream: str = ""):
        self._s = stream_state(seed, stream)
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


_U = {k: np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57)}


def _step(s: list[np.ndarray]) -> None:
    """One xoshiro256** state step of every lane, in place on the four word arrays."""
    s0, s1, s2, s3 = s
    t = s1 << _U[17]
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, _U[45], out=t)
    s3 >>= _U[19]
    s3 |= t


def _bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states as (k, 256) uint8 bit rows, bit 64*w + b of row i
    being bit b of word w; little-endian bytes on every platform."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")


def _words(bits: np.ndarray) -> np.ndarray:
    """The inverse of _bits."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


@functools.cache
def _lane_jump() -> np.ndarray:
    """The (256, 256) float32 0/1 matrix taking a state's bit row LANE steps on.

    Row i is the state reached from the one whose only set bit is bit i;
    by linearity, any row's product with it, mod 2, is the XOR of the rows
    its set bits pick.
    """
    s = list(_words(np.eye(256, dtype=np.uint8)).T.copy())
    for _ in range(LANE):
        _step(s)
    jump = _bits(np.stack(s, axis=1)).astype(np.float32)
    jump.flags.writeable = False
    return jump


def uniform_streams(requests: Sequence[tuple[Sequence[int], int, float, float]]
                    ) -> list[np.ndarray]:
    """Each (state, n, lo, hi) request's n uniform(lo, hi) draws, as float64, from a
    generator in that state, all from one lockstep pass (see the module docstring).

    Each draw is bit-identical to the generator's own uniform call. No state
    is advanced: the caller's state words are only read.
    """
    if not requests:
        return []
    counts = np.array([n for _, n, _, _ in requests], dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("a stream cannot take a negative number of draws")
    lanes = -(-counts // LANE)
    first = np.concatenate([[0], np.cumsum(lanes)])  # stream i's lanes are rows first[i]:first[i+1]
    starts = np.empty((first[-1], 256), dtype=np.uint8)
    live = np.arange(len(requests))
    bits = _bits(np.array([state for state, _, _, _ in requests], dtype=np.uint64).reshape(-1, 4))
    for j in range(int(lanes.max())):
        # Lane j of the streams that have one starts from their lane j-1 times the jump.
        keep = lanes[live] > j
        live, bits = live[keep], bits[keep]
        if j:
            bits = ((bits @ _lane_jump()).astype(np.int32) & 1).astype(np.uint8)
        starts[first[live] + j] = bits
    s = list(_words(starts).T.copy())
    words = np.empty((len(starts), LANE), dtype=np.uint64)  # each step's pre-step s1
    for k in range(LANE):
        words[:, k] = s[1]
        _step(s)
    draws = []
    for i, (_, n, lo, hi) in enumerate(requests):  # stream by stream, which stays in cache
        x = words[first[i]:first[i + 1]] * _U[5]
        x = ((x << _U[7]) | (x >> _U[57])) * _U[9]
        draws.append(((x >> _U[11]) * 2.0**-53 * (hi - lo) + lo).reshape(-1)[:n])
    return draws
