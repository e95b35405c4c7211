"""Deterministic pseudo-random streams.

splitmix64 turns (seed, stream name) pairs into generator state
(stream_states, every pair in one uint64 array pass) and xoshiro256**
produces the actual numbers. Both are fixed-width integer algorithms, so
every stream replays identically across platforms and Python versions.

stream_words draws many streams at once, each from the state words it is
given, and advances no generator; uniform_streams is its float form, and a
Xoshiro256.from_state generator reads such words before it steps itself.
xoshiro256**'s state step is linear over GF(2) (only the output scrambler
is not), so a 256-bit state row times one fixed 256x256 0/1 matrix, mod 2,
is the state LANE steps later. Each stream is cut into lanes of LANE draws;
lane j starts from lane j-1's state times that matrix, one product per lane
index over the streams that still have a lane j. All lanes then take LANE
steps in lockstep as uint64 arrays, and each stream's draws are its lanes
read in order: the same bits as stepping the stream alone. The product runs
in float32 on 0/1 entries, so every partial sum is an integer of at most
256, which float32 holds exactly whatever order a BLAS sums in.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Draws per lane of stream_words: the jump matrix is LANE steps, and every
# lane takes LANE lockstep steps.
LANE = 256
# The constants of the array code as uint64 scalars, so that no operand is ever
# converted by value.
_U = {k: np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 27, 30, 31, 45, 57, _GOLDEN,
                                0xBF58476D1CE4E5B9, 0x94D049BB133111EB)}

T = TypeVar("T")


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function of advanced states, on a uint64 array."""
    z = (z ^ (z >> _U[30])) * _U[0xBF58476D1CE4E5B9]
    z = (z ^ (z >> _U[27])) * _U[0x94D049BB133111EB]
    return z ^ (z >> _U[31])


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    return state, int(_mix(np.array([state], dtype=np.uint64))[0])


def derive_streams(pairs: Sequence[tuple[int, str]]) -> np.ndarray:
    """The 64-bit stream id of every (master seed, stream name) pair, as uint64.

    Each UTF-8 byte of a name is folded into a running splitmix64 state, all pairs a
    byte column at a time. The fully mixed output becomes the next chain value;
    chaining the raw incremented state instead is nearly linear and collides for
    names as close as "doc.10" and "doc.25". A name that has ended keeps its state.
    """
    names = [name.encode("utf-8") for _, name in pairs]
    lengths = np.array([len(b) for b in names], dtype=np.int64)
    width = int(lengths.max(initial=0))
    columns = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in names),
                            dtype=np.uint8).reshape(len(names), width)
    state = np.array([seed & _MASK64 for seed, _ in pairs], dtype=np.uint64)
    for j in range(width):
        state = np.where(lengths > j, _mix((state ^ columns[:, j]) + _U[_GOLDEN]), state)
    return _mix(state + _U[_GOLDEN])


def derive_stream(seed: int, name: str) -> int:
    """derive_streams of the one pair (seed, name), as an int."""
    return int(derive_streams([(seed, name)])[0])


def stream_states(pairs: Sequence[tuple[int, str]]) -> np.ndarray:
    """Every pair's four xoshiro256** state words, as a (len(pairs), 4) uint64 array:
    splitmix64 steps of its stream id, which avoid the all-zero state."""
    ids = derive_streams(pairs)[:, None]
    return _mix(ids + np.arange(1, 5, dtype=np.uint64) * _U[_GOLDEN])


def stream_state(seed: int, name: str = "") -> list[int]:
    """stream_states of the one pair (seed, name), as a list of ints."""
    return stream_states([(seed, name)])[0].tolist()


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** generator with named sub-streams, started from stream_state.

    One from from_state reads the words drawn ahead for it (and their random()
    floats) first; past them it steps its state over them once and goes on."""

    def __init__(self, seed: int, stream: str = ""):
        self._start(stream_state(seed, stream))

    @classmethod
    def from_state(cls, state: Sequence[int], drawn: Sequence[int] = ()) -> Xoshiro256:
        """A generator in `state` whose first outputs are `drawn`: stream_words of that state."""
        return cls.__new__(cls)._start(state, drawn)

    def _start(self, state: Sequence[int], drawn: Sequence[int] = ()) -> Xoshiro256:
        drawn = np.asarray(drawn, dtype=np.uint64)
        self._s, self._read, self._spare_gauss = [int(w) for w in state], 0, None
        self._drawn, self._floats = drawn.tolist(), ((drawn >> _U[11]) * 2.0**-53).tolist()
        return self

    def next_u64(self) -> int:
        i = self._read
        if i < len(self._drawn):
            self._read = i + 1
            return self._drawn[i]
        if self._drawn:  # past the drawn words: step over them once
            for _ in range(i):
                self._step()
            self._drawn, self._floats = [], []
        return self._step()

    def _step(self) -> int:
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
        i = self._read
        if i < len(self._floats):
            self._read = i + 1
            return self._floats[i]
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


def stream_words(requests: Sequence[tuple[Sequence[int], int]]) -> list[np.ndarray]:
    """Each (state, n) request's first n next_u64 outputs, as uint64, from a generator
    in that state, all from one lockstep pass (see the module docstring). No state is
    advanced: the caller's state words are only read."""
    counts = np.array([n for _, n in requests], dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("a stream cannot take a negative number of draws")
    lanes = -(-counts // LANE)
    first = np.concatenate([[0], np.cumsum(lanes)])  # stream i's lanes are rows first[i]:first[i+1]
    starts = np.empty((first[-1], 256), dtype=np.uint8)
    live = np.arange(len(requests))
    bits = _bits(np.array([state for state, _ in requests], dtype=np.uint64).reshape(-1, 4))
    for j in range(int(lanes.max(initial=0))):
        # Lane j of the streams that have one starts from their lane j-1 times the jump.
        keep = lanes[live] > j
        live, bits = live[keep], bits[keep]
        if j:
            bits = ((bits @ _lane_jump()).astype(np.int32) & 1).astype(np.uint8)
        starts[first[live] + j] = bits
    s = list(_words(starts).T.copy())
    words = np.empty((len(starts), LANE), dtype=np.uint64)  # each step's pre-step s1
    for k in range(LANE if len(starts) else 0):
        words[:, k] = s[1]
        _step(s)
    draws = []
    for i, n in enumerate(counts.tolist()):  # stream by stream, which stays in cache
        x = words[first[i]:first[i + 1]] * _U[5]
        draws.append((((x << _U[7]) | (x >> _U[57])) * _U[9]).reshape(-1)[:n])
    return draws


def uniform_streams(requests: Sequence[tuple[Sequence[int], int, float, float]]
                    ) -> list[np.ndarray]:
    """Each (state, n, lo, hi) request's n uniform(lo, hi) draws, as float64: the
    stream_words of (state, n), each bit-identical to the generator's own uniform call."""
    words = stream_words([(state, n) for state, n, _, _ in requests])
    return [(w >> _U[11]) * 2.0**-53 * (hi - lo) + lo for w, (_, _, lo, hi) in zip(words, requests)]
