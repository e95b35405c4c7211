"""Deterministic RNG streams."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jaeger.rng import (LANE, Xoshiro256, derive_stream, derive_streams, splitmix64,
                        stream_state, stream_states, stream_words, uniform_streams)


class TestSplitmix:
    def test_known_first_output(self):
        """splitmix64 from state 0 produces the published first value."""
        _, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF

    def test_state_advances(self):
        state, _ = splitmix64(0)
        state2, out2 = splitmix64(state)
        assert state2 != state
        assert out2 != splitmix64(0)[1]


class TestDeriveStream:
    def test_deterministic(self):
        assert derive_stream(42, "tok") == derive_stream(42, "tok")

    def test_name_sensitivity(self):
        seen = {derive_stream(42, name) for name in ("a", "b", "ab", "ba", "")}
        assert len(seen) == 5

    def test_seed_sensitivity(self):
        assert derive_stream(1, "tok") != derive_stream(2, "tok")

    def test_numbered_names_never_collide(self):
        """Indexed streams like doc.N drive corpus generation; any pair
        colliding would silently duplicate documents."""
        for seed in (0, 41, 987654321):
            vals = [derive_stream(seed, f"doc.{i}") for i in range(2000)]
            assert len(set(vals)) == len(vals)


class TestXoshiro:
    def test_replay(self):
        """The same (seed, stream) replays the exact same sequence."""
        a = Xoshiro256(7, "weights")
        b = Xoshiro256(7, "weights")
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_streams_are_distinct(self):
        a = Xoshiro256(7, "weights")
        b = Xoshiro256(7, "layout")
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]

    def test_random_in_unit_interval(self):
        gen = Xoshiro256(3)
        for _ in range(1000):
            x = gen.random()
            assert 0.0 <= x < 1.0

    def test_uniform_bounds(self):
        gen = Xoshiro256(3, "u")
        vals = [gen.uniform(-2.0, 5.0) for _ in range(1000)]
        assert all(-2.0 <= v < 5.0 for v in vals)
        assert min(vals) < -1.0 and max(vals) > 4.0

    def test_randint_covers_range(self):
        gen = Xoshiro256(5, "ints")
        seen = {gen.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Xoshiro256(5).randint(3, 2)

    def test_gauss_moments(self):
        gen = Xoshiro256(11, "noise")
        vals = [gen.gauss(0.0, 1.0) for _ in range(20000)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(mean) < 0.03
        assert abs(var - 1.0) < 0.05
        assert all(math.isfinite(v) for v in vals)

    def test_shuffle_is_a_permutation(self):
        gen = Xoshiro256(13, "order")
        items = list(range(30))
        shuffled = items.copy()
        gen.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_shuffle_replays(self):
        a, b = Xoshiro256(13, "order"), Xoshiro256(13, "order")
        xs, ys = list(range(20)), list(range(20))
        a.shuffle(xs)
        b.shuffle(ys)
        assert xs == ys

    def test_choice_uses_every_item(self):
        gen = Xoshiro256(17, "pick")
        seen = {gen.choice("abcd") for _ in range(200)}
        assert seen == set("abcd")

    def test_known_answer_vector(self):
        """xoshiro256** from the state [1, 2, 3, 4]. The first two outputs
        follow by hand: rotl(2 * 5, 7) * 9 = 11520, and after one step s1
        is 0."""
        gen = Xoshiro256(0)
        gen._s = [1, 2, 3, 4]
        assert [gen.next_u64() for _ in range(4)] == [
            11520, 0, 1509978240, 1215971899390074240]
        expected = [(v >> 11) * 2.0**-53 for v in (11520, 0, 1509978240, 1215971899390074240)]
        assert uniform_streams([([1, 2, 3, 4], 4, 0.0, 1.0)])[0].tolist() == expected


class TestUniforms:
    """A request of one, (state, n, lo, hi), is n uniform(lo, hi) calls of a
    generator in that state."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    @pytest.mark.parametrize("lo,hi", [(-0.2886751345948129, 0.2886751345948129),
                                       (1.0, 2.0), (0.0, 0.0)])
    def test_matches_per_draw_calls_bit_for_bit(self, n, lo, hi):
        single = Xoshiro256(7, "weights")
        got = uniform_streams([(stream_state(7, "weights"), n, lo, hi)])[0]
        want = np.array([single.uniform(lo, hi) for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()

    def test_state_words_at_or_above_two_to_the_63_wrap_bit_for_bit(self):
        """Every state word has its top bit set, so *5, the rotate and *9
        all overflow 64 bits and must wrap exactly as next_u64 masks them."""
        state = [(1 << 64) - 1, (1 << 63) | 0x9E3779B97F4A7C15, 1 << 63,
                 (1 << 64) - 0x1234567]
        single = Xoshiro256(0)
        single._s = list(state)
        got = uniform_streams([(state, 500, -1.5, 0.5)])[0]
        want = np.array([single.uniform(-1.5, 0.5) for _ in range(500)])
        assert got.tobytes() == want.tobytes()

    def test_zero_draws_return_an_empty_float64_array(self):
        got = uniform_streams([(stream_state(7, "weights"), 0, -1.0, 1.0)])[0]
        assert got.dtype == np.float64 and got.shape == (0,)


# A lane boundary on either side, one whole lane, and streams of several lanes.
COUNTS = st.one_of(st.sampled_from([0, 1, LANE - 1, LANE, LANE + 1]),
                   st.integers(2 * LANE - 1, 5 * LANE + 1))
BOUND = st.floats(-1e300, 1e300)
STREAMS = st.lists(st.tuples(st.text(max_size=12), COUNTS, BOUND, BOUND),
                   min_size=1, max_size=6, unique_by=lambda stream: stream[0])


class TestUniformStreams:
    """uniform_streams draws every stream of a request in one lockstep pass."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), streams=STREAMS)
    def test_each_stream_is_its_per_draw_calls_bit_for_bit_alone_or_together(self, seed,
                                                                            streams):
        got = uniform_streams([(stream_state(seed, name), n, lo, hi)
                               for name, n, lo, hi in streams])
        assert len(got) == len(streams)
        for values, (name, n, lo, hi) in zip(got, streams):
            single = Xoshiro256(seed, name)
            want = np.array([single.uniform(lo, hi) for _ in range(n)], dtype=np.float64)
            assert values.dtype == np.float64 and values.shape == (n,)
            assert values.tobytes() == want.tobytes()
            alone = uniform_streams([(stream_state(seed, name), n, lo, hi)])[0]
            assert alone.tobytes() == want.tobytes()

    def test_no_streams_draw_nothing(self):
        assert uniform_streams([]) == []

    def test_a_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            uniform_streams([(stream_state(1, "w"), -1, 0.0, 1.0)])


def per_byte_stream_id(seed: int, name: str) -> int:
    """The stream id, one splitmix64 step per UTF-8 byte of the name: the reference
    derive_streams steps every pair through together."""
    state = seed & ((1 << 64) - 1)
    for b in name.encode("utf-8"):
        _, state = splitmix64(state ^ b)
    return splitmix64(state)[1]


def per_byte_stream_state(seed: int, name: str) -> list[int]:
    state, words = per_byte_stream_id(seed, name), []
    for _ in range(4):
        state, out = splitmix64(state)
        words.append(out)
    return words


SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1),
                  st.integers(-2**70, 2**70))
NAMES = st.one_of(st.just(""), st.text(max_size=20), st.sampled_from(["é", "层", "🙂", "doc.10"]))


class TestStreamStates:
    """derive_streams and stream_states step every (seed, name) pair together."""

    @settings(max_examples=80)
    @given(pairs=st.lists(st.tuples(SEEDS, NAMES), min_size=1, max_size=8))
    def test_every_pair_is_its_per_byte_derivation_bit_for_bit(self, pairs):
        ids = derive_streams(pairs)
        states = stream_states(pairs)
        assert ids.dtype == states.dtype == np.uint64 and states.shape == (len(pairs), 4)
        assert ids.tolist() == [per_byte_stream_id(seed, name) for seed, name in pairs]
        assert states.tolist() == [per_byte_stream_state(seed, name) for seed, name in pairs]
        for (seed, name), state in zip(pairs, states.tolist()):
            assert derive_stream(seed, name) == per_byte_stream_id(seed, name)
            assert stream_state(seed, name) == state

    def test_no_pairs_derive_nothing(self):
        assert derive_streams([]).shape == (0,) and stream_states([]).shape == (0, 4)


class CountingXoshiro(Xoshiro256):
    """The plain generator, counting the words it draws."""

    words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()


def call(gen: Xoshiro256, op: str, i: int) -> str:
    """The repr of what the i-th call, of kind op, returns (a repr tells -0.0 from 0.0)."""
    if op == "randint":
        return repr(gen.randint(-3, 3 + i % 50))
    if op == "uniform":
        return repr(gen.uniform(-2.0, 5.0))
    if op == "random":
        return repr(gen.random())
    if op == "gauss":
        return repr(gen.gauss(1.0, 2.0))
    if op == "choice":
        return repr(gen.choice("abcdefg"[:1 + i % 7]))
    items = list(range(i % 9))
    gen.shuffle(items)
    return repr(items)


# Words drawn ahead: none, a lane boundary on either side, one whole lane, a few lanes.
AHEAD = st.sampled_from([0, 1, LANE - 1, LANE, LANE + 1, 2 * LANE, 3 * LANE + 5])
OPS = st.lists(st.sampled_from(["randint", "uniform", "random", "gauss", "choice", "shuffle"]),
               min_size=1, max_size=20)


class TestPreDrawnGenerator:
    """A generator that starts with its first k words drawn by stream_words returns
    what the plain generator returns, before, across and well past word k."""

    @settings(max_examples=80)
    @given(seed=SEEDS, name=NAMES, k=AHEAD, ops=OPS)
    # A gauss pair astride word k, so its spare value is drawn half before and
    # half after; and a pair that ends on word k, whose spare is used after it.
    @example(seed=7, name="layout", k=1, ops=["gauss"])
    @example(seed=7, name="layout", k=LANE + 1, ops=["gauss", "random"])
    @example(seed=7, name="layout", k=2, ops=["gauss"])
    def test_calls_are_the_plain_generators_bit_for_bit(self, seed, name, k, ops):
        state = stream_state(seed, name)
        ahead = Xoshiro256.from_state(state, stream_words([(state, k)])[0])
        plain = CountingXoshiro(seed, name)
        i = 0
        while plain.words < k + 40:
            op = ops[i % len(ops)]
            assert call(ahead, op, i) == call(plain, op, i)
            i += 1
        assert [ahead.next_u64() for _ in range(8)] == [plain.next_u64() for _ in range(8)]

    @pytest.mark.parametrize("n", [0, 1, LANE - 1, LANE, LANE + 1, 3 * LANE + 5])
    def test_stream_words_are_next_u64_bit_for_bit(self, n):
        state = stream_state(9, "words")
        words = stream_words([(state, n), (stream_state(9, "other"), 2 * LANE)])[0]
        plain = Xoshiro256(9, "words")
        assert words.dtype == np.uint64 and words.tolist() == [plain.next_u64() for _ in range(n)]
