"""Deterministic RNG streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jaeger.rng import (LANE, Xoshiro256, derive_stream, splitmix64, stream_state,
                        uniform_streams)


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
