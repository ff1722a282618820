import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexjudge.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    derive,
    fnv1a_64,
    glorot_uniform,
    mix64,
    stream_u64_at,
    to_uniform,
)


class TestSplitMix64:
    def test_published_seed0_vectors(self):
        # reference outputs of splitmix64 for seed 0
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [int(v) for v in stream_u64_at(0, np.arange(3))] == expected

    def test_sequential_matches_vectorized(self):
        gen = SplitMix64(987654321)
        sequential = [gen.next_u64() for _ in range(40)]
        assert sequential == [int(v) for v in stream_u64_at(987654321, np.arange(40))]

    def test_stream_offset_windows_agree(self):
        whole = stream_u64_at(5, np.arange(30))
        tail = stream_u64_at(5, np.arange(20, 30))
        assert np.array_equal(whole[20:], tail)

    def test_draws_at_indices_are_the_stream_at_those_positions(self):
        gen = SplitMix64(9)
        whole = np.array([gen.next_u64() for _ in range(300)], dtype=np.uint64)
        picks = np.array([299, 0, 17, 17, 150, 1], dtype=np.int64)
        assert np.array_equal(stream_u64_at(9, picks), whole[picks])
        assert np.array_equal(stream_u64_at(9, np.arange(40, 90)), whole[40:90])
        assert stream_u64_at(9, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_kth_output_definition(self):
        seed = 42
        assert stream_u64_at(seed, [0])[0] == mix64((seed + GOLDEN) & MASK64)

    def test_uniform_in_unit_interval(self):
        u = to_uniform(stream_u64_at(7, np.arange(5000)))
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02


class TestRandbelowAndShuffle:
    def test_randbelow_bounds_and_determinism(self):
        a = SplitMix64(3)
        b = SplitMix64(3)
        draws_a = [a.randbelow(17) for _ in range(200)]
        draws_b = [b.randbelow(17) for _ in range(200)]
        assert draws_a == draws_b
        assert all(0 <= d < 17 for d in draws_a)
        assert set(draws_a) == set(range(17))  # all residues reachable

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randbelow(0)

    @given(st.integers(0, 2**63), st.integers(1, 60))
    def test_shuffle_is_a_permutation(self, seed, n):
        items = list(range(n))
        SplitMix64(seed).shuffle(items)
        assert sorted(items) == list(range(n))

    def test_shuffle_seed_sensitivity(self):
        a = list(range(30))
        b = list(range(30))
        SplitMix64(1).shuffle(a)
        SplitMix64(2).shuffle(b)
        assert a != b


class TestDerive:
    def test_order_sensitive(self):
        assert derive(1, "a", "b") != derive(1, "b", "a")

    def test_string_and_int_tags(self):
        assert derive(1, "split") != derive(1, "encoder")
        assert derive(1, 0, 1) != derive(1, 1, 0)

    def test_deterministic(self):
        assert derive(77, "x", 3) == derive(77, "x", 3)


class TestGlorotAndFnv:
    def test_glorot_bounds_and_shape(self):
        fan_in, fan_out = 30, 10
        w = glorot_uniform((10, 30), fan_in, fan_out, seed=5)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (10, 30)
        assert np.all(np.abs(w) <= limit)
        assert abs(w.mean()) < limit / 5  # roughly centered

    def test_glorot_draws_the_stream_in_order(self):
        """Entry i in row-major order comes from output i+1 of the stream."""
        gen = SplitMix64(5)
        u = np.array([(gen.next_u64() >> 11) * 2.0**-53 for _ in range(12)])
        limit = np.sqrt(6.0 / 7)
        expected = ((2.0 * u - 1.0) * limit).reshape((3, 4))
        assert np.array_equal(glorot_uniform((3, 4), 3, 4, seed=5), expected)

    def test_fnv_empty_is_offset_basis(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_fnv_known_vectors(self):
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8
