import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmkeygen import seeds
from reference import derive_seed


class TestStreamDerivation:
    def test_disjoint_labels_disjoint_streams(self):
        a = seeds.generator(7, seeds.STREAM_NOISE_ALICE).standard_normal(8)
        b = seeds.generator(7, seeds.STREAM_NOISE_BOB).standard_normal(8)
        assert not np.allclose(a, b)

    def test_same_address_same_stream(self):
        a = seeds.generator(7, 3, 1, 4).standard_normal(8)
        b = seeds.generator(7, 3, 1, 4).standard_normal(8)
        assert np.array_equal(a, b)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError, match="64-bit"):
            seeds.generator(-1)
        with pytest.raises(ValueError, match="64-bit"):
            seeds.generator(2**64)

    def test_derived_values_pinned(self):
        # reproducibility contract: these frozen values must never change, or
        # every published table silently shifts (see module docstring on
        # stream tags). Derived from numpy's stable SeedSequence hashing.
        pinned = {
            (0, seeds.STREAM_TRIAL, 1, 0, 0, 0): 10812685801258201774,
            (1, seeds.STREAM_CHANNEL): 77803131892610477,
            (42,): 11465652750463011511,
        }
        for address, value in pinned.items():
            assert int(seeds.derive_seeds(np.array([address], dtype=np.uint64))[0]) == value
            assert derive_seed(*address) == value

    def test_u64_output(self):
        values = seeds.derive_seeds(np.array([[123, 4, 5]], dtype=np.uint64))
        assert values.dtype == np.uint64 and values.shape == (1,)


# the edge words of SeedSequence's uint32 coercion: a value below 2**32 is
# one word, from 2**32 on two; 0 is the one word 0
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
U64 = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1))
ADDRESS_BLOCKS = st.integers(1, 7).flatmap(
    lambda k: st.lists(st.lists(U64, min_size=k, max_size=k), min_size=1, max_size=6)
)


class TestBatchedDerivation:
    """The vectorized hash and PCG64 seeding against numpy's own, address by address."""

    @settings(max_examples=200, deadline=None)
    @given(ADDRESS_BLOCKS)
    def test_derive_seeds_equal_seed_sequence(self, addresses):
        derived = seeds.derive_seeds(np.array(addresses, dtype=np.uint64))
        assert derived.dtype == np.uint64
        assert [int(v) for v in derived] == [derive_seed(*row) for row in addresses]

    @settings(max_examples=200, deadline=None)
    @given(ADDRESS_BLOCKS)
    def test_generator_states_equal_default_rng(self, addresses):
        states = seeds.generator_states(np.array(addresses, dtype=np.uint64))
        bitgen = np.random.PCG64(0)
        for row, state in zip(addresses, states):
            ref = np.random.default_rng(np.random.SeedSequence(row))
            assert state == ref.bit_generator.state
            bitgen.state = state
            assert np.array_equal(bitgen.random_raw(64), ref.bit_generator.random_raw(64))

    def test_master_seed_below_2_32_is_one_word(self):
        # 5 and (5, 0) differ: the second is two words, the first one
        one, two = seeds.derive_seeds(np.array([[5, 9], [5 + 2**32, 9]], dtype=np.uint64))
        assert int(one) == derive_seed(5, 9) != int(two) == derive_seed(5 + 2**32, 9)

    def test_bad_address_shape_rejected(self):
        with pytest.raises(ValueError, match="addresses"):
            seeds.derive_seeds(np.array([1, 2], dtype=np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(U64, st.integers(0, 32), st.integers(1, 9))
    def test_integers_from_raw_equal_generator(self, seed, log_high, count):
        high = 1 << log_high
        ref = seeds.generator(seed, 6).integers(0, high, size=count)
        raw = seeds.generator(seed, 6).bit_generator.random_raw((count + 1) // 2)
        assert np.array_equal(seeds.integers_from_raw(raw, high, count), ref)

    @pytest.mark.parametrize("high", [0, 3, 2**33])
    def test_integers_from_raw_needs_power_of_two(self, high):
        with pytest.raises(ValueError, match="power of two"):
            seeds.integers_from_raw(np.zeros(1, dtype=np.uint64), high, 1)
