import numpy as np
import pytest

from gapsandwich.rng import derive_key, generator, mix64, streams


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(42, 1, 2) == derive_key(42, 1, 2)

    def test_stream_ids_change_key(self):
        base = derive_key(42)
        assert derive_key(42, 0) != base
        assert derive_key(42, 1) != derive_key(42, 2)

    def test_order_matters(self):
        assert derive_key(42, 1, 2) != derive_key(42, 2, 1)

    def test_mix64_is_bijective_on_samples(self):
        seen = {mix64(i) for i in range(10000)}
        assert len(seen) == 10000


class TestGenerator:
    def test_same_stream_same_draws(self):
        a = generator(7, 3).standard_normal(64)
        b = generator(7, 3).standard_normal(64)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = generator(7, 3).standard_normal(64)
        b = generator(7, 4).standard_normal(64)
        assert not np.array_equal(a, b)

    def test_streams_look_independent(self):
        # Crude cross-correlation check between sibling streams.
        a = generator(7, 0).standard_normal(20000)
        b = generator(7, 1).standard_normal(20000)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.03


class TestStreams:
    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_matches_fresh_generators(self, k):
        for i, gen in enumerate(streams(7, range(201))):
            np.testing.assert_array_equal(
                gen.standard_normal((2, k)), generator(7, i).standard_normal((2, k)))

    def test_resets_held_word_and_partial_buffer(self):
        ids = [5, 3, 5]
        draws = []
        for gen in streams(11, ids):
            draws.append(gen.standard_normal(3))
            # One raw 64-bit word, then an odd count of 32-bit words: the
            # Philox buffer is part-used and half a word is held over.
            gen.bit_generator.random_raw(1)
            gen.integers(0, 2**32, size=3, dtype=np.uint32)
            state = gen.bit_generator.state
            assert state["has_uint32"] == 1
            assert state["buffer_pos"] not in (0, 4)
        for sid, got in zip(ids, draws):
            np.testing.assert_array_equal(got, generator(11, sid).standard_normal(3))
