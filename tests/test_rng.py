import numpy as np

from gapsandwich.rng import derive_key, generator, mix64


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

    def test_default_is_philox_keyed_by_derive_key(self):
        ours = generator(7, 3, 5)
        ref = np.random.Generator(np.random.Philox(key=derive_key(7, 3, 5)))
        raw = ours.bit_generator.random_raw(64)
        assert raw.tobytes() == ref.bit_generator.random_raw(64).tobytes()
        assert ours.standard_normal(64).tobytes() == ref.standard_normal(64).tobytes()

    def test_named_bit_generator_is_seeded_with_the_key(self):
        ours = generator(7, 3, bit_generator=np.random.SFC64)
        ref = np.random.Generator(np.random.SFC64(derive_key(7, 3)))
        draws = ours.standard_gamma(2.0, 64)
        assert draws.tobytes() == ref.standard_gamma(2.0, 64).tobytes()
