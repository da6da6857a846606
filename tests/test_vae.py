import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from gapsandwich.distributions import Laplace, sample
from gapsandwich.errors import CheckpointError, DivergenceDetected, InvalidParams
from gapsandwich import vae
from gapsandwich.rng import generator
from gapsandwich.vae import (
    CNET_PARAM_COUNT,
    VAE_PARAM_COUNT,
    CNet,
    Objective,
    ToyVae,
    _log_r_reparam,
    _ratio_estimates,
    _relu_layer,
    cnet_objective_and_grad,
    evaluate,
    iw_objective_and_grad,
    load_cnet,
    load_model,
    log_r,
    save_cnet,
    save_model,
    train,
    train_cnet,
)

LOG_2PI = math.log(2.0 * math.pi)


def zero_model(decoder_var=0.3):
    """dec(z) = 0 and q(.|x) = prior; R is constant in z for every x."""
    return ToyVae(np.zeros(VAE_PARAM_COUNT), decoder_var)


def identity_decoder_model(decoder_var=0.3, log_sigma=0.0):
    """dec(z) = relu(z) - relu(-z) = z, with mu_x = 0 and fixed sigma_x."""
    p = np.zeros(VAE_PARAM_COUNT)
    p[18:22] = [1.0, -1.0, 0.0, 0.0]
    p[26:30] = [1.0, -1.0, 0.0, 0.0]
    p[17] = log_sigma
    return ToyVae(p, decoder_var)


class TestLogR:
    def test_reconstruction_only_at_origin(self):
        model = identity_decoder_model()
        expected = -0.5 * math.log(2.0 * math.pi * 0.3)
        assert log_r(model, 0.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.3170, abs=5e-5)

    def test_quadratic_penalty_away_from_origin(self):
        # Prior and posterior terms cancel (q = prior); the decoder residual
        # contributes -(x - z)^2 / (2 * 0.3) at x=0, z=1.
        model = identity_decoder_model()
        expected = -0.5 * math.log(2.0 * math.pi * 0.3) - 1.0 / (2.0 * 0.3)
        assert log_r(model, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-1.9836, abs=5e-5)

    def test_posterior_concentration_at_its_mean(self):
        # At z = mu_x the posterior density term is +log sigma_x + const, so
        # log R falls monotonically as sigma_x shrinks.
        vals = [log_r(identity_decoder_model(log_sigma=ls), 0.0, 0.0)
                for ls in (0.0, -1.0, -2.0, -4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_posterior_concentration_away_from_its_mean(self):
        # At z != mu_x the posterior quadratic dominates and log R diverges
        # upward as sigma_x shrinks.
        vals = [log_r(identity_decoder_model(log_sigma=ls), 0.0, 1.0)
                for ls in (0.0, -1.0, -2.0, -4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_broadcasts_over_z(self):
        model = zero_model()
        out = log_r(model, 0.5, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)


def posterior(model, x):
    """Encoder mean and stddev at x, written out from the parameter layout."""
    p = model.params
    h = np.maximum(np.multiply.outer(x, p[0:4]) + p[4:8], 0.0)
    return h @ p[8:12] + p[12], np.exp(h @ p[13:17] + p[17])


class TestLogRKernel:
    """_log_r_reparam against the general-z log_r, over any eps rank."""

    model = ToyVae.init(61)
    xs = sample(Laplace(0.0, 0.3), 5, 62)

    @pytest.mark.parametrize("trailing", [(7,), (3, 7), (3, 2, 7)])
    def test_matches_log_r_at_reparameterised_z(self, trailing):
        eps = generator(63).standard_normal((self.xs.size, *trailing))
        logR, _, _ = _log_r_reparam(self.model.params, self.model.decoder_var,
                                    self.xs, eps)
        expand = (slice(None),) + (None,) * len(trailing)
        mu, sigma = posterior(self.model, self.xs)
        z = mu[expand] + sigma[expand] * eps
        reference = log_r(self.model, self.xs[expand], z)
        assert logR.shape == eps.shape
        np.testing.assert_allclose(logR, reference, rtol=0.0, atol=1e-10)

    def test_rank4_block_is_bitwise_the_rank2_call(self):
        eps = generator(64).standard_normal((self.xs.size, 3, 2, 7))
        params, var = self.model.params, self.model.decoder_var
        whole, _, _ = _log_r_reparam(params, var, self.xs, eps)
        for pair in range(3):
            for side in range(2):
                block = np.ascontiguousarray(eps[:, pair, side, :])
                alone, _, _ = _log_r_reparam(params, var, self.xs, block)
                np.testing.assert_array_equal(whole[:, pair, side, :], alone)


class TestReluLayer:
    @pytest.mark.parametrize("shape", [(9,), (5, 3), (4, 2, 3), (3, 2, 2, 5)])
    def test_bitwise_the_broadcast_layer(self, shape):
        rng = generator(65)
        x = rng.standard_normal(shape)
        w, b = rng.standard_normal(4), rng.standard_normal(4)
        h = _relu_layer(x, w, b)
        np.testing.assert_array_equal(h, np.maximum(x[..., None] * w + b, 0.0))
        assert h.flags.c_contiguous


def peak_traced_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBlocks:
    """Results do not depend on BLOCK_RATIOS, and memory is bounded by it."""

    model = ToyVae.init(66)
    cnet = CNet.init(67)
    xs = sample(Laplace(0.0, 0.3), 23, 68)

    @pytest.mark.parametrize("blocks", [0, 7, 23])
    def test_ratio_estimates_do_not_depend_on_the_block(self, monkeypatch, blocks):
        # 12 draws per datapoint; 0 datapoints per block clamps to 1.
        reference = _ratio_estimates(self.model, self.xs, 3, 2, generator(69))
        monkeypatch.setattr(vae, "BLOCK_RATIOS", blocks * 12)
        got = _ratio_estimates(self.model, self.xs, 3, 2, generator(69))
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("blocks", [0, 7, 23])
    def test_evaluate_does_not_depend_on_the_block(self, monkeypatch, blocks):
        # 8 draws per datapoint; 0 datapoints per block clamps to 1.
        reference = evaluate(self.model, self.cnet, self.xs, k=4, seed=70)
        monkeypatch.setattr(vae, "BLOCK_RATIOS", blocks * 8)
        assert evaluate(self.model, self.cnet, self.xs, k=4, seed=70) == reference

    def test_evaluate_memory_is_bounded(self):
        data = sample(Laplace(0.0, 0.2), 10_000, 71)
        peak = peak_traced_mb(lambda: evaluate(self.model, self.cnet, data, 64, 72))
        assert peak < 24.0

    def test_ratio_estimates_memory_is_bounded(self):
        data = sample(Laplace(0.0, 0.2), 2000, 73)
        peak = peak_traced_mb(
            lambda: _ratio_estimates(self.model, data, 64, 4, generator(74)))
        assert peak < 16.0


class TestElboAndIwElbo:
    """The ELBO and IW lower bound as ``evaluate`` reports them."""

    def test_perfect_constant_model_value(self):
        model = zero_model()
        expected = -0.5 * math.log(2.0 * math.pi * 0.3)
        for k in (1, 2, 8):
            res = evaluate(model, 0.0, np.zeros(4), k=k, seed=8)
            assert res.elbo == pytest.approx(expected, abs=1e-12)
            assert res.lower == pytest.approx(expected, abs=1e-12)

    def test_iw_bound_nondecreasing_in_k(self):
        # Statistical tightening with more importance samples: 4096 outer
        # draws at one x, one derived stream per copy of the datapoint.
        model = ToyVae.init(55)
        data = np.full(4096, 0.3)
        vals = [evaluate(model, 0.0, data, k=k, seed=56).lower
                for k in (1, 4, 16)]
        assert vals[0] < vals[1] < vals[2]


class TestGradients:
    def test_vae_gradient_matches_finite_differences(self):
        rng = generator(123)
        h = 1e-5
        for kind in ("elbo", "iwae"):
            params = rng.uniform(-0.8, 0.8, VAE_PARAM_COUNT)
            xs = rng.standard_normal(4) * 0.5
            eps = rng.standard_normal((4, 5))
            _, grad = iw_objective_and_grad(params, 0.3, xs, eps, kind)
            for idx in range(VAE_PARAM_COUNT):
                pp, pm = params.copy(), params.copy()
                pp[idx] += h
                pm[idx] -= h
                fd = (iw_objective_and_grad(pp, 0.3, xs, eps, kind)[0]
                      - iw_objective_and_grad(pm, 0.3, xs, eps, kind)[0]) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_cnet_gradient_matches_finite_differences(self):
        rng = generator(124)
        h = 1e-5
        cparams = rng.uniform(-0.8, 0.8, CNET_PARAM_COUNT)
        xs = rng.standard_normal(5) * 0.5
        r_hat = np.exp(rng.standard_normal(5))
        _, grad = cnet_objective_and_grad(cparams, xs, r_hat)
        for idx in range(CNET_PARAM_COUNT):
            pp, pm = cparams.copy(), cparams.copy()
            pp[idx] += h
            pm[idx] -= h
            fd = (cnet_objective_and_grad(pp, xs, r_hat)[0]
                  - cnet_objective_and_grad(pm, xs, r_hat)[0]) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestTrain:
    def test_zero_lr_leaves_parameters_bit_identical(self):
        model = ToyVae.init(3)
        data = sample(Laplace(0.0, 0.2), 200, 4)
        result = train(model, data, Objective("elbo"), epochs=3, batch=50,
                       lr=0.0, seed=5)
        np.testing.assert_array_equal(result.model.params, model.params)
        assert len(result.loss_history) == 3

    def test_training_reduces_loss(self):
        model = ToyVae.init(6, decoder_var=0.08)
        data = sample(Laplace(0.0, 0.2), 2000, 7)
        result = train(model, data, Objective("elbo"), epochs=60, batch=500,
                       lr=0.05, seed=8)
        assert result.loss_history[-1] < result.loss_history[0]

    def test_divergence_is_detected(self):
        model = ToyVae.init(9, decoder_var=0.01)
        data = sample(Laplace(0.0, 0.2), 500, 10)
        with pytest.raises(DivergenceDetected):
            train(model, data, Objective("elbo"), epochs=50, batch=100,
                  lr=1e6, seed=11)

    def test_objective_parse(self):
        assert Objective.parse("elbo") == Objective("elbo", 1)
        assert Objective.parse("iwae:5") == Objective("iwae", 5)
        with pytest.raises(Exception):
            Objective.parse("iwae")


class TestTrainCNet:
    def test_constant_ratio_drives_c_to_log_r(self):
        # The perfect-constant model has ratio estimates identically 1, so
        # the unique minimizer is C(x) = 0 everywhere.
        model = zero_model()
        data = np.linspace(-1.0, 1.0, 64)
        result = train_cnet(CNet.init(12), model, data, k=2, n_pairs=2,
                            epochs=400, lr=0.5, seed=13)
        c_vals = result.cnet(np.linspace(-1.0, 1.0, 33))
        assert np.max(np.abs(c_vals)) < 0.02

    def test_zero_lr_unchanged(self):
        cnet = CNet.init(14)
        model = zero_model()
        result = train_cnet(cnet, model, np.ones(8), k=1, n_pairs=1,
                            epochs=2, lr=0.0, seed=15)
        np.testing.assert_array_equal(result.cnet.params, cnet.params)

    def test_beats_zero_c_baseline_on_held_out_data(self):
        model = ToyVae.init(16)  # untrained: ratios vary with x
        train_data = sample(Laplace(0.0, 0.2), 256, 17)
        held_out = sample(Laplace(0.0, 0.2), 256, 18)
        result = train_cnet(CNet.init(19), model, train_data, k=4, n_pairs=8,
                            epochs=300, lr=0.3, seed=20)
        from gapsandwich.vae import _ratio_estimates

        r_hat = _ratio_estimates(model, held_out, 4, 8, generator(21))
        trained_obj = cnet_objective_and_grad(result.cnet.params, held_out, r_hat)[0]
        zero_obj = float(np.mean(0.0 - 1.0 + r_hat))
        assert trained_obj <= zero_obj


class TestEvaluate:
    def test_perfect_model_collapses_interval(self):
        model = zero_model()
        data = np.zeros(16)
        expected = -0.5 * math.log(2.0 * math.pi * 0.3)
        for k in (1, 2, 8):
            res = evaluate(model, 0.0, data, k=k, seed=21)
            for rec in res.records:
                assert rec.s == pytest.approx(expected, abs=1e-12)
                assert rec.S == pytest.approx(rec.s, abs=1e-12)
            assert res.lower == pytest.approx(res.upper, abs=1e-12)

    def test_repeat_call_is_deterministic(self):
        model = ToyVae.init(22)
        data = sample(Laplace(0.0, 0.2), 64, 23)
        a = evaluate(model, 0.0, data, k=4, seed=24)
        b = evaluate(model, 0.0, data, k=4, seed=24)
        assert a.records == b.records

    def test_untrained_model_sandwich_orders(self):
        model = ToyVae.init(25)
        data = sample(Laplace(0.0, 0.2), 512, 26)
        res = evaluate(model, 0.0, data, k=4, seed=27)
        assert res.lower <= res.upper
        assert res.elbo <= res.lower + 1e-12  # mean Jensen slack

    def test_same_batch_optimal_c_keeps_upper_above_lower(self):
        model = ToyVae.init(28)
        data = sample(Laplace(0.0, 0.2), 512, 29)
        first = evaluate(model, 0.0, data, k=4, seed=30)
        ratios = np.array([rec.S - rec.s + 1.0 for rec in first.records])
        c_opt = math.log(float(ratios.mean()))
        second = evaluate(model, c_opt, data, k=4, seed=30)
        assert second.upper >= second.lower
        assert second.upper - second.lower == pytest.approx(c_opt, abs=1e-9)

    def test_upper_tightens_with_k(self):
        model = ToyVae.init(31)
        data = sample(Laplace(0.0, 0.2), 512, 32)
        results = [evaluate(model, 0.0, data, k=k, seed=33) for k in (1, 4, 16)]
        widths = [res.width for res in results]
        assert widths[0] > widths[1] > widths[2]
        # The importance-weighted lower bound tightens with k as well.
        lowers = [res.lower for res in results]
        assert lowers[0] < lowers[1] < lowers[2]

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_c_rejected(self, c):
        with pytest.raises(InvalidParams, match="finite"):
            evaluate(zero_model(), c, np.zeros(4), k=1, seed=21)

    def test_cnet_source_used_per_datapoint(self):
        model = zero_model()
        cnet = CNet.init(34)
        data = np.linspace(-1.0, 1.0, 8)
        res = evaluate(model, cnet, data, k=1, seed=35)
        np.testing.assert_allclose([rec.c for rec in res.records], cnet(data))

    def test_records_match_per_datapoint_reference(self):
        model = ToyVae.init(36)
        cnet = CNet.init(37)
        data = sample(Laplace(0.0, 0.2), 40, 38)
        k, seed = 8, 39
        res = evaluate(model, cnet, data, k=k, seed=seed)
        primal = []
        for i, (x, rec) in enumerate(zip(data, res.records)):
            mu, sigma = posterior(model, x)
            eps = generator(seed, i).standard_normal((2, k))
            lr = log_r(model, x, mu + sigma * eps)
            s = scipy_logsumexp(lr[0]) - math.log(k)
            c = float(cnet(np.array([x]))[0])
            S = s + c - 1.0 + math.exp(-c + scipy_logsumexp(lr[1])
                                       - scipy_logsumexp(lr[0]))
            assert rec.x == x
            assert rec.s == pytest.approx(s, rel=0.0, abs=1e-10)
            assert rec.S == pytest.approx(S, rel=0.0, abs=1e-10)
            primal.append(lr[0])
        assert res.elbo == pytest.approx(float(np.mean(primal)), rel=0.0, abs=1e-10)


class TestCheckpoints:
    def test_model_round_trip(self, tmp_path):
        model = ToyVae.init(40, decoder_var=0.04)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.params, model.params)
        assert loaded.decoder_var == model.decoder_var

    def test_cnet_round_trip(self, tmp_path):
        cnet = CNet.init(41)
        path = str(tmp_path / "c.ckpt")
        save_cnet(path, cnet)
        np.testing.assert_array_equal(load_cnet(path).params, cnet.params)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(str(path), ToyVae.init(42))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(str(path), ToyVae.init(43))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_model(str(path))

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_cnet(path, CNet.init(44))
        with pytest.raises(CheckpointError, match="13"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_model(str(tmp_path / "nope.ckpt"))
