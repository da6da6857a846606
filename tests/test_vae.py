import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from gapsandwich.distributions import Laplace, sample
from gapsandwich.errors import (
    CheckpointError,
    DivergenceDetected,
    InvalidParams,
    NonPositiveSample,
    ParseError,
)
from gapsandwich import bounds, vae, verify
from gapsandwich.accumulate import EXP_SATURATION, logsumexp
from gapsandwich.parallel import THREADS_ENV
from gapsandwich.rng import generator
from gapsandwich.vae import (
    CHUNK_POINTS,
    CNET_PARAM_COUNT,
    VAE_PARAM_COUNT,
    CNet,
    Objective,
    ToyVae,
    _log_r_reparam,
    _relu_layer,
    cnet_objective_and_grad,
    evaluate,
    iw_objective_and_grad,
    load_cnet,
    load_model,
    save_cnet,
    save_model,
    train,
    train_cnet,
)

LOG_2PI = math.log(2.0 * math.pi)


def log_r(model: ToyVae, x, z):
    """log of the importance ratio p(x|z) p(z) / q(z|x), from the three
    densities at a general z: the independent formula the reparameterised
    kernel is checked against.

    x and z must broadcast against each other (e.g. scalar x with a vector
    of z draws); scalars in give a scalar out.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    mu, t = vae._encode(model.params, x)
    m = vae._mlp(model.params[18:31], z)
    var = model.decoder_var
    recon = -0.5 * (LOG_2PI + math.log(var)) - (x - m) ** 2 / (2.0 * var)
    prior = -0.5 * LOG_2PI - 0.5 * z * z
    log_q = -0.5 * LOG_2PI - t - (z - mu) ** 2 / (2.0 * np.exp(2.0 * t))
    out = recon + prior - log_q
    return float(out) if np.ndim(out) == 0 else out


def ratio_estimates(model, xs, k, n_pairs, seed, epoch=0):
    """_ratio_estimates, at epoch 0 unless given."""
    return vae._ratio_estimates(model, xs, k, n_pairs, seed, epoch)


def write_raw_checkpoint(path, count, index, value):
    """A checkpoint of count parameters, written byte by byte as the format
    lays it out: a VAE one (count 31) carries a 0.3 decoder variance after
    them.  Every payload value is 0.1 but payload[index], which is value."""
    payload = np.full(count + (count == VAE_PARAM_COUNT), 0.1)
    if count == VAE_PARAM_COUNT:
        payload[-1] = 0.3
    payload[index] = value
    with open(path, "wb") as fh:
        fh.write(b"GSVAE001" + struct.pack("<II", 1, count)
                 + payload.astype("<f8").tobytes())


def assert_same_result(a, b):
    """Two EvalResults hold the same bits."""
    for name in ("x", "s", "S", "c"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.elbo, a.report) == (b.elbo, b.report)


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
        logR, _ = _log_r_reparam(self.model.params, self.model.decoder_var,
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
        whole, _ = _log_r_reparam(params, var, self.xs, eps)
        for pair in range(3):
            for side in range(2):
                block = np.ascontiguousarray(eps[:, pair, side, :])
                alone, _ = _log_r_reparam(params, var, self.xs, block)
                np.testing.assert_array_equal(whole[:, pair, side, :], alone)


    @pytest.mark.parametrize("trailing", [(3, 2, 7), (2, 7)])
    def test_workspace_kernel_is_bitwise_the_allocating_kernel(self, trailing):
        # The workspace first serves a larger call, so every buffer the
        # second call reads from it holds stale values.
        params, var = self.model.params, self.model.decoder_var
        ws = vae._Workspace(self.xs.size * 3 * 2 * 7)
        big = generator(66).standard_normal((self.xs.size, 3, 2, 7))
        _log_r_reparam(params, var, self.xs, big, ws)
        eps = generator(67).standard_normal((self.xs.size, *trailing))
        logR, z = _log_r_reparam(params, var, self.xs, eps)
        ws_logR, ws_z = _log_r_reparam(params, var, self.xs, eps, ws)
        for a, b in ((logR, ws_logR), (z, ws_z)):
            assert a.shape == b.shape == eps.shape
            assert a.tobytes() == b.tobytes()
        # log R is written over the decoded mean, in place.
        for out, buf in ((ws_logR, ws.m), (ws_z, ws.z)):
            assert np.shares_memory(out, buf)


class TestOneNetwork:
    """The decoder and the C network are one 13-parameter network."""

    @pytest.mark.parametrize("seed", [90, 91])
    def test_cnet_is_bitwise_the_decoded_mean(self, seed):
        p = CNet.init(seed).params
        params = np.zeros(VAE_PARAM_COUNT)
        params[18:31] = p
        model = ToyVae(params)
        # A zero encoder puts z = eps exactly, with mu = t = 0; at x = 0
        # the kernel's resid is 0 - m.
        z = generator(seed).standard_normal((8, 5))
        logR, got_z = _log_r_reparam(model.params, model.decoder_var,
                                     np.zeros(8), z)
        assert got_z.tobytes() == z.tobytes()
        expected = vae._log_r(0.0 - CNet(p)(z), z, np.zeros((8, 1)), z,
                              model.decoder_var, np.empty(z.shape),
                              np.empty(z.shape))
        assert logR.tobytes() == expected.tobytes()


def units_in_order(p, x, w2, b2):
    """1 -> 4 ReLU -> 1 at the float x in Python floats: the units' products
    added in order, ((w2_0 h0 + w2_1 h1) + w2_2 h2) + w2_3 h3, then b2."""
    total = None
    for j in range(4):
        h = max(p[j] * x + p[4 + j], 0.0)
        total = w2[j] * h if total is None else total + w2[j] * h
    return total + b2


class TestStreamedNetwork:
    """The encoder heads, the decoder and the C network add their hidden
    units in order at any N, one input at a time."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_bitwise_the_units_added_in_order(self, n):
        # Hidden biases in [1, 2] keep nearly every unit active, so that
        # adding the units in another order would round otherwise.
        rng = generator(95, n)
        p = rng.uniform(-0.8, 0.8, VAE_PARAM_COUNT)
        p[4:8], p[22:26] = rng.uniform(1.0, 2.0, (2, 4))
        p = p.tolist()
        x = rng.standard_normal(n) * 0.7
        mu, t = vae._encode(np.array(p), x)
        m = vae._mlp(np.array(p[18:31]), x)
        for i, xi in enumerate(x.tolist()):
            assert mu[i] == units_in_order(p, xi, p[8:12], p[12])
            assert t[i] == units_in_order(p, xi, p[13:17], p[17])
            assert m[i] == units_in_order(p[18:], xi, p[26:30], p[30])


class TestReluLayer:
    @pytest.mark.parametrize("shape", [(9,), (5, 3), (4, 2, 3), (3, 2, 2, 5)])
    def test_bitwise_the_broadcast_layer(self, shape):
        rng = generator(65)
        x = rng.standard_normal(shape)
        w, b = rng.standard_normal(4), rng.standard_normal(4)
        h = _relu_layer(x, w, b)
        broadcast = np.maximum(x[..., None] * w + b, 0.0)
        np.testing.assert_array_equal(h, broadcast.reshape(-1, 4).T)
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
        reference = ratio_estimates(self.model, self.xs, 3, 2, 69)
        monkeypatch.setattr(vae, "BLOCK_RATIOS", blocks * 12)
        got = ratio_estimates(self.model, self.xs, 3, 2, 69)
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("blocks", [0, 7, 23])
    def test_evaluate_does_not_depend_on_the_block(self, monkeypatch, blocks):
        # 8 draws per datapoint; 0 datapoints per block clamps to 1.
        reference = evaluate(self.model, self.cnet, self.xs, k=4, seed=70)
        monkeypatch.setattr(vae, "BLOCK_RATIOS", blocks * 8)
        assert_same_result(evaluate(self.model, self.cnet, self.xs, k=4, seed=70),
                           reference)

    # A second model, C network and data set, on which @ in the encoder
    # heads rounds a one-datapoint block (numpy's vector-dot path) otherwise
    # than the same row inside a larger block.
    second_model = ToyVae.init(100)
    second_cnet = CNet.init(200)
    second_xs = sample(Laplace(0.0, 0.3), 23, 300)

    @pytest.mark.parametrize("blocks", [0, 7])
    def test_ratio_estimates_do_not_depend_on_the_block_second_model(
            self, monkeypatch, blocks):
        reference = ratio_estimates(self.second_model, self.second_xs, 3, 2, 500)
        monkeypatch.setattr(vae, "BLOCK_RATIOS", blocks * 12)
        got = ratio_estimates(self.second_model, self.second_xs, 3, 2, 500)
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("blocks", [0, 7])
    def test_evaluate_does_not_depend_on_the_block_second_model(
            self, monkeypatch, blocks):
        args = (self.second_model, self.second_cnet, self.second_xs)
        reference = evaluate(*args, k=4, seed=400)
        monkeypatch.setattr(vae, "BLOCK_RATIOS", blocks * 8)
        assert_same_result(evaluate(*args, k=4, seed=400), reference)

    @pytest.mark.parametrize("seed", [66, 100])
    def test_encoder_rows_are_bitwise_the_one_row_call(self, seed):
        params = ToyVae.init(seed).params
        mu, t = vae._encode(params, self.second_xs)
        for i, x in enumerate(self.second_xs):
            mu_i, t_i = vae._encode(params, self.second_xs[i:i + 1])
            assert (mu_i[0], t_i[0]) == (mu[i], t[i]), f"row {i}, x = {x!r}"

    @pytest.mark.parametrize("seed", [67, 200])
    def test_cnet_rows_are_bitwise_the_one_row_call(self, seed):
        cnet = CNet.init(seed)
        c = cnet(self.second_xs)
        for i, x in enumerate(self.second_xs):
            assert cnet(self.second_xs[i:i + 1])[0] == c[i], f"row {i}, x = {x!r}"

    def test_evaluate_memory_is_bounded(self):
        data = sample(Laplace(0.0, 0.2), 10_000, 71)
        peak = peak_traced_mb(lambda: evaluate(self.model, self.cnet, data, 64, 72))
        assert peak < 24.0

    def test_evaluate_memory_does_not_grow_with_k(self, monkeypatch):
        # Both k on as many workers as threads, so that the workspaces
        # compared are the same number.
        monkeypatch.setattr(vae, "WORKER_RATIOS", 1)
        data = sample(Laplace(0.0, 0.2), 10_000, 71)
        peaks = [peak_traced_mb(lambda: evaluate(self.model, self.cnet, data, k, 72))
                 for k in (1, 64)]
        assert peaks[1] - peaks[0] < 2.0

    def test_ratio_estimates_memory_is_bounded(self):
        data = sample(Laplace(0.0, 0.2), 2000, 73)
        peak = peak_traced_mb(
            lambda: ratio_estimates(self.model, data, 64, 4, 74))
        assert peak < 16.0

    def test_ratio_estimates_hold_four_vectors_a_worker(self, monkeypatch):
        # One worker's workspace is 4 BLOCK_RATIOS floats, 1 MiB; the rest
        # is O(n): the 2000 results and a block's per-datapoint arrays.
        monkeypatch.setenv(THREADS_ENV, "1")
        data = sample(Laplace(0.0, 0.2), 2000, 73)
        peak = peak_traced_mb(
            lambda: ratio_estimates(self.model, data, 64, 4, 74))
        assert peak < 1.25


class TestKeyedChunks:
    """_ratio_estimates and evaluate draw chunk j of CHUNK_POINTS datapoints
    from its own stream, so their bits do not depend on the thread count.
    The cross-thread tests set WORKER_RATIOS to 1, so that their small
    passes run on as many workers as threads."""

    model = ToyVae.init(75)
    cnet = CNet.init(76)
    # Four chunks, the last one short.
    xs = sample(Laplace(0.0, 0.3), 3 * CHUNK_POINTS + 17, 77)

    def test_ratio_chunk_draws_from_its_epoch_and_chunk_stream(self):
        k, n_pairs, seed, epoch = 3, 2, 78, 4
        got = ratio_estimates(self.model, self.xs, k, n_pairs, seed, epoch)
        start = 2 * CHUNK_POINTS
        xb = self.xs[start:start + CHUNK_POINTS]
        eps = generator(seed, epoch, 2).standard_normal((xb.size, n_pairs, 2, k))
        logR, _ = _log_r_reparam(self.model.params, self.model.decoder_var,
                                 xb, eps)
        lse = scipy_logsumexp(logR, axis=3)
        expected = scipy_logsumexp(lse[:, :, 1] - lse[:, :, 0], axis=1) - math.log(2)
        np.testing.assert_allclose(got[start:start + CHUNK_POINTS], expected,
                                   rtol=0.0, atol=1e-12)
        other = ratio_estimates(self.model, self.xs, k, n_pairs, seed, epoch + 1)
        assert not np.any(other == got)

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_ratio_estimates_are_bitwise_identical_across_threads(self, monkeypatch,
                                                                  threads):
        args = (self.model, self.xs, 3, 2, 79, 1)
        monkeypatch.setattr(vae, "WORKER_RATIOS", 1)
        monkeypatch.setenv(THREADS_ENV, "1")
        reference = ratio_estimates(*args)
        monkeypatch.setenv(THREADS_ENV, threads)
        assert ratio_estimates(*args).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_evaluate_is_bitwise_identical_across_threads(self, monkeypatch, threads):
        monkeypatch.setattr(vae, "WORKER_RATIOS", 1)
        monkeypatch.setenv(THREADS_ENV, "1")
        reference = evaluate(self.model, self.cnet, self.xs, k=4, seed=80)
        monkeypatch.setenv(THREADS_ENV, threads)
        assert_same_result(evaluate(self.model, self.cnet, self.xs, k=4, seed=80),
                           reference)

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_train_cnet_is_bitwise_identical_across_threads(self, monkeypatch,
                                                            threads):
        def run():
            return train_cnet(self.cnet, self.model, self.xs, k=2, n_pairs=2,
                              epochs=3, lr=0.2, seed=81)

        monkeypatch.setattr(vae, "WORKER_RATIOS", 1)
        monkeypatch.setenv(THREADS_ENV, "1")
        reference = run()
        monkeypatch.setenv(THREADS_ENV, threads)
        got = run()
        assert got.cnet.params.tobytes() == reference.cnet.params.tobytes()
        assert got.loss_history == reference.loss_history

    def test_train_cnet_makes_one_workspace_per_worker(self, monkeypatch,
                                                        pool_sizes):
        made = []

        class Counted(vae._Workspace):
            def __init__(self, size):
                made.append(size)
                super().__init__(size)

        monkeypatch.setattr(vae, "_Workspace", Counted)
        monkeypatch.setenv(THREADS_ENV, "2")
        # 3089 datapoints at 16 x 2 x 2 log-ratios each: two workers.
        train_cnet(self.cnet, self.model, self.xs, k=16, n_pairs=2, epochs=3,
                   lr=0.2, seed=81)
        assert pool_sizes == [2, 2, 2]
        assert made == [vae.BLOCK_RATIOS] * 2

    def test_small_evaluate_starts_no_pool(self, monkeypatch, pool_sizes):
        # Two chunks at k = 1 hold 4096 log-ratios, far below WORKER_RATIOS.
        monkeypatch.setenv(THREADS_ENV, "2")
        evaluate(self.model, self.cnet, self.xs[:2 * CHUNK_POINTS], k=1, seed=80)
        assert pool_sizes == []
        evaluate(self.model, self.cnet, self.xs, k=32, seed=80)
        assert pool_sizes == [2]

    def test_ratio_estimates_prefix_straddling_a_chunk(self):
        m = CHUNK_POINTS + 1
        whole = ratio_estimates(self.model, self.xs, 3, 2, 82)
        prefix = ratio_estimates(self.model, self.xs[:m], 3, 2, 82)
        assert prefix.tobytes() == whole[:m].tobytes()


class TestElboAndIwElbo:
    """The ELBO and IW lower bound as ``evaluate`` reports them."""

    def test_perfect_constant_model_value(self):
        model = zero_model()
        expected = -0.5 * math.log(2.0 * math.pi * 0.3)
        for k in (1, 2, 8):
            res = evaluate(model, 0.0, np.zeros(4), k=k, seed=8)
            assert res.elbo == pytest.approx(expected, abs=1e-12)
            assert res.report.lower_mean == pytest.approx(expected, abs=1e-12)

    def test_iw_bound_nondecreasing_in_k(self):
        # Statistical tightening with more importance samples: 4096 outer
        # draws at one x, each copy of the datapoint with its own draws.
        model = ToyVae.init(55)
        data = np.full(4096, 0.3)
        vals = [evaluate(model, 0.0, data, k=k, seed=56).report.lower_mean
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

    def test_unknown_kind_is_a_parse_error(self):
        eps = generator(125).standard_normal((4, 5))
        with pytest.raises(ParseError, match="iwea"):
            iw_objective_and_grad(ToyVae.init(126).params, 0.3, np.zeros(4), eps,
                                  "iwea")

    def test_cnet_gradient_matches_finite_differences(self):
        rng = generator(124)
        h = 1e-5
        cparams = rng.uniform(-0.8, 0.8, CNET_PARAM_COUNT)
        xs = rng.standard_normal(5) * 0.5
        log_r_hat = rng.standard_normal(5)
        _, grad = cnet_objective_and_grad(cparams, xs, log_r_hat)
        for idx in range(CNET_PARAM_COUNT):
            pp, pm = cparams.copy(), cparams.copy()
            pp[idx] += h
            pm[idx] -= h
            fd = (cnet_objective_and_grad(pp, xs, log_r_hat)[0]
                  - cnet_objective_and_grad(pm, xs, log_r_hat)[0]) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestTrainStep:
    """iw_objective_and_grad, the fused training step, against the
    estimator kernel _log_r_reparam at random parameters."""

    @pytest.mark.parametrize("kind", ["elbo", "iwae"])
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("B", [1000, 7])  # a full batch and a short last one
    def test_value_is_the_kernels_mean(self, kind, K, B):
        rng = generator(130, K, B)
        for _ in range(3):
            params = rng.uniform(-0.8, 0.8, VAE_PARAM_COUNT)
            xs = rng.standard_normal(B) * 0.5
            eps = rng.standard_normal((B, K))
            value, _ = iw_objective_and_grad(params, 0.3, xs, eps, kind)
            logR, _ = _log_r_reparam(params, 0.3, xs, eps)
            if kind == "elbo":
                expected = logR.mean()
            else:
                expected = np.mean(logsumexp(logR, axis=1) - math.log(K))
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_reused_step_space_is_bitwise_a_fresh_one(self):
        rng = generator(131)
        ws = vae._StepSpace(6, 3)
        for kind in ("elbo", "iwae", "elbo"):
            params = rng.uniform(-0.8, 0.8, VAE_PARAM_COUNT)
            xs = rng.standard_normal(6)
            eps = rng.standard_normal((6, 3))
            fresh = iw_objective_and_grad(params, 0.3, xs, eps, kind)
            value, grad = iw_objective_and_grad(params, 0.3, xs, eps, kind, ws)
            assert value == fresh[0]
            assert grad is ws.grad
            assert grad.tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize("objective", [Objective("elbo"), Objective("iwae", 5)])
    def test_train_bits_repeat_at_any_thread_count(self, monkeypatch, objective):
        data = sample(Laplace(0.0, 0.2), 23, 132)

        def run():
            return train(ToyVae.init(133), data, objective, epochs=3, batch=5,
                         lr=0.05, seed=134)

        monkeypatch.setenv(THREADS_ENV, "1")
        runs = [run(), run()]
        monkeypatch.setenv(THREADS_ENV, "2")
        runs.append(run())
        for other in runs[1:]:
            assert other.model.params.tobytes() == runs[0].model.params.tobytes()
            assert other.loss_history == runs[0].loss_history


class TestGradientOracle:
    """verify's vae-gradient-oracle at the seeds where the finite
    differences, not the gradients, were at fault: round-off on gradients
    near 1e-8 at 13 and 45, a step across a ReLU kink at 75."""

    @pytest.mark.parametrize("seed", [13, 45, 75])
    def test_passes(self, seed):
        assert verify.check_vae_gradients(seed, 1).passed

    @pytest.mark.parametrize("seed", [13, 45, 75])
    def test_catches_a_one_percent_gradient_error(self, seed, monkeypatch):
        exact = vae.iw_objective_and_grad

        def planted(*args):
            value, grad = exact(*args)
            return value, grad * 1.01

        monkeypatch.setattr(vae, "iw_objective_and_grad", planted)
        assert not verify.check_vae_gradients(seed, 1).passed

    def test_catches_an_error_in_any_one_entry(self, monkeypatch):
        # 1 % on entry j, or 1e-3 where its gradient is exactly zero (a dead
        # unit), in every parameter draw: each of the 31 entries is probed.
        exact = vae.iw_objective_and_grad
        for j in range(VAE_PARAM_COUNT):
            def planted(*args, j=j):
                value, grad = exact(*args)
                grad = grad.copy()
                if grad[j] == 0.0:
                    grad[j] += 1e-3
                else:
                    grad[j] *= 1.01
                return value, grad

            monkeypatch.setattr(vae, "iw_objective_and_grad", planted)
            assert not verify.check_vae_gradients(13, 1).passed, j

    @pytest.mark.parametrize("seed, kinks", [(13, 0), (92, 1)])
    def test_a_probe_across_a_kink_is_skipped_and_counted(self, seed, kinks):
        # At seed 92 one probe's steps cross a ReLU kink; no other probe
        # takes its place.
        errors, skipped = verify._gradient_errors(seed)
        assert skipped == kinks
        assert len(errors) == 6 * VAE_PARAM_COUNT + 3 * CNET_PARAM_COUNT - kinks
        assert verify.check_vae_gradients(seed, 1).passed


class TestBoundChain:
    """verify's vae-bound-chain at the verify command's default seed and
    full size: upper terms planted about 6 joint stderr low must fail its
    3-stderr gate."""

    SEED, N = 1234, 100_000

    def test_catches_upper_terms_six_stderr_low(self, monkeypatch):
        exact_evaluate, exact_upper = vae.evaluate, bounds.pairwise_at
        seen = []

        def spy(*args):
            seen.append(exact_evaluate(*args))
            return seen[-1]

        monkeypatch.setattr(vae, "evaluate", spy)
        assert verify.check_vae_bound_chain(self.SEED, self.N).passed
        shift = 6.0 * (seen[0].report.lower_stderr + seen[0].report.upper_stderr)

        def planted(lx, d, c, out=None):
            return exact_upper(lx - shift, d, c, out)

        monkeypatch.setattr(bounds, "pairwise_at", planted)
        assert not verify.check_vae_bound_chain(self.SEED, self.N).passed
        assert seen[1].report.upper_mean == pytest.approx(
            seen[0].report.upper_mean - shift, abs=1e-12)


class TestTrain:
    def test_epoch_draw_is_the_per_batch_draws(self):
        # Reference: one rng.standard_normal((batch size, K)) per batch.  23
        # datapoints in batches of 5 leave a last batch of 3, and the second
        # epoch's permutation follows the first epoch's draws.
        model = ToyVae.init(3)
        data = sample(Laplace(0.0, 0.2), 23, 4)
        objective, lr = Objective("iwae", 3), 0.05
        result = train(model, data, objective, epochs=2, batch=5, lr=lr, seed=5)
        params, rng, history = model.params.copy(), generator(5), []
        for _ in range(2):
            perm = rng.permutation(data.size)
            loss = 0.0
            for start in range(0, data.size, 5):
                xs = data[perm[start:start + 5]]
                eps = rng.standard_normal((xs.size, objective.k))
                value, grad = iw_objective_and_grad(params, model.decoder_var, xs,
                                                    eps, objective.kind)
                params = params + lr * grad
                loss += -value * xs.size
            history.append(loss / data.size)
        np.testing.assert_array_equal(result.model.params, params)
        assert result.loss_history == history

    def test_epoch_draw_memory_is_bounded(self):
        # The whole epoch's eps, 10^5 x 64 normals, would take 51 MB.
        data = sample(Laplace(0.0, 0.2), 100_000, 8)
        peak = peak_traced_mb(lambda: train(ToyVae.init(3), data,
                                            Objective("iwae", 64), epochs=1,
                                            batch=1000, lr=0.0, seed=9))
        assert peak < 20

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_is_an_input_error(self, lr):
        with pytest.raises(InvalidParams, match="lr="):
            train(ToyVae.init(3), np.zeros(8), Objective("elbo"), epochs=1,
                  batch=4, lr=lr, seed=5)

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

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_is_an_input_error(self, lr):
        with pytest.raises(InvalidParams, match="lr="):
            train_cnet(CNet.init(14), zero_model(), np.ones(8), k=1, n_pairs=1,
                       epochs=1, lr=lr, seed=15)

    def test_underflowing_ratios_give_a_finite_loss(self):
        # A near-deterministic decoder far from the data: every ratio of
        # some datapoints underflows, so r_hat itself is below the smallest
        # float while its log is finite.
        model = ToyVae.init(1, decoder_var=1e-6)
        model.params[26:30] = 5.0
        result = train_cnet(CNet.init(2), model, np.linspace(-1.0, 1.0, 50), k=4,
                            n_pairs=2, epochs=1, lr=0.0, seed=5)
        assert math.isfinite(result.loss_history[0])

    def test_non_finite_log_ratios_are_a_divergence(self):
        model = ToyVae.init(1)
        model.params[17] = 400.0  # z^2 overflows: every log-ratio is -inf
        with pytest.raises(DivergenceDetected, match="epoch 0"):
            train_cnet(CNet.init(2), model, np.linspace(-1.0, 1.0, 8), k=4,
                       n_pairs=2, epochs=1, lr=0.1, seed=5)

    def test_beats_zero_c_baseline_on_held_out_data(self):
        model = ToyVae.init(16)  # untrained: ratios vary with x
        train_data = sample(Laplace(0.0, 0.2), 256, 17)
        held_out = sample(Laplace(0.0, 0.2), 256, 18)
        result = train_cnet(CNet.init(19), model, train_data, k=4, n_pairs=8,
                            epochs=300, lr=0.3, seed=20)
        log_r_hat = ratio_estimates(model, held_out, 4, 8, 21)
        trained_obj = cnet_objective_and_grad(result.cnet.params, held_out,
                                              log_r_hat)[0]
        zero_obj = float(np.mean(0.0 - 1.0 + np.exp(log_r_hat)))
        assert trained_obj <= zero_obj


class TestEvaluate:
    def test_perfect_model_collapses_interval(self):
        model = zero_model()
        data = np.zeros(16)
        expected = -0.5 * math.log(2.0 * math.pi * 0.3)
        for k in (1, 2, 8):
            res = evaluate(model, 0.0, data, k=k, seed=21)
            np.testing.assert_allclose(res.s, expected, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(res.S, res.s, rtol=0.0, atol=1e-12)
            assert res.report.lower_mean == pytest.approx(res.report.upper_mean,
                                                          abs=1e-12)

    def test_repeat_call_is_deterministic(self):
        model = ToyVae.init(22)
        data = sample(Laplace(0.0, 0.2), 64, 23)
        a = evaluate(model, 0.0, data, k=4, seed=24)
        b = evaluate(model, 0.0, data, k=4, seed=24)
        assert_same_result(a, b)

    def test_untrained_model_sandwich_orders(self):
        model = ToyVae.init(25)
        data = sample(Laplace(0.0, 0.2), 512, 26)
        res = evaluate(model, 0.0, data, k=4, seed=27)
        assert res.report.lower_mean <= res.report.upper_mean
        assert res.elbo <= res.report.lower_mean + 1e-12  # mean Jensen slack

    def test_same_batch_optimal_c_keeps_upper_above_lower(self):
        model = ToyVae.init(28)
        data = sample(Laplace(0.0, 0.2), 512, 29)
        first = evaluate(model, 0.0, data, k=4, seed=30)
        ratios = first.S - first.s + 1.0
        c_opt = math.log(float(ratios.mean()))
        second = evaluate(model, c_opt, data, k=4, seed=30).report
        assert second.upper_mean >= second.lower_mean
        assert second.upper_mean - second.lower_mean == pytest.approx(c_opt,
                                                                      abs=1e-9)

    def test_upper_tightens_with_k(self):
        model = ToyVae.init(31)
        data = sample(Laplace(0.0, 0.2), 512, 32)
        results = [evaluate(model, 0.0, data, k=k, seed=33) for k in (1, 4, 16)]
        widths = [res.report.width for res in results]
        assert widths[0] > widths[1] > widths[2]
        # The importance-weighted lower bound tightens with k as well.
        lowers = [res.report.lower_mean for res in results]
        assert lowers[0] < lowers[1] < lowers[2]

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_c_rejected(self, c):
        with pytest.raises(InvalidParams, match="finite"):
            evaluate(zero_model(), c, np.zeros(4), k=1, seed=21)

    def test_non_finite_log_ratios_raise(self):
        # A huge posterior spread overflows z^2 and every log-ratio is -inf.
        model = ToyVae.init(25)
        model.params[17] = 400.0
        with pytest.raises(NonPositiveSample, match="finite"):
            evaluate(model, 0.0, np.linspace(-1.0, 1.0, 8), k=4, seed=21)

    def test_cnet_source_used_per_datapoint(self):
        model = zero_model()
        cnet = CNet.init(34)
        data = np.linspace(-1.0, 1.0, 8)
        res = evaluate(model, cnet, data, k=1, seed=35)
        np.testing.assert_allclose(res.c, cnet(data))

    def test_records_match_per_datapoint_reference(self):
        # Two chunks, the second short: datapoint i draws its (2, k) normals
        # from generator(seed, i // CHUNK_POINTS), in C order over its chunk.
        model = ToyVae.init(36)
        cnet = CNet.init(37)
        data = sample(Laplace(0.0, 0.2), CHUNK_POINTS + 40, 38)
        k, seed = 8, 39
        res = evaluate(model, cnet, data, k=k, seed=seed)
        draws = np.concatenate([
            generator(seed, 0).standard_normal((CHUNK_POINTS, 2, k)),
            generator(seed, 1).standard_normal((40, 2, k)),
        ])
        primal = []
        for x, rec, eps in zip(data, res.records, draws):
            mu, sigma = posterior(model, x)
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

    @pytest.mark.parametrize("m", [1, 7, 39, CHUNK_POINTS + 1])
    def test_prefix_gives_the_first_records(self, m):
        model = ToyVae.init(36)
        cnet = CNet.init(37)
        data = sample(Laplace(0.0, 0.2), CHUNK_POINTS + 40, 38)
        whole = evaluate(model, cnet, data, k=8, seed=39)
        assert evaluate(model, cnet, data[:m], k=8, seed=39).records == whole.records[:m]

    def test_records_are_the_vectors(self):
        res = evaluate(ToyVae.init(36), CNet.init(37),
                       sample(Laplace(0.0, 0.2), 9, 38), k=3, seed=39)
        assert len(res.records) == 9
        for i, rec in enumerate(res.records):
            assert (rec.x, rec.s, rec.S, rec.c, rec.k) == (
                res.x[i], res.s[i], res.S[i], res.c[i], 3)


class TestEvaluateReport:
    """evaluate reports its pairs as sandwich reports a batch."""

    @staticmethod
    def evaluate_with_pairs(monkeypatch, c_source):
        """evaluate's result and the PairedSamples it formed."""
        real, seen = vae.PairedSamples, []

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(vae, "PairedSamples", spy)
        data = sample(Laplace(0.0, 0.2), 3000, 62)
        res = evaluate(ToyVae.init(61), c_source, data, k=4, seed=63)
        monkeypatch.undo()
        return res, seen[0]

    @pytest.mark.parametrize("c", [0.0, 0.4, "saturating"])
    def test_float_c_reports_what_sandwich_reports(self, monkeypatch, c):
        if c == "saturating":
            # About half the pairs have d - C above the saturation exponent.
            _, pairs = self.evaluate_with_pairs(monkeypatch, 0.0)
            c = float(np.median(pairs.d)) - EXP_SATURATION
        res, pairs = self.evaluate_with_pairs(monkeypatch, c)
        got, want = res.report, bounds.sandwich(pairs, c)
        assert (got.lower_mean, got.lower_stderr) == (want.lower_mean,
                                                      want.lower_stderr)
        for name in ("upper_mean", "upper_stderr", "width", "width_stderr"):
            assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                       rel=1e-13, abs=0.0), name
        assert got.saturated_pairs == want.saturated_pairs
        assert (got.log_ratio_mean, got.n, got.k) == (want.log_ratio_mean,
                                                      want.n, want.k)
        if c < 0.0:
            assert 0 < got.saturated_pairs < got.n

    def test_c_network_reports_the_mean_c(self, monkeypatch):
        res, _ = self.evaluate_with_pairs(monkeypatch, CNet.init(64))
        assert res.report.c_used == np.mean(res.c)
        assert np.ptp(res.c) > 0.0


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

    @pytest.mark.parametrize("count, index, value", [
        (VAE_PARAM_COUNT, 5, math.nan),           # a parameter
        (VAE_PARAM_COUNT, VAE_PARAM_COUNT, -1.0),  # the decoder variance
        (CNET_PARAM_COUNT, 12, math.inf),
    ])
    def test_framed_bad_values_rejected_naming_the_path(self, tmp_path, count,
                                                        index, value):
        path = str(tmp_path / "bad.ckpt")
        write_raw_checkpoint(path, count, index, value)
        load = load_model if count == VAE_PARAM_COUNT else load_cnet
        with pytest.raises(CheckpointError, match="bad.ckpt"):
            load(path)
