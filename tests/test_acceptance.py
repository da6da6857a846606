"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here, not tuned elsewhere; statistical
checks run at 3 standard errors on deterministic seeded draws."""

import math
import time

import numpy as np

from gapsandwich import vae
from gapsandwich.bounds import (
    optimal_h_check,
    sandwich,
    sandwich_at_c_star,
    tangent_family_g,
)
from gapsandwich.cli import CNET_DEFAULTS, TRAIN_DEFAULTS, main
from gapsandwich.distributions import (
    Gamma,
    LogNormal,
    UniformPos,
    laplace_loglik,
    parse_dist,
    sample,
)
from gapsandwich.rng import derive_key, generator
from gapsandwich.samples import paired_from_halves

SEED = 1234


def report(num, name, passed=True):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


def pairs_for(dist, n, seed, k=1):
    return paired_from_halves(sample(dist, 2 * n * k, seed), k)


def test_criterion_1_gamma_closed_form_gap():
    """First-order gap matches 1/(ka-1) for Gamma(2,1), k in {1,4,8}."""
    start = time.monotonic()
    n = 100_000
    for i, k in enumerate((1, 4, 8)):
        s = pairs_for(Gamma(2.0, 1.0), n, derive_key(SEED, 101, i), k=k)
        rep = sandwich(s, 0.0)
        exact = 1.0 / (k * 2.0 - 1.0)
        assert abs(rep.width - exact) <= 3.0 * rep.width_stderr, (k, rep, exact)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    report(1, "gamma closed-form gap 1/(ka-1)")


def test_criterion_2_lognormal_exactness():
    """Midpoint hits m + sigma^2/2 and optimal C hits sigma^2 (3 stderr)."""
    start = time.monotonic()
    n = 100_000
    for i, (m, sg) in enumerate([(0.0, 1.0), (-1.0, 0.5), (2.0, 2.0)]):
        s = pairs_for(LogNormal(m, sg), n, derive_key(SEED, 102, i))
        # At C*, the width's stderr is the delta-method stderr of C*.
        rep = sandwich_at_c_star(s)
        c_star, se_c = rep.c_used, rep.width_stderr
        assert abs(c_star - sg * sg) <= 3.0 * se_c, (m, sg, rep)
        se_mid = math.sqrt(rep.lower_stderr ** 2 + 0.25 * se_c**2)
        assert abs(rep.midpoint - (m + 0.5 * sg * sg)) <= 3.0 * se_mid, (m, sg, rep)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    report(2, "log-normal midpoint and optimal-C exactness")


def test_criterion_3_c_zero_identity():
    """sandwich's upper at C=0 == its lower + mean(Y/X) - 1, 1e-12 relative."""
    s = pairs_for(Gamma(2.0, 1.0), 10_000, derive_key(SEED, 103))
    rep = sandwich(s, 0.0)
    a = rep.upper_mean
    b = rep.lower_mean + (float(np.exp(s.d).mean()) - 1.0)
    rel = abs(a - b) / max(1.0, abs(a), abs(b))
    assert rel <= 1e-12, rel
    report(3, "C=0 identity (exact algebra)")


def test_criterion_4_monotonicity_and_shrinkage():
    """On Uniform(0.5, 1.5): lower bound nondecreasing and sandwich width
    non-increasing over k in {1,2,4,8,16}, each within 3 stderr."""
    n = 100_000
    reports = []
    for i, k in enumerate((1, 2, 4, 8, 16)):
        s = pairs_for(UniformPos(0.5, 1.5), n, derive_key(SEED, 104, i), k=k)
        reports.append(sandwich(s, 0.0))
    for prev, cur in zip(reports, reports[1:]):
        slack = 3.0 * (prev.lower_stderr + cur.lower_stderr)
        assert cur.lower_mean >= prev.lower_mean - slack, (prev, cur)
        width_slack = 3.0 * (prev.lower_stderr + prev.upper_stderr
                             + cur.lower_stderr + cur.upper_stderr)
        assert cur.width <= prev.width + width_slack, (prev, cur)
    report(4, "k-monotonicity and width shrinkage on bounded support")


def test_criterion_5_tangent_minimality():
    """optimal_h_check accepts the tangent family for C in {-1,0,1} over a
    log-spaced grid and rejects the 0.999-scaled h."""
    a_grid = np.geomspace(1e-3, 1e3, 601)
    xs = np.geomspace(0.1, 10.0, 33)
    for c in (-1.0, 0.0, 1.0):
        g = tangent_family_g(xs, c)
        assert optimal_h_check(g, a_grid), c
        assert not optimal_h_check(g, a_grid, h_scale=0.999), c
    report(5, "tangent-family bound validity and minimality")


def test_criterion_6_gradient_oracle():
    """Analytic gradients vs central differences (h=1e-5): max relative
    error < 1e-4 over >= 10 coordinates x 5 inputs, for both networks."""
    start = time.monotonic()
    h = 1e-5
    worst = 0.0
    rng = generator(derive_key(SEED, 106))
    for trial in range(5):
        params = rng.uniform(-0.8, 0.8, vae.VAE_PARAM_COUNT)
        xs = rng.standard_normal(4) * 0.5
        eps = rng.standard_normal((4, 5))
        for kind in ("elbo", "iwae"):
            _, grad = vae.iw_objective_and_grad(params, 0.3, xs, eps, kind)
            for idx in rng.choice(vae.VAE_PARAM_COUNT, size=10, replace=False):
                pp, pm = params.copy(), params.copy()
                pp[idx] += h
                pm[idx] -= h
                fd = (vae.iw_objective_and_grad(pp, 0.3, xs, eps, kind)[0]
                      - vae.iw_objective_and_grad(pm, 0.3, xs, eps, kind)[0]) / (2 * h)
                worst = max(worst, abs(fd - grad[idx]) / max(1e-8, abs(fd), abs(grad[idx])))
        cparams = rng.uniform(-0.8, 0.8, vae.CNET_PARAM_COUNT)
        log_r_hat = rng.standard_normal(4)
        _, cgrad = vae.cnet_objective_and_grad(cparams, xs, log_r_hat)
        for idx in rng.choice(vae.CNET_PARAM_COUNT, size=10, replace=False):
            pp, pm = cparams.copy(), cparams.copy()
            pp[idx] += h
            pm[idx] -= h
            fd = (vae.cnet_objective_and_grad(pp, xs, log_r_hat)[0]
                  - vae.cnet_objective_and_grad(pm, xs, log_r_hat)[0]) / (2 * h)
            worst = max(worst, abs(fd - cgrad[idx]) / max(1e-8, abs(fd), abs(cgrad[idx])))
    elapsed = time.monotonic() - start
    assert worst < 1e-4, worst
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"
    report(6, f"gradient oracle (max rel err {worst:.2e})")


def test_criterion_7_laplace_case_study():
    """Default training on 1e4 Laplace(0, 0.2) draws, C network per the
    two-step pipeline, then the paired evaluation at k in {1,4,16,64}.

    The k=64 interval must have width <= 0.02 inside [-0.25, -0.05]; the
    interval shrinks monotonically within 3 stderr; ELBO <= lower at k=64;
    and the upper bound stays below the data log-likelihood estimate."""
    start = time.monotonic()
    d = TRAIN_DEFAULTS
    dist = parse_dist(d["data"])
    data = sample(dist, d["n"], derive_key(SEED, 1))
    model = vae.ToyVae.init(derive_key(SEED, 2), d["decoder_var"])
    trained = vae.train(model, data, vae.Objective.parse(d["objective"]),
                        epochs=d["epochs"], batch=d["batch"], lr=d["lr"],
                        seed=derive_key(SEED, 3)).model

    cnet_data = sample(dist, CNET_DEFAULTS["n"], derive_key(SEED, 4))
    cnet = vae.train_cnet(vae.CNet.init(derive_key(SEED, 5)), trained, cnet_data,
                          k=CNET_DEFAULTS["k"], n_pairs=CNET_DEFAULTS["n_pairs"],
                          epochs=CNET_DEFAULTS["epochs"], lr=CNET_DEFAULTS["lr"],
                          seed=derive_key(SEED, 6)).cnet

    eval_data = sample(dist, 10_000, derive_key(SEED, 7))
    results = {k: vae.evaluate(trained, cnet, eval_data, k, derive_key(SEED, 8, k))
               for k in (1, 4, 16, 64)}

    final = results[64].report
    lower, upper = final.lower_mean, final.upper_mean
    assert lower <= upper, (lower, upper)
    assert final.width <= 0.02, final.width
    assert -0.25 <= lower and upper <= -0.05, (lower, upper)

    stats = {k: (res.report.width, res.report.width_stderr)
             for k, res in results.items()}
    for ka, kb in ((1, 4), (4, 16), (16, 64)):
        (wa, sa), (wb, sb) = stats[ka], stats[kb]
        assert wb <= wa + 3.0 * (sa + sb), (ka, kb, stats)

    elbo = results[64].elbo
    assert elbo <= lower + 1e-12, (elbo, lower)

    ll_vals = -np.abs(eval_data - dist.loc) / dist.b - math.log(2.0 * dist.b)
    ll_mc = float(ll_vals.mean())
    ll_se = float(ll_vals.std(ddof=1) / math.sqrt(ll_vals.size))
    assert upper <= ll_mc + 3.0 * ll_se, (upper, ll_mc)
    assert upper <= laplace_loglik(0.0, 0.2)  # analytic value -0.0837

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
    report(7, f"case study (trained C net, k=64 interval "
              f"[{lower:.4f}, {upper:.4f}], {elapsed:.0f}s)")


def test_criterion_8_no_image_benchmarks():
    """Large image benchmarks are out of scope at desk scale; the suite is
    complete without them."""
    report(8, "no criterion depends on image-dataset results")


def test_criterion_9_verify_determinism(tmp_path, monkeypatch):
    """`verify` twice with one seed is byte-identical under 1 and 8 threads."""
    paths = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = str(tmp_path / f"v{tag}.csv")
        monkeypatch.setenv("GAPSANDWICH_THREADS", threads)
        code = main(["verify", "--seed", "7", "--out", out])
        assert code == 0
        paths.append(tmp_path / f"v{tag}.csv")
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    report(9, "verify output byte-identical across runs and thread counts")
