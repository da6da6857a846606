"""Cross-module invariant suite behind the `verify` CLI command.

Each property computes a slack: the smallest margin by which the property
holds, in its natural units.  Slack >= 0 means pass.  All checks are
deterministic in the seed (and independent of thread count), so the emitted
CSV is byte-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds, vae
from .accumulate import log_mean_exp
from .distributions import (
    Constant,
    Gamma,
    Laplace,
    LogNormal,
    UniformPos,
    k_averaged_law,
    sample,
)
from .rng import derive_key, generator
from .samples import paired_from_halves
from .sweep import CHUNK_DRAWS, CPolicy, SweepConfig, dist_source, run_sweep

VERIFY_CSV_HEADER = "property,passed,slack"


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""


def _pairs_for(dist, n: int, k: int, seed: int):
    raw = sample(dist, 2 * n * k, seed)
    return paired_from_halves(raw, k)


def _min_slack(margins: list[float]) -> float:
    return min(margins) if margins else math.inf


def check_sandwich_order(seed: int, n: int) -> PropertyResult:
    """Lower estimate must not exceed the upper one beyond 3 joint stderr."""
    margins = []
    cases = [
        (Gamma(2.0, 1.0), 1, 0.0),
        (Gamma(2.0, 1.0), 4, 0.5),
        (LogNormal(0.0, 1.0), 1, 1.0),
        (UniformPos(0.5, 1.5), 2, 0.0),
    ]
    for i, (dist, k, c) in enumerate(cases):
        s = _pairs_for(dist, n, k, derive_key(seed, 1, i))
        rep = bounds.sandwich(s, c)
        margins.append(
            rep.upper_mean + 3.0 * (rep.lower_stderr + rep.upper_stderr)
            - rep.lower_mean
        )
    slack = _min_slack(margins)
    return PropertyResult("sandwich-order", slack >= 0.0, slack)


def check_c_zero_identity(seed: int, n: int) -> PropertyResult:
    """improved_upper at C=0 equals jensen + first-order gap to 1e-12 rel."""
    s = _pairs_for(Gamma(2.0, 1.0), n, 1, derive_key(seed, 2))
    a = bounds.improved_upper(s, 0.0).mean
    b = bounds.jensen_lower(s).mean + bounds.gap_upper_first_order(s).mean
    err = abs(a - b) / max(1.0, abs(a), abs(b))
    slack = 1e-12 - err
    return PropertyResult("c-zero-identity", slack >= 0.0, slack)


def check_optimal_c_stationarity(seed: int, n: int) -> PropertyResult:
    """improved_upper is minimized at C* = log mean(Y/X) on the same pairs."""
    margins = []
    for i, dist in enumerate([Gamma(2.0, 1.0), LogNormal(0.0, 1.0)]):
        s = _pairs_for(dist, n, 1, derive_key(seed, 3, i))
        c_star = bounds.optimal_c(s)
        at_star = bounds.improved_upper(s, c_star).mean
        for dc in (-0.1, 0.1):
            margins.append(bounds.improved_upper(s, c_star + dc).mean - at_star)
    slack = _min_slack(margins)
    return PropertyResult("optimal-c-stationarity", slack >= 0.0, slack)


def check_k_monotonicity(seed: int, n: int) -> PropertyResult:
    """On bounded support the lower bound is nondecreasing in k (3 stderr)."""
    dist = UniformPos(0.5, 1.5)
    margins = []
    prev = None
    for i, k in enumerate([1, 2, 4, 8, 16]):
        s = _pairs_for(dist, n, k, derive_key(seed, 4, i))
        est = bounds.jensen_lower(s)
        if prev is not None:
            margins.append(est.mean - prev.mean + 3.0 * (est.stderr + prev.stderr))
        prev = est
    slack = _min_slack(margins)
    return PropertyResult("k-monotonicity", slack >= 0.0, slack)


def check_gap_shrinkage(seed: int, n: int) -> PropertyResult:
    """First-order gap decreases when k doubles and tends to zero."""
    dist = UniformPos(0.5, 1.5)
    ests = {}
    for i, k in enumerate([1, 2, 4, 8, 16]):
        s = _pairs_for(dist, n, k, derive_key(seed, 5, i))
        ests[k] = bounds.gap_upper_first_order(s)
    margins = []
    for k in [1, 2, 4, 8]:
        a, b = ests[k], ests[2 * k]
        margins.append(a.mean + 3.0 * (a.stderr + b.stderr) - b.mean)
    # Limit check: at k=16 the gap must have collapsed well below its k=1 value.
    margins.append(0.2 * ests[1].mean - ests[16].mean)
    slack = _min_slack(margins)
    return PropertyResult("gap-shrinkage", slack >= 0.0, slack)


def check_gamma_closed_form(seed: int, n: int) -> PropertyResult:
    """MC first-order gap matches 1/(ka-1) for Gamma(a, theta), ka > 1."""
    margins = []
    for i, (a, theta, k) in enumerate([(2.0, 1.0, 1), (2.0, 1.0, 4), (0.5, 1.0, 4)]):
        s = _pairs_for(Gamma(a, theta), n, k, derive_key(seed, 6, i))
        est = bounds.gap_upper_first_order(s)
        exact = 1.0 / (k * a - 1.0)
        margins.append(3.0 * est.stderr - abs(est.mean - exact))
    slack = _min_slack(margins)
    return PropertyResult("gamma-closed-form", slack >= 0.0, slack)


def check_lognormal_midpoint(seed: int, n: int) -> PropertyResult:
    """Midpoint estimator hits m + sigma^2/2 exactly for log-normal X."""
    margins = []
    for i, (m, sg) in enumerate([(0.0, 1.0), (-1.0, 0.5), (2.0, 2.0)]):
        s = _pairs_for(LogNormal(m, sg), n, 1, derive_key(seed, 7, i))
        mid = bounds.midpoint_evidence(s)
        se = math.sqrt(
            bounds.jensen_lower(s).stderr ** 2
            + 0.25 * bounds.log_ratio_mean(s).stderr ** 2
        )
        margins.append(3.0 * se - abs(mid - (m + 0.5 * sg * sg)))
    slack = _min_slack(margins)
    return PropertyResult("lognormal-midpoint", slack >= 0.0, slack)


def check_scale_equivariance(seed: int, n: int) -> PropertyResult:
    """Scaling samples by lam shifts log-scale estimates by exactly log lam
    and leaves ratio-based quantities unchanged."""
    raw = sample(Gamma(2.0, 1.0), 2 * max(n // 10, 100), derive_key(seed, 8))
    lam = 3.7
    s = paired_from_halves(raw, 1)
    scaled = paired_from_halves(raw * lam, 1)
    shift = math.log(lam)
    tol = 1e-10
    errs = [
        abs(bounds.jensen_lower(scaled).mean - bounds.jensen_lower(s).mean - shift),
        abs(bounds.improved_upper(scaled, 0.3).mean
            - bounds.improved_upper(s, 0.3).mean - shift),
        abs(bounds.optimal_upper(scaled) - bounds.optimal_upper(s) - shift),
        abs(bounds.midpoint_evidence(scaled) - bounds.midpoint_evidence(s) - shift),
        abs(bounds.optimal_c(scaled) - bounds.optimal_c(s)),
        abs(bounds.gap_upper_first_order(scaled).mean
            - bounds.gap_upper_first_order(s).mean),
    ]
    slack = tol - max(errs)
    return PropertyResult("scale-equivariance", slack >= 0.0, slack)


def check_dist_oracles(seed: int, n: int) -> PropertyResult:
    """Sampler moments match the closed-form accessors within 4 stderr."""
    big = 10 * n
    margins = []
    dists = [Gamma(2.0, 1.0), Gamma(0.5, 2.0), LogNormal(0.0, 1.0),
             UniformPos(0.5, 1.5), Constant(3.0)]
    for i, dist in enumerate(dists):
        xs = sample(dist, big, derive_key(seed, 9, 2 * i))
        ys = sample(dist, big, derive_key(seed, 9, 2 * i + 1))
        checks = [(xs, dist.mean), (np.log(xs), dist.mean_log)]
        for values, exact in checks:
            if exact is None:
                continue
            mean = float(values.mean())
            se = float(values.std(ddof=1)) / math.sqrt(big)
            margins.append(4.0 * se + 1e-12 - abs(mean - exact))
        if dist.log_ratio_mean is not None:
            d = np.log(ys) - np.log(xs)
            est = log_mean_exp(d)
            ratio = np.exp(d)
            se_log = float(ratio.std(ddof=1)) / math.sqrt(big) / float(ratio.mean())
            margins.append(4.0 * se_log + 1e-12 - abs(est - dist.log_ratio_mean))
    slack = _min_slack(margins)
    return PropertyResult("dist-oracle-consistency", slack >= 0.0, slack)


def check_sampler_determinism(seed: int, n: int) -> PropertyResult:
    """Identical (dist, n, seed) must yield bit-identical vectors."""
    ok = True
    for dist in [Gamma(0.5, 1.0), LogNormal(0.0, 1.0), UniformPos(0.5, 1.5)]:
        a = sample(dist, n, derive_key(seed, 10))
        b = sample(dist, n, derive_key(seed, 10))
        ok = ok and bool(np.array_equal(a, b))
    return PropertyResult("sampler-determinism", ok, 0.0 if ok else -1.0)


def check_k_averaged_law(seed: int, n: int) -> PropertyResult:
    """Block-averaged Gamma(2,1) matches Gamma(8, 0.25) in two moments."""
    k = 4
    base = Gamma(2.0, 1.0)
    law = k_averaged_law(base, k)
    raw = sample(base, n * k, derive_key(seed, 11, 0))
    averaged = raw.reshape(-1, k).mean(axis=1)
    direct = sample(law, n, derive_key(seed, 11, 1))
    margins = []
    for f in (lambda v: v, lambda v: v * v):
        x, y = f(averaged), f(direct)
        se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        margins.append(4.0 * se - abs(float(x.mean() - y.mean())))
    slack = _min_slack(margins)
    return PropertyResult("k-averaged-law", slack >= 0.0, slack)


def check_tangent_minimality(seed: int, n: int) -> PropertyResult:
    """The tangent-family bound holds and its h is pointwise minimal."""
    a_grid = np.geomspace(1e-3, 1e3, 301)
    xs = np.geomspace(0.1, 10.0, 25)
    ok = True
    for c in (-1.0, 0.0, 1.0):
        g = bounds.tangent_family_g(xs, c)
        ok = ok and bounds.optimal_h_check(g, a_grid)
        ok = ok and not bounds.optimal_h_check(g, a_grid, h_scale=0.999)
    return PropertyResult("tangent-minimality", ok, 0.0 if ok else -1.0)


def check_sweep_shrinking(seed: int, n: int) -> PropertyResult:
    """Aggregate sandwich width on bounded support shrinks with k."""
    cfg = SweepConfig(
        k_values=(1, 2, 4, 8), n_pairs=max(n // 10, 200), replications=3,
        base_seed=derive_key(seed, 13), c_policy=CPolicy("zero"),
    )
    result = run_sweep(dist_source(UniformPos(0.5, 1.5)), cfg)
    margins = []
    for prev, cur in zip(result.aggregates, result.aggregates[1:]):
        spread = 3.0 * (prev.upper_std + prev.lower_std
                        + cur.upper_std + cur.lower_std)
        margins.append(prev.width + spread - cur.width)
    slack = _min_slack(margins)
    return PropertyResult("sweep-shrinking-width", slack >= 0.0, slack)


def check_sweep_reproducibility(seed: int, n: int) -> PropertyResult:
    """run_sweep is bit-identical across thread counts, also for cells whose
    pairs span more than one chunk."""
    n_pairs = max(n // 100, 50)
    cases = [
        (Gamma(2.0, 1.0), SweepConfig(
            k_values=(1, 4), n_pairs=n_pairs, replications=4,
            base_seed=derive_key(seed, 14), c_policy=CPolicy("pilot-optimal"),
        )),
        # One chunk holds about half of this cell's pairs.
        (UniformPos(0.5, 1.5), SweepConfig(
            k_values=(CHUNK_DRAWS // n_pairs,), n_pairs=n_pairs, replications=2,
            base_seed=derive_key(seed, 14, 1), c_policy=CPolicy("pilot-optimal"),
        )),
    ]
    ok = True
    for dist, cfg in cases:
        source = dist_source(dist)
        a = run_sweep(source, cfg, threads=1)
        b = run_sweep(source, cfg, threads=8)
        ok = ok and all(
            ra.report == rb.report and ra.seed == rb.seed
            for ra, rb in zip(a.rows, b.rows)
        )
    return PropertyResult("sweep-reproducibility", ok, 0.0 if ok else -1.0)


def check_midpoint_centering(seed: int, n: int) -> PropertyResult:
    """With C = optimal C from the same pairs, the report midpoint is the
    exact center of [lower, upper]."""
    s = _pairs_for(LogNormal(0.0, 1.0), max(n // 10, 100), 1, derive_key(seed, 15))
    rep = bounds.sandwich(s, bounds.optimal_c(s))
    err = abs(rep.midpoint - 0.5 * (rep.lower_mean + rep.upper_mean))
    slack = 1e-9 - err
    return PropertyResult("midpoint-centering", slack >= 0.0, slack)


def check_constant_degenerate(seed: int, n: int) -> PropertyResult:
    """Constant samples give a zero-width sandwich at log c exactly."""
    raw = sample(Constant(1.0), 2 * max(n // 100, 10), derive_key(seed, 16))
    s = paired_from_halves(raw, 1)
    rep = bounds.sandwich(s, 0.0)
    err = max(abs(rep.lower_mean), abs(rep.upper_mean), abs(rep.midpoint))
    slack = 1e-12 - err
    return PropertyResult("constant-degenerate", slack >= 0.0, slack)


def check_vae_gradients(seed: int, n: int) -> PropertyResult:
    """Hand-written gradients match central finite differences (rel 1e-4)."""
    rng = generator(derive_key(seed, 17))
    h = 1e-5
    worst = 0.0
    for kind in ("elbo", "iwae"):
        for _ in range(3):
            params = rng.uniform(-0.8, 0.8, vae.VAE_PARAM_COUNT)
            xs = rng.standard_normal(5) * 0.5
            eps = rng.standard_normal((5, 5))
            _, grad = vae.iw_objective_and_grad(params, 0.3, xs, eps, kind)
            for idx in rng.choice(vae.VAE_PARAM_COUNT, size=10, replace=False):
                pp, pm = params.copy(), params.copy()
                pp[idx] += h
                pm[idx] -= h
                fd = (
                    vae.iw_objective_and_grad(pp, 0.3, xs, eps, kind)[0]
                    - vae.iw_objective_and_grad(pm, 0.3, xs, eps, kind)[0]
                ) / (2.0 * h)
                denom = max(1e-8, abs(fd), abs(grad[idx]))
                worst = max(worst, abs(fd - grad[idx]) / denom)
    for _ in range(3):
        cparams = rng.uniform(-0.8, 0.8, vae.CNET_PARAM_COUNT)
        xs = rng.standard_normal(5) * 0.5
        r_hat = np.exp(rng.standard_normal(5))
        _, grad = vae.cnet_objective_and_grad(cparams, xs, r_hat)
        for idx in range(vae.CNET_PARAM_COUNT):
            pp, pm = cparams.copy(), cparams.copy()
            pp[idx] += h
            pm[idx] -= h
            fd = (
                vae.cnet_objective_and_grad(pp, xs, r_hat)[0]
                - vae.cnet_objective_and_grad(pm, xs, r_hat)[0]
            ) / (2.0 * h)
            denom = max(1e-8, abs(fd), abs(grad[idx]))
            worst = max(worst, abs(fd - grad[idx]) / denom)
    slack = 1e-4 - worst
    return PropertyResult("vae-gradient-oracle", slack >= 0.0, slack)


def check_reparam_moments(seed: int, n: int) -> PropertyResult:
    """z = mu + sigma*eps matches the encoder law in two moments (4 se)."""
    model = vae.ToyVae.init(derive_key(seed, 18, 0))
    rng = generator(derive_key(seed, 18, 1))
    margins = []
    for x in (-0.4, 0.0, 0.7):
        _, mu, t = vae._encode(model.params, np.asarray(x, dtype=float))
        sg = math.exp(float(t))
        z = float(mu) + sg * rng.standard_normal(n)
        se_mean = z.std(ddof=1) / math.sqrt(n)
        margins.append(4.0 * se_mean - abs(float(z.mean()) - float(mu)))
        se_var = z.var(ddof=1) * math.sqrt(2.0 / (n - 1))
        margins.append(4.0 * se_var - abs(float(z.var(ddof=1)) - sg * sg))
    slack = _min_slack(margins)
    return PropertyResult("vae-reparam-moments", slack >= 0.0, slack)


def check_vae_bound_chain(seed: int, n: int) -> PropertyResult:
    """On shared draws: ELBO <= IW bound pointwise, and the paired upper
    estimate dominates the lower one within 3 joint stderr."""
    model = vae.ToyVae.init(derive_key(seed, 19, 0), decoder_var=0.3)
    data = sample(Laplace(0.0, 0.2), max(n // 100, 200), derive_key(seed, 19, 1))
    res = vae.evaluate(model, 0.0, data, 8, derive_key(seed, 19, 2))
    s_vals = np.array([rec.s for rec in res.records])
    margins = [float((s_vals - res.elbo).mean())]  # mean Jensen slack >= 0
    margins.append(
        res.upper + 3.0 * (res.lower_stderr + res.upper_stderr) - res.lower
    )
    slack = _min_slack(margins)
    return PropertyResult("vae-bound-chain", slack >= 0.0, slack)


ALL_CHECKS: list[Callable[[int, int], PropertyResult]] = [
    check_sandwich_order,
    check_c_zero_identity,
    check_optimal_c_stationarity,
    check_k_monotonicity,
    check_gap_shrinkage,
    check_gamma_closed_form,
    check_lognormal_midpoint,
    check_scale_equivariance,
    check_dist_oracles,
    check_sampler_determinism,
    check_k_averaged_law,
    check_tangent_minimality,
    check_sweep_shrinking,
    check_sweep_reproducibility,
    check_midpoint_centering,
    check_constant_degenerate,
    check_vae_gradients,
    check_reparam_moments,
    check_vae_bound_chain,
]


def run_verify(seed: int, quick: bool = False) -> list[PropertyResult]:
    """Run the full property suite; quick mode subsamples n by 10x."""
    n = 10_000 if quick else 100_000
    return [check(seed, n) for check in ALL_CHECKS]


def verify_csv_lines(results: list[PropertyResult]) -> list[str]:
    lines = [VERIFY_CSV_HEADER]
    for res in results:
        lines.append(f"{res.name},{int(res.passed)},{res.slack!r}")
    return lines
