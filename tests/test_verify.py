"""Power tests for verify's statistical gates.

Each property passes at a pinned seed and a reduced n, and fails when a
defect is planted about 6 of its own stderr past its bound: a result of the
estimator or the sampler it reads is moved there on its way to the
property.  A gate
loosened tenfold, 30 stderr for 3, would pass the plant, so these tests pin
each gate's strength without pinning its slack.  vae-bound-chain has its
own, tests/test_vae.py::TestBoundChain.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gapsandwich import bounds, verify

SEED, N = 1234, 10_000


def upper_below_lower(rep, seen):
    """Every upper bound 6 joint stderr below its lower bound."""
    return replace(rep, upper_mean=rep.lower_mean
                   - 6.0 * (rep.lower_stderr + rep.upper_stderr))


def last_lower_drops(rep, seen):
    """The lower bound at the last k, 6 joint stderr below the one before."""
    if len(seen) < 5:
        return rep
    prev = seen[-2]
    return replace(rep, lower_mean=prev.lower_mean
                   - 6.0 * (prev.lower_stderr + rep.lower_stderr))


def second_gap_grows(rep, seen):
    """The gap at k = 2, 6 joint stderr above the one at k = 1."""
    if len(seen) != 2:
        return rep
    prev = seen[0]
    return replace(rep, width=prev.width
                   + 6.0 * (prev.width_stderr + rep.width_stderr))


def gap_high(rep, seen):
    """Every gap 6 of its stderr high."""
    return replace(rep, width=rep.width + 6.0 * rep.width_stderr)


def midpoint_high(rep, seen):
    """Every midpoint 6 of its stderr high: the lower bound's stderr and
    half the stderr of C*, which is the width's at C*."""
    se = (rep.lower_stderr ** 2 + 0.25 * rep.width_stderr ** 2) ** 0.5
    return replace(rep, lower_mean=rep.lower_mean + 6.0 * se)


def second_width_grows(result, seen):
    """The across-replication width at the second k, 6 of the four
    replication spreads above the first."""
    prev, cur, *rest = result.aggregates
    spread = prev.upper_std + prev.lower_std + cur.upper_std + cur.lower_std
    cur = replace(cur, width=prev.width + 6.0 * spread)
    return replace(result, aggregates=(prev, cur, *rest))


def direct_law_high(draws, seen):
    """The direct draws of the k-averaged law, 6 stderr of the difference
    of two such samples' means high."""
    if len(seen) != 2:
        return draws
    return draws + 6.0 * (2.0 * draws.var(ddof=1) / draws.size) ** 0.5


def first_sample_high(draws, seen):
    """The first law's X draws scaled up until their mean is 6 of its
    stderr high."""
    if len(seen) != 1:
        return draws
    se = draws.std(ddof=1) / draws.size ** 0.5
    return draws * (1.0 + 6.0 * se / draws.mean())


def first_ratio_high(draws, seen):
    """The first law's Y draws scaled up until log mean(Y/X) is 6 of its
    delta-method stderr high."""
    if len(seen) != 2:
        return draws
    ratio = draws / seen[0]
    se = ratio.std(ddof=1) / ratio.size ** 0.5 / ratio.mean()
    return draws * np.exp(6.0 * se)


def normals_high(rng, seen):
    """Every standard normal that the reparameterised z is drawn from, 6
    stderr of its mean high."""
    return SimpleNamespace(
        standard_normal=lambda n: rng.standard_normal(n) + 6.0 / n ** 0.5)


def normals_wide(rng, seen):
    """Every standard normal that the reparameterised z is drawn from
    scaled until its variance is 6 stderr of its variance high."""
    def standard_normal(n):
        return rng.standard_normal(n) * (1.0 + 6.0 * (2.0 / (n - 1)) ** 0.5) ** 0.5

    return SimpleNamespace(standard_normal=standard_normal)


CASES = [
    (verify.check_sandwich_order, bounds, "sandwich", upper_below_lower),
    (verify.check_k_monotonicity, bounds, "sandwich", last_lower_drops),
    (verify.check_gap_shrinkage, bounds, "sandwich", second_gap_grows),
    (verify.check_gamma_closed_form, bounds, "sandwich", gap_high),
    (verify.check_lognormal_midpoint, bounds, "sandwich_at_c_star",
     midpoint_high),
    (verify.check_sweep_shrinking, verify, "run_sweep", second_width_grows),
    (verify.check_k_averaged_law, verify, "sample", direct_law_high),
    (verify.check_dist_oracles, verify, "sample", first_sample_high),
    (verify.check_dist_oracles, verify, "sample", first_ratio_high),
    (verify.check_reparam_moments, verify, "generator", normals_high),
    (verify.check_reparam_moments, verify, "generator", normals_wide),
]


def case_id(case):
    """The check's name, with its plant's where the check has two."""
    check, *_, edit = case
    if sum(other[0] is check for other in CASES) > 1:
        return f"{check.__name__}-{edit.__name__}"
    return check.__name__


@pytest.mark.parametrize("check, owner, name, edit", CASES,
                         ids=[case_id(case) for case in CASES])
def test_a_defect_six_stderr_past_the_bound_fails(monkeypatch, check, owner,
                                                   name, edit):
    assert check(SEED, N).passed
    real, seen = getattr(owner, name), []

    def planted(*args):
        seen.append(real(*args))
        return edit(seen[-1], seen)

    monkeypatch.setattr(owner, name, planted)
    assert not check(SEED, N).passed
    assert seen
