"""Power tests for verify's statistical gates.

Each property passes at a pinned seed and a reduced n, and fails when a
defect is planted about 6 of its own stderr past its bound: a result of the
estimator it reads is moved there on its way to the property.  A gate
loosened tenfold, 30 stderr for 3, would pass the plant, so these tests pin
each gate's strength without pinning its slack.  vae-bound-chain has its
own, tests/test_vae.py::TestBoundChain.
"""

from dataclasses import replace

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
    cur = replace(cur, upper_mean=cur.lower_mean + prev.width + 6.0 * spread)
    return replace(result, aggregates=(prev, cur, *rest))


CASES = [
    (verify.check_sandwich_order, bounds, "sandwich", upper_below_lower),
    (verify.check_k_monotonicity, bounds, "sandwich", last_lower_drops),
    (verify.check_gap_shrinkage, bounds, "sandwich", second_gap_grows),
    (verify.check_gamma_closed_form, bounds, "sandwich", gap_high),
    (verify.check_lognormal_midpoint, bounds, "sandwich_at_c_star",
     midpoint_high),
    (verify.check_sweep_shrinking, verify, "run_sweep", second_width_grows),
]


@pytest.mark.parametrize("check, owner, name, edit", CASES,
                         ids=[case[0].__name__ for case in CASES])
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
