"""A seed's values on another SIMD dispatch.

numpy picks its log, exp and log1p kernels by CPU at import, and they round
differently, so a seed's output bits hold on one dispatch only (README,
"Manifests").  The values must still agree: a tiny Gamma(2, 1) sweep, a
short `train` and an `evaluate` run here and in a child process whose
numpy has every dispatched group above the baseline switched off with
NPY_DISABLE_CPU_FEATURES, and every value the child reports must match
this process's to RTOL.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import gapsandwich
from gapsandwich.distributions import Gamma, Laplace, sample
from gapsandwich.manifest import numpy_runtime
from gapsandwich.sweep import SweepConfig, run_sweep
from gapsandwich.vae import CNet, Objective, ToyVae, evaluate, train

# On an AVX-512 machine (numpy 2.4.6, baseline X86_V2, dispatched X86_V3,
# X86_V4, AVX512_ICL, AVX512_SPR), switching the four groups off moved 28
# of the 146 reported values, by at most 6.7e-15 relative (train: 3 values,
# 1.6e-15; evaluate: 25, 6.7e-15; the sweep's means absorb the one-ulp
# changes in single logs).  RTOL is 150 times that spread, while a changed
# stream or formula moves these values by 1e-4 or more.
RTOL = 1e-12


def report() -> dict[str, list[float]]:
    """Every value a tiny sweep, train and evaluate report, as floats."""
    cfg = SweepConfig(k_values=(1, 4), n_pairs=2000, replications=2, base_seed=3)
    rows = run_sweep(Gamma(2.0, 1.0), cfg, threads=1).rows
    sweep = [v for row in rows for v in (
        row.report.lower_mean, row.report.lower_stderr, row.report.upper_mean,
        row.report.upper_stderr, row.report.ratio_mean, row.report.c_used,
        row.report.midpoint)]
    data = sample(Laplace(0.0, 0.2), 400, 5)
    fit = train(ToyVae.init(7), data, Objective("elbo"), epochs=2, batch=20,
                lr=0.01, seed=8)
    result = evaluate(fit.model, CNet.init(9), data[:40], k=4, seed=10)
    return {
        "sweep": sweep,
        "train": [*fit.loss_history, *fit.model.params.tolist()],
        "evaluate": [result.report.lower_mean, result.report.upper_mean,
                     result.report.lower_stderr, result.report.upper_stderr,
                     result.elbo,
                     *result.s.tolist(), *result.S.tolist()],
    }


_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from gapsandwich.manifest import numpy_runtime
from test_cross_dispatch import report
print(json.dumps({"dispatched": numpy_runtime()["simd_dispatched"],
                  "values": report()}))
"""


def test_values_match_with_simd_dispatch_off():
    groups = numpy_runtime()["simd_dispatched"]
    if not groups:
        pytest.skip("numpy dispatches no SIMD group above its baseline on "
                    "this CPU, so there is no other dispatch to compare with")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups),
               PYTHONPATH=os.path.dirname(os.path.dirname(gapsandwich.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.dirname(__file__)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    child = json.loads(proc.stdout)
    assert child["dispatched"] == []
    here = report()
    assert set(child["values"]) == set(here)
    for name, values in here.items():
        theirs = child["values"][name]
        assert len(theirs) == len(values), name
        for i, (a, b) in enumerate(zip(values, theirs)):
            assert math.isfinite(a) and math.isfinite(b), (name, i)
            assert b == pytest.approx(a, rel=RTOL, abs=0.0), (name, i)
