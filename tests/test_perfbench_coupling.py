"""The traced benchmark wraps library functions by name and binds some of
their parameters by name, and its workloads run CLI commands: a rename it
does not follow breaks `perfbench/run.py`.  These tests run its tracer, read
from perfbench/spans.py as it is, on a tiny sweep and on a tiny C-network fit
and evaluation, and parse every command that perfbench/workloads.py builds."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gapsandwich import bounds, cli, distributions, manifest, rng, samples, sweep, vae

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GS = SimpleNamespace(bounds=bounds, cli=cli, distributions=distributions,
                     manifest=manifest, rng=rng, samples=samples, sweep=sweep,
                     vae=vae)


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_sweep_layers_and_repeats():
    spans = load_bench("spans")
    # A k = 1 cell fits one chunk and is drawn as two halves; a k = 64 cell
    # takes two chunks.  They run on two workers.
    n_pairs = sweep.CHUNK_FLOATS // 128 + 5
    cfg = sweep.SweepConfig(k_values=(1, 64), n_pairs=n_pairs,
                            replications=2, base_seed=3)
    originals = (sweep.sample, sweep.paired_from_halves, sweep._run_cell)
    tracer = spans.Tracer()
    counts = []
    tracer.install(GS)
    try:
        for run in range(2):
            tracer.start_run(f"run-{run}")
            sweep.run_sweep(distributions.Gamma(2.0, 1.0), cfg, threads=2)
            tracer.end_run()
            counts.append(dict(tracer.counts))
    finally:
        tracer.uninstall()
    assert (sweep.sample, sweep.paired_from_halves, sweep._run_cell) == originals
    for c in counts:
        # Each of the 2 x 2 (k, replication) cells pairs n_pairs pairs from
        # its 2 k n_pairs draws.
        assert c["samples.pairs"] == 4 * n_pairs == c["sweep.pairs_drawn"]
        assert c["distributions.draws"] == 2 * (2 * 1 + 2 * 64) * n_pairs
        # One generator per chunk: two for each of the four cells.
        assert c["rng.generators"] == 8


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_workload_command_parses(size, tmp_path):
    workloads = load_bench("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for _, argv in workloads.prepare(workload, size, 1, str(tmp_path)):
            assert callable(parser.parse_args(argv).func), argv


def test_tracer_counts_the_vae_passes_and_repeats():
    spans = load_bench("spans")
    originals = (vae.train_cnet, vae.evaluate, vae.generator, rng.generator)
    model = vae.ToyVae.init(1)
    data = np.linspace(-1.0, 1.0, 2 * vae.CHUNK_POINTS + 3)
    tracer = spans.Tracer()
    counts, names = [], []
    tracer.install(GS)
    try:
        for run in range(2):
            tracer.start_run(f"run-{run}")
            fit = vae.train_cnet(vae.CNet.init(2), model, data, k=2, n_pairs=2,
                                 epochs=2, lr=0.1, seed=3)
            vae.evaluate(model, fit.cnet, data, k=4, seed=4)
            names.append({span[3] for span in tracer.end_run()})
            counts.append(dict(tracer.counts))
    finally:
        tracer.uninstall()
    assert (vae.train_cnet, vae.evaluate, vae.generator, rng.generator) == originals
    watched = ("vae.cnet.log_ratios", "vae.evaluate.log_ratios", "rng.generators")
    first, second = ({name: c.get(name, 0) for name in watched} for c in counts)
    assert first == second
    assert first["vae.cnet.log_ratios"] == 2 * data.size * 2 * 2 * 2
    assert first["vae.evaluate.log_ratios"] == data.size * 2 * 4
    assert first["rng.generators"] > 0
    assert {"vae.cnet", "vae.evaluate.k4", "rng.generator"} <= names[0] == names[1]
