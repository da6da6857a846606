"""The traced benchmark wraps library functions by name: a rename it does not
follow breaks `perfbench/run.py --trace 1`.  This runs its tracer, read from
perfbench/spans.py as it is, on a tiny C-network fit and evaluation."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gapsandwich import bounds, cli, distributions, manifest, rng, samples, sweep, vae

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_vae_passes_and_repeats():
    spans = load_spans()
    gs = SimpleNamespace(bounds=bounds, cli=cli, distributions=distributions,
                         manifest=manifest, rng=rng, samples=samples, sweep=sweep,
                         vae=vae)
    originals = (vae.train_cnet, vae.evaluate, vae.generator, rng.generator)
    model = vae.ToyVae.init(1)
    data = np.linspace(-1.0, 1.0, 2 * vae.CHUNK_POINTS + 3)
    tracer = spans.Tracer()
    counts, names = [], []
    tracer.install(gs)
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
