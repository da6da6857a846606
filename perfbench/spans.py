"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the gapsandwich modules at run time:
it replaces every module-level reference to a function (and class methods)
with a wrapper that records a span and bumps counters, and puts the
originals back on `uninstall`.  Nothing
under `src/` is edited.

A span is (run id, span id, parent span id, name, start ns, end ns).  The
parent is the innermost open span of the same thread, so work on threads the
program starts opens new root spans.  A span's self time is its duration
minus the durations of its direct children.  Counts are computed from call
arguments and results at the same boundaries, not reported by the program.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

EVAL_KS = (1, 2, 4, 8, 16, 32, 64)

# Counters that must repeat exactly between two traced iterations.
EXACT_COUNTERS = (
    "rng.generators", "distributions.draws", "samples.pairs",
    "samples.bytes_computed", "bounds.pairs", "bounds.saturated_pairs",
    "sweep.pairs_drawn", "sweep.pairs_bounded", "sweep.csv_bytes",
    "manifest.bytes_hashed", "vae.train.steps", "vae.cnet.log_ratios",
    "vae.evaluate.log_ratios", "vae.evaluate.saturated",
)


class Tracer:
    """Collects spans and counters for one traced iteration at a time."""

    def __init__(self, track_alloc: bool = False) -> None:
        self.track_alloc = track_alloc
        self.spans: list[tuple[str, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.cell_peaks: list[int] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()  # cells may run on pool threads
        self._first_span = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def start_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.counts = Counter()
        self.cell_peaks = []
        self._first_span = len(self.spans)
        if self.track_alloc:
            tracemalloc.start()

    def end_run(self) -> list[tuple[str, int, int, str, int, int]]:
        if self.track_alloc:
            tracemalloc.stop()
        return self.spans[self._first_span:]

    def wrap(self, name, fn, on_exit=None, on_enter=None, name_of=None,
             bind=False):
        """Span-recording wrapper around `fn`.

        on_exit(tracer, result, call, entered) updates counters after a call
        that returned; `call` is the argument dict when `bind` is set, else
        the positional tuple.  on_enter() runs before the call and its value
        is passed on as `entered`.  name_of(result) renames the span from the
        result; a call that raises keeps the static name.
        """
        tracer = self
        signature = inspect.signature(fn) if bind else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            entered = on_enter() if on_enter else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, start, stack)
                raise
            span_name = name_of(result) if name_of else name
            tracer._close(sid, parent, span_name, start, stack)
            if on_exit is not None:
                call = signature.bind(*args, **kwargs).arguments if bind else args
                with tracer._count_lock:
                    on_exit(tracer, result, call, entered)
            return result

        return wrapper

    def _close(self, sid, parent, name, start, stack) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        self.spans.append((self.run_id, sid, parent, name, start, end))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installing wrappers ------------------------------------------------

    def patch_function(self, original, wrapper) -> None:
        """Replace every gapsandwich module-level reference to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gapsandwich"
                                   or mod_name.startswith("gapsandwich.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self, gs) -> None:
        """Wrap the public entry points of every layer; `gs` is a namespace
        holding the imported gapsandwich modules."""
        def fn(module, attr, name, **kw):
            original = getattr(module, attr)
            self.patch_function(original, self.wrap(name, original, **kw))

        fn(gs.rng, "generator", "rng.generator", on_exit=_count_generator)
        fn(gs.distributions, "sample", "distributions.sample",
           on_exit=_count_draws)
        fn(gs.samples, "paired_from_halves", "samples.pair",
           on_exit=_count_pairs, bind=True)
        fn(gs.bounds, "sandwich", "bounds.sandwich", on_exit=_count_bounds)
        fn(gs.sweep, "_run_cell", "sweep.cell", on_exit=self._count_cell,
           on_enter=self._enter_cell if self.track_alloc else None, bind=True)
        fn(gs.sweep, "write_sweep_csv", "sweep.csv_write",
           on_exit=_count_csv, bind=True)
        fn(gs.vae, "train", "vae.train", on_exit=_count_train, bind=True)
        fn(gs.vae, "train_cnet", "vae.cnet", on_exit=_count_cnet, bind=True)
        fn(gs.vae, "evaluate", "vae.evaluate", on_exit=_count_evaluate,
           name_of=lambda res: f"vae.evaluate.k{res.records[0].k}")
        for attr in ("save_model", "load_model", "save_cnet", "load_cnet"):
            fn(gs.vae, attr, "vae.checkpoint")
        fn(gs.cli, "main", "cli.main")
        manifest_cls = gs.manifest.RunManifest
        self.patch_method(manifest_cls, "add_output", self.wrap(
            "manifest.write", manifest_cls.add_output, on_exit=_count_hashed,
            bind=True))
        self.patch_method(manifest_cls, "write",
                          self.wrap("manifest.write", manifest_cls.write))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- sweep cells: pair yield and per-cell allocation peak ----------------

    def _enter_cell(self) -> int:
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def _count_cell(self, tracer, row, call, entered) -> None:
        self.counts["sweep.pairs_drawn"] += call["cfg"].n_pairs
        self.counts["sweep.pairs_bounded"] += row.report.n
        if entered is not None:
            self.cell_peaks.append(tracemalloc.get_traced_memory()[1] - entered)

    # -- trace file ---------------------------------------------------------

    def write(self, path: str, header: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


def _count_generator(tracer, result, call, entered) -> None:
    tracer.counts["rng.generators"] += 1


def _count_draws(tracer, result, call, entered) -> None:
    tracer.counts["distributions.draws"] += int(result.size)


def _count_pairs(tracer, result, call, entered) -> None:
    tracer.counts["samples.pairs"] += result.n
    # Read the raw draws once, write two vectors of block means.
    raw_size = int(getattr(call["raw"], "size", len(call["raw"])))
    tracer.counts["samples.bytes_computed"] += 8 * (raw_size + 2 * result.n)


def _count_bounds(tracer, report, call, entered) -> None:
    tracer.counts["bounds.pairs"] += report.n
    tracer.counts["bounds.saturated_pairs"] += report.saturated_pairs


def _count_csv(tracer, result, call, entered) -> None:
    tracer.counts["sweep.csv_bytes"] += os.path.getsize(call["path"])


def _count_hashed(tracer, result, call, entered) -> None:
    tracer.counts["manifest.bytes_hashed"] += os.path.getsize(call["path"])


def _count_train(tracer, result, call, entered) -> None:
    batches = math.ceil(len(call["data"]) / call["batch"])
    tracer.counts["vae.train.steps"] += call["epochs"] * batches


def _count_cnet(tracer, result, call, entered) -> None:
    # Two k-tuples per pair, n_pairs pairs per datapoint, a pass per epoch.
    tracer.counts["vae.cnet.log_ratios"] += (
        call["epochs"] * len(call["data"]) * call["n_pairs"] * 2 * call["k"])


def _count_evaluate(tracer, result, call, entered) -> None:
    k = result.records[0].k
    tracer.counts["vae.evaluate.log_ratios"] += len(result.records) * 2 * k
    tracer.counts["vae.evaluate.saturated"] += result.saturated


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name, summed over spans."""
    child_ns: defaultdict[tuple[str, int], int] = defaultdict(int)
    for run_id, _, parent, _, start, end in spans:
        if parent:
            child_ns[(run_id, parent)] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for run_id, sid, _, name, start, end in spans:
        out[name] += (end - start - child_ns[(run_id, sid)]) / 1e9
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans, counts: Counter, cell_peaks: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, by metric name."""
    own = self_times(spans)
    c = counts
    eval_s = sum(own[f"vae.evaluate.k{k}"] for k in EVAL_KS)
    m = {
        "distributions.sample_s": own["distributions.sample"],
        "distributions.draws": c["distributions.draws"],
        "distributions.draws_per_s": _ratio(c["distributions.draws"],
                                          own["distributions.sample"]),
        "samples.pair_s": own["samples.pair"],
        "samples.pairs": c["samples.pairs"],
        "samples.bytes_computed": c["samples.bytes_computed"],
        "bounds.sandwich_s": own["bounds.sandwich"],
        "bounds.pairs_per_s": _ratio(c["bounds.pairs"], own["bounds.sandwich"]),
        "bounds.saturated_pairs": c["bounds.saturated_pairs"],
        "sweep.cell_self_s": own["sweep.cell"],
        "sweep.pair_yield": _ratio(c["sweep.pairs_bounded"], c["sweep.pairs_drawn"]),
        "sweep.peak_alloc_mb": max(cell_peaks, default=0) / 2**20,
        "sweep.csv_write_s": own["sweep.csv_write"],
        "sweep.csv_bytes": c["sweep.csv_bytes"],
        "manifest.write_s": own["manifest.write"],
        "manifest.bytes_hashed": c["manifest.bytes_hashed"],
        "vae.train_s": own["vae.train"],
        "vae.train.steps": c["vae.train.steps"],
        "vae.train.step_us": 1e6 * _ratio(own["vae.train"], c["vae.train.steps"]),
        "vae.cnet_s": own["vae.cnet"],
        "vae.cnet.log_ratios": c["vae.cnet.log_ratios"],
        "vae.cnet.log_ratios_per_s": _ratio(c["vae.cnet.log_ratios"], own["vae.cnet"]),
    }
    for k in EVAL_KS:
        m[f"vae.evaluate.k{k}_s"] = own[f"vae.evaluate.k{k}"]
    m["vae.evaluate.log_ratios_per_s"] = _ratio(c["vae.evaluate.log_ratios"], eval_s)
    m["vae.evaluate.saturated"] = c["vae.evaluate.saturated"]
    m["vae.checkpoint_io_s"] = own["vae.checkpoint"]
    m["rng.generators"] = c["rng.generators"]
    m["rng.generator_s"] = own["rng.generator"]
    m["cli.self_s"] = own["cli.main"]
    return m
