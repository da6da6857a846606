#!/usr/bin/env python3
"""gapsandwich benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep-gamma --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  With `--trace 0` it repeats the workload until
`--seconds` have passed and reports the end-to-end metrics (median wall
time, set-up time, peak RSS).  With `--trace 1` it runs the workload once
untraced and at least twice with span wrappers installed, and reports the
per-layer metrics.  Every output is checked; the last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Scratch outputs, the trace file and the environment record go to
`.perfbench_out/` at the checkout root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREADS_ENV = "GAPSANDWICH_THREADS"
SETUP_PROBES = 11
MIN_TRACED = 2

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import SWEEPS, Tally  # noqa: E402

# Set-up as a fresh process sees it: interpreter start, library import, the
# scratch directory and the workload's commands.
SETUP_PROBE = """
import shutil, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import gapsandwich.cli
import workloads
workdir = tempfile.mkdtemp(dir={out!r}, prefix="setup-")
workloads.prepare({workload!r}, {size!r}, {seed!r}, workdir)
print("ready", flush=True)
shutil.rmtree(workdir)
"""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name == "sweep.pair_yield":
        return "ratio"
    if name == "sweep.width":
        return "nat"
    return "count"


def import_library() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gapsandwich
    from gapsandwich import (bounds, cli, distributions, manifest, rng,
                             samples, sweep, vae)

    if Path(gapsandwich.__file__).resolve().parent != SRC / "gapsandwich":
        raise ImportError(f"gapsandwich imported from {gapsandwich.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(
        gapsandwich=gapsandwich, bounds=bounds, cli=cli,
        distributions=distributions, manifest=manifest, rng=rng,
        samples=samples, sweep=sweep, vae=vae)


def environment(gs: SimpleNamespace, threads_env: str | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD").strip()
            dirty = bool(_git("status", "--porcelain").strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "gapsandwich": gs.gapsandwich.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "threads_env_removed": threads_env,
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True, timeout=30).stdout


def probe_setup(workload: str, size: str, seed: int, tally: Tally) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    program = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), out=str(OUT),
                                 workload=workload, size=size, seed=seed)
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", program],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    tally.check(line.strip() == "ready" and code == 0,
                f"set-up probe exited {code} after {line.strip()!r}")
    return elapsed


def run_once(gs, workload: str, size: str, seed: int,
             tally: Tally) -> workloads.Iteration:
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as workdir:
        return workloads.run_iteration(gs.cli.main, workload, size, seed,
                                       workdir, tally)


def check_same_outputs(base: workloads.Iteration, others, tally: Tally,
                       what: str) -> None:
    """Compare CSV digests of completed iterations (a failed command is
    already counted)."""
    for i, other in enumerate(others):
        if base.digests and other.digests:
            tally.check(other.digests == base.digests,
                        f"{what} {i}: CSV digests differ from the first run")


def measure_untraced(gs, workload: str, size: str, seed: int, seconds: float,
                     tally: Tally) -> dict[str, tuple[float, str]]:
    setup = [probe_setup(workload, size, seed, tally) for _ in range(SETUP_PROBES)]
    run_once(gs, workload, "tiny", seed, Tally())  # warm-up, not counted
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(run_once(gs, workload, size, seed, tally))
    check_same_outputs(runs[0], runs[1:], tally, "repeat")
    walls = [run.wall_s for run in runs]
    print(f"perfbench: {workload} over {len(runs)} runs: wall_s {sorted(walls)} "
          f"setup_s {sorted(setup)}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def measure_traced(gs, workload: str, size: str, seed: int, seconds: float,
                   tally: Tally, env: dict) -> dict[str, tuple[float, str]]:
    run_once(gs, workload, "tiny", seed, Tally())  # warm-up, not counted
    base = run_once(gs, workload, size, seed, tally)
    tracer = spans.Tracer(track_alloc=workload in SWEEPS)
    traced = []
    tracer.install(gs)
    try:
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
            tracer.start_run(f"{workload}-{seed}-{len(traced)}")
            try:
                run = run_once(gs, workload, size, seed, tally)
            finally:
                run_spans = tracer.end_run()
            traced.append((run, run_spans, Counter(tracer.counts),
                           list(tracer.cell_peaks)))
    finally:
        tracer.uninstall()
        tracer.write(str(OUT / f"trace-{workload}.csv"), "# " + json.dumps(env))

    check_same_outputs(base, [run for run, *_ in traced], tally, "traced run")
    for name in spans.EXACT_COUNTERS:
        values = [counts[name] for _, _, counts, _ in traced]
        tally.check(len(set(values)) == 1, f"count {name} varies: {values}")

    per_run = [spans.layer_metrics(s, c, p) for _, s, c, p in traced]
    metrics = {name: statistics.median(m[name] for m in per_run)
               for name in per_run[0]}
    metrics["sweep.width"] = base.width
    for stage in ("vae-train", "vae-train-cnet", "vae-eval"):
        metrics[f"cli.{stage}_s"] = base.stage_s.get(stage, 0.0)
    traced_wall = statistics.median(run.wall_s for run, *_ in traced)
    metrics["trace.overhead_s"] = traced_wall - base.wall_s
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result object printed by `main`."""
    threads_env = os.environ.pop(THREADS_ENV, None)  # library default applies
    gs = import_library()
    OUT.mkdir(exist_ok=True)
    env = environment(gs, threads_env)
    (OUT / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    print("perfbench env " + json.dumps(env), file=sys.stderr)

    tally = Tally()
    if trace:
        metrics = measure_traced(gs, workload, size, seed, seconds, tally, env)
    else:
        metrics = measure_untraced(gs, workload, size, seed, seconds, tally)
    print(f"perfbench: {workload} checks attempted={tally.attempted} "
          f"failed={tally.failed} failed_frac={tally.failed / tally.attempted}",
          file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help=argparse.SUPPRESS)  # tiny: self-test only
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "gapsandwich" / "__init__.py").is_file():
        print(f"perfbench: no gapsandwich sources in {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
