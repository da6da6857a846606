#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is reported, with its
unit, on every workload in both modes; that no output check fails; that the
traced run removes its wrappers; that a raising sample source and an
exception escaping the CLI are counted as failed operations rather than
crashing the benchmark; that the last stdout line is the result object; and
that without the library sources the benchmark exits non-zero and prints no
result.  Exits 1 and lists the failures if any of these does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"selftest: FAIL {what}", file=sys.stderr)


def raise_boom(*args, **kwargs):
    raise RuntimeError("injected failure")


def check_metric_names(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            result = run.measure(workload, 1, 0, trace, size="tiny")
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(reported == declared,
                   f"{workload} trace={trace}: metrics differ from {key}: "
                   f"{sorted(set(reported) ^ set(declared))}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} trace={trace}: failed {result['failed']} "
                   f"of {result['attempted']} checks")


def check_wrappers_removed(gs) -> None:
    patched = [name for name, fn in (
        ("sweep.sample", gs.sweep.sample), ("vae.generator", gs.vae.generator),
        ("cli.main", gs.cli.main), ("vae.evaluate", gs.vae.evaluate),
        ("RunManifest.write", gs.manifest.RunManifest.write),
    ) if hasattr(fn, "__wrapped__")]
    expect(not patched, f"wrappers left installed: {patched}")


def check_failures_counted(gs) -> None:
    # The sweep wraps a raising source in its own error class and exits 3;
    # a raising training loop escapes cli.main as a RuntimeError.
    for workload, owner, attr in (("sweep-gamma", gs.sweep, "sample"),
                                  ("case-study", gs.vae, "train")):
        original = getattr(owner, attr)
        setattr(owner, attr, raise_boom)
        try:
            result = run.measure(workload, 1, 0, False, size="tiny")
        finally:
            setattr(owner, attr, original)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: a raising {attr} was not counted as a failure")


def check_command_line() -> None:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload",
            "sweep-lognormal", "--seed", "2", "--seconds", "0", "--trace", "0",
            "--size", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {}
    expect(proc.returncode == 0
           and set(last) == {"correct", "attempted", "failed", "metrics"},
           f"run.py exited {proc.returncode}, last line {lines[-1:]}")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="bare-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv[1] = f"{bare}/perfbench/run.py"
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                              cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources run.py exited {proc.returncode} "
           f"and printed {proc.stdout.strip()[:80]!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec)
    gs = run.import_library()
    check_wrappers_removed(gs)
    check_failures_counted(gs)
    check_command_line()
    print(f"selftest: {'FAIL' if failures else 'ok'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
