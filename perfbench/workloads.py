"""The benchmark workloads and the checks on their outputs.

Each workload is a list of gapsandwich CLI commands run in-process through
`cli.main` into a scratch directory.  `prepare` builds the commands from the
seed (the setup step); `run_iteration` runs them once, times each command,
and checks the outputs.  Sizes are part of the workload definition; the
`tiny` size exists only for the self-test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
import time
from dataclasses import dataclass

# Closed forms the outputs are checked against, written out here rather
# than read from the library under test.
LOG_MEAN = {
    "gamma:a=2,theta=1": math.log(2.0),                # log(a * theta)
    "lognormal:m=0,sigma=1.5": 0.0 + 0.5 * 1.5 ** 2,   # m + sigma^2 / 2
}
LAPLACE_LOGLIK = -(1.0 + math.log(2.0 * 0.2))          # -(1 + ln 2b), b = 0.2

SWEEPS = {
    "sweep-gamma": {
        "full": dict(dist="gamma:a=2,theta=1", n=1_000_000, k="1,4,16", reps=3),
        "tiny": dict(dist="gamma:a=2,theta=1", n=2_000, k="1,4,16", reps=2),
    },
    "sweep-lognormal": {
        "full": dict(dist="lognormal:m=0,sigma=1.5", n=250_000, k="1,4,16,64",
                     reps=3),
        "tiny": dict(dist="lognormal:m=0,sigma=1.5", n=2_000, k="1,4,16,64",
                     reps=2),
    },
}
# Extra flags for the case-study commands; `full` is the CLI defaults, as
# in scripts/laplace_case_study.py.  Training runs at the script's default
# seed, the model acceptance criterion 7 describes; the benchmark seed drives
# the evaluation (its data and its draws).  Criterion 7's interval range is
# not met at every training seed: seed 21 gives a k = 64 lower bound of -0.26.
CASE_STUDY_TRAIN_SEED = "1234"
CASE_STUDY = {
    "full": dict(train=[], cnet=[], eval=[]),
    "tiny": dict(train=["--epochs", "1000", "--n", "2000"],
                 cnet=["--epochs", "10", "--n", "500"],
                 eval=["--n", "1000"]),
}
WORKLOADS = ("sweep-gamma", "sweep-lognormal", "case-study")
SIZES = ("full", "tiny")


@dataclass
class Tally:
    """Output checks: each check is one operation, attempted or failed."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Iteration:
    wall_s: float
    stage_s: dict[str, float]
    digests: dict[str, str]
    width: float = 0.0


def prepare(workload: str, size: str, seed: int,
            workdir: str) -> list[tuple[str, list[str]]]:
    """The (stage name, CLI argv) list of one iteration."""
    def out(name: str) -> str:
        return os.path.join(workdir, name)

    s = str(seed)
    if workload in SWEEPS:
        p = SWEEPS[workload][size]
        return [("analytic", [
            "analytic", "--dist", p["dist"], "--k", p["k"], "--n", str(p["n"]),
            "--replications", str(p["reps"]), "--c-policy", "pilot-optimal",
            "--seed", s, "--out", out("sweep.csv")])]
    if workload == "case-study":
        extra = CASE_STUDY[size]
        model, cnet = out("vae.ckpt"), out("cnet.ckpt")
        return [
            ("vae-train", ["vae", "train", "--seed", CASE_STUDY_TRAIN_SEED,
                           "--out", model, "--loss-out", out("train_loss.csv"),
                           *extra["train"]]),
            ("vae-train-cnet", ["vae", "train-cnet", "--seed", CASE_STUDY_TRAIN_SEED,
                                "--model", model, "--out", cnet,
                                "--loss-out", out("cnet_loss.csv"), *extra["cnet"]]),
            ("vae-eval", ["vae", "eval", "--seed", s, "--model", model,
                          "--c", f"cnet:{cnet}", "--k", "64",
                          "--k-sweep", "1,2,4,8,16,32,64", "--emit-gnuplot",
                          "--out", out("eval_records.csv"), *extra["eval"]]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_iteration(cli_main, workload: str, size: str, seed: int, workdir: str,
                  tally: Tally) -> Iteration:
    """Run the workload's commands once, then check what they wrote.

    A command that raises or exits non-zero is one failed check, and the
    commands after it are skipped.
    """
    stage_s: dict[str, float] = {}
    captured = io.StringIO()
    started = time.perf_counter()
    for stage, argv in prepare(workload, size, seed, workdir):
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        stage_s[stage] = time.perf_counter() - t0
        if not tally.check(code == 0, f"{workload} {stage} exited {code!r}"):
            sys.stderr.write(captured.getvalue())
            return Iteration(time.perf_counter() - started, stage_s, {})
    wall_s = time.perf_counter() - started
    sys.stderr.write(captured.getvalue())

    digests = {
        name: _sha256(os.path.join(workdir, name))
        for name in sorted(os.listdir(workdir)) if name.endswith(".csv")
    }
    width = 0.0
    try:
        if workload in SWEEPS:
            width = check_sweep(os.path.join(workdir, "sweep.csv"),
                                SWEEPS[workload][size]["dist"], tally)
        else:
            check_case_study(os.path.join(workdir, "eval_records.csv"), tally)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.check(False, f"{workload} outputs unreadable: {exc}")
    return Iteration(wall_s, stage_s, digests, width)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sweep(path: str, dist: str, tally: Tally) -> float:
    """Per cell: finite bounds, lower <= log E X + 3 se, upper >= log E X -
    3 se.  Per replication and adjacent k: the width does not grow by more
    than 3 joint stderr (the rule of acceptance criterion 4).  Returns the
    mean width over replications at the largest k."""
    log_mean = LOG_MEAN[dist]
    cells: dict[tuple[int, int], dict[str, float]] = {}
    for row in _rows(path):
        key = (int(row["k"]), int(row["replication"]))
        cell = {name: float(row[name]) for name in
                ("lower_mean", "lower_stderr", "upper_mean", "upper_stderr")}
        cells[key] = cell
        lo, lo_se = cell["lower_mean"], cell["lower_stderr"]
        up, up_se = cell["upper_mean"], cell["upper_stderr"]
        tally.check(math.isfinite(lo) and math.isfinite(up),
                    f"{dist} k={key[0]} rep={key[1]}: non-finite bound")
        tally.check(lo <= log_mean + 3.0 * lo_se,
                    f"{dist} k={key[0]} rep={key[1]}: lower {lo} above log E X")
        tally.check(up >= log_mean - 3.0 * up_se,
                    f"{dist} k={key[0]} rep={key[1]}: upper {up} below log E X")
    ks = sorted({k for k, _ in cells})
    reps = sorted({r for _, r in cells})
    for rep in reps:
        for ka, kb in zip(ks, ks[1:]):
            a, b = cells[(ka, rep)], cells[(kb, rep)]
            slack = 3.0 * (a["lower_stderr"] + a["upper_stderr"]
                           + b["lower_stderr"] + b["upper_stderr"])
            width_a = a["upper_mean"] - a["lower_mean"]
            width_b = b["upper_mean"] - b["lower_mean"]
            tally.check(width_b <= width_a + slack,
                        f"{dist} rep={rep}: width grows from k={ka} to k={kb}")
    top = [cells[(ks[-1], rep)] for rep in reps]
    return sum(c["upper_mean"] - c["lower_mean"] for c in top) / len(top)


def check_case_study(records_path: str, tally: Tally) -> None:
    """Acceptance criterion 7 at k = 64: width <= 0.02 inside [-0.25, -0.05],
    lower <= upper, ELBO <= lower, upper below the data log-likelihood."""
    with open(records_path, encoding="utf-8") as fh:
        summary = fh.read().rstrip("\n").rsplit("\n", 1)[-1].split(",")
    lower, upper = float(summary[1]), float(summary[2])
    sweep = {int(r["k"]): r for r in _rows(records_path + ".ksweep.csv")}
    elbo = float(sweep[64]["elbo"])
    tally.check(lower <= upper, f"case-study k=64: lower {lower} > upper {upper}")
    tally.check(upper - lower <= 0.02, f"case-study k=64 width {upper - lower} > 0.02")
    tally.check(-0.25 <= lower and upper <= -0.05,
                f"case-study k=64 [{lower}, {upper}] outside [-0.25, -0.05]")
    tally.check(elbo <= lower + 1e-12, f"case-study k=64 ELBO {elbo} > lower {lower}")
    tally.check(upper <= LAPLACE_LOGLIK,
                f"case-study k=64 upper {upper} > log-likelihood {LAPLACE_LOGLIK}")

