"""Command-line front end.

Subcommands: `analytic` (bound sweeps on analytic distributions), `verify`
(the cross-module invariant suite) and `vae train | train-cnet | eval` (the
toy VAE pipeline).  Option precedence is flags > config file > defaults;
stdout carries one final summary line, diagnostics go to stderr.

Exit codes: 0 ok, 1 verify failure, 2 parse/argument error, 3 numeric
failure, 4 missing/corrupt checkpoint, 5 training divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, vae
from .distributions import parse_dist, sample
from .errors import (
    CheckpointError,
    DivergenceDetected,
    GapSandwichError,
    InvalidParams,
    ParseError,
    ShapeMismatch,
)
from .manifest import RunManifest, manifest_path_for
from .rng import derive_key
from .sweep import (
    CPolicy,
    SweepConfig,
    dist_source,
    run_sweep,
    write_sweep_csv,
)
from .verify import run_verify, verify_csv_lines

# Defaults for the synthetic 1-D case study.  The decoder variance and
# learning rate differ from the large-image training recipe: with variance
# 0.3 the per-point log-density is capped at -0.5*ln(2*pi*0.3) ~ -0.317, too
# low for this dataset, and SGD at 1e-7 cannot leave the init basin in any
# reasonable epoch budget.  Both remain plain flags.
TRAIN_DEFAULTS = {
    "data": "laplace:loc=0,b=0.2",
    "objective": "elbo",
    "epochs": 2000,
    "batch": 1000,
    "lr": 0.05,
    "n": 10000,
    "decoder_var": 0.04,
    "seed": 1234,
}

EVAL_RECORD_HEADER = "x,s,S,c,k"
EVAL_SWEEP_HEADER = "k,n,lower,lower_stderr,upper,upper_stderr,elbo,saturated"


def _echo(line: str) -> None:
    print(line)


def _diag(line: str) -> None:
    print(line, file=sys.stderr)


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = line.partition("=")
                if not eq:
                    raise ParseError(
                        f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                    )
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    return out


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge parsed flags (None = not given) with config file and defaults."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        text = config.pop(key, None)
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif text is not None:
            if isinstance(default, bool):
                word = text.lower()
                if word not in _TRUE_WORDS + _FALSE_WORDS:
                    raise ParseError(
                        f"config key {key!r} is not a boolean: {text!r}; expected "
                        f"one of {', '.join(_TRUE_WORDS + _FALSE_WORDS)}"
                    )
                resolved[key] = word in _TRUE_WORDS
            elif isinstance(default, int):
                try:
                    resolved[key] = int(text)
                except ValueError:
                    raise ParseError(f"config key {key!r} is not an integer: {text!r}")
            elif isinstance(default, float):
                try:
                    resolved[key] = float(text)
                except ValueError:
                    raise ParseError(f"config key {key!r} is not a decimal: {text!r}")
            else:
                resolved[key] = text
        else:
            resolved[key] = default
    if config:
        raise ParseError(f"unknown config key {sorted(config)[0]!r}")
    return resolved


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"key 'k' must be a comma list of integers: {text!r}")
    return ks


def _new_manifest(opts: dict, seed: int, started: float) -> RunManifest:
    return RunManifest(
        command_line=sys.argv[1:],
        config={k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                for k, v in opts.items()},
        base_seed=seed,
        version=__version__,
        wall_time_s=round(time.perf_counter() - started, 6),
    )


def _pair_manifest(csv_path: str, opts: dict, seed: int, started: float) -> None:
    manifest = _new_manifest(opts, seed, started)
    manifest.add_output(csv_path)
    manifest.write(manifest_path_for(csv_path))


def _write_gnuplot(csv_path: str, xcol: int, ycols: list[tuple[int, str]],
                   xlabel: str) -> str:
    path = csv_path + ".gnuplot"
    plots = ", ".join(
        f"'{csv_path}' using {xcol}:{col} with linespoints title '{label}'"
        for col, label in ycols
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key autotitle columnhead\n")
        fh.write("set logscale x 2\n")
        fh.write(f"set xlabel '{xlabel}'\n")
        fh.write(f"plot {plots}\n")
    return path


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

ANALYTIC_DEFAULTS = {
    "dist": "gamma:a=2,theta=1",
    "k": "1,2,4,8,16",
    "n": 100000,
    "replications": 5,
    "c_policy": "pilot-optimal",
    "seed": 1234,
    "out": "analytic.csv",
    "emit_gnuplot": False,
}


def cmd_analytic(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, ANALYTIC_DEFAULTS)
    dist = parse_dist(opts["dist"])
    cfg = SweepConfig(
        k_values=_parse_k_list(opts["k"]),
        n_pairs=opts["n"],
        replications=opts["replications"],
        base_seed=opts["seed"],
        c_policy=CPolicy.parse(opts["c_policy"]),
    )
    result = run_sweep(dist_source(dist), cfg)
    for row in result.rows:
        if not (math.isfinite(row.report.lower_mean)
                and math.isfinite(row.report.upper_mean)):
            raise GapSandwichError(
                f"non-finite bound at k={row.k} replication={row.replication}"
            )
    write_sweep_csv(opts["out"], result, dataset=dist.spec_string(), model="analytic")
    _pair_manifest(opts["out"], opts, opts["seed"], started)
    if opts["emit_gnuplot"]:
        _diag(f"gnuplot script: {_write_gnuplot(opts['out'], 3, [(7, 'lower'), (9, 'upper')], 'k')}")
    for agg in result.aggregates:
        _diag(
            f"k={agg.k} lower={agg.lower_mean:.6f}+-{agg.lower_std:.6f} "
            f"upper={agg.upper_mean:.6f}+-{agg.upper_std:.6f}"
        )
    _echo(
        f"analytic dist={dist.spec_string()} rows={len(result.rows)} out={opts['out']}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_DEFAULTS = {
    "seed": 1234,
    "quick": False,
    "out": "verify.csv",
}


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, VERIFY_DEFAULTS)
    results = run_verify(opts["seed"], quick=opts["quick"])
    for res in results:
        status = "pass" if res.passed else "FAIL"
        _diag(f"{status} {res.name} slack={res.slack:.6g}")
    with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(verify_csv_lines(results)) + "\n")
    _pair_manifest(opts["out"], opts, opts["seed"], started)
    passed = sum(res.passed for res in results)
    _echo(f"verify passed={passed}/{len(results)} out={opts['out']}")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# vae train / train-cnet / eval
# ---------------------------------------------------------------------------

def _load_data(spec: str, n: int, seed: int) -> np.ndarray:
    return sample(parse_dist(spec), n, seed)


def _write_loss_csv(path: str, history: list[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(history):
            fh.write(f"{epoch},{loss!r}\n")


def cmd_vae_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    defaults = dict(TRAIN_DEFAULTS, out="vae.ckpt", loss_out="vae_loss.csv")
    opts = _resolve(args, defaults)
    data = _load_data(opts["data"], opts["n"], derive_key(opts["seed"], 1))
    model = vae.ToyVae.init(derive_key(opts["seed"], 2), opts["decoder_var"])
    result = vae.train(
        model, data, vae.Objective.parse(opts["objective"]),
        epochs=opts["epochs"], batch=opts["batch"], lr=opts["lr"],
        seed=derive_key(opts["seed"], 3),
    )
    vae.save_model(opts["out"], result.model)
    _write_loss_csv(opts["loss_out"], result.loss_history)
    _pair_manifest(opts["loss_out"], opts, opts["seed"], started)
    final = result.loss_history[-1] if result.loss_history else math.nan
    _echo(
        f"vae-train objective={opts['objective']} epochs={opts['epochs']} "
        f"final_loss={final:.6f} out={opts['out']}"
    )
    return 0


CNET_DEFAULTS = {
    "data": TRAIN_DEFAULTS["data"],
    "k": 64,
    "n_pairs": 4,
    "epochs": 60,
    "lr": 0.2,
    "n": 2000,
    "seed": 1234,
}


def cmd_vae_train_cnet(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    defaults = dict(CNET_DEFAULTS, model="vae.ckpt", out="cnet.ckpt",
                    loss_out="cnet_loss.csv")
    opts = _resolve(args, defaults)
    model = vae.load_model(opts["model"])
    data = _load_data(opts["data"], opts["n"], derive_key(opts["seed"], 4))
    cnet = vae.CNet.init(derive_key(opts["seed"], 5))
    result = vae.train_cnet(
        cnet, model, data, k=opts["k"], n_pairs=opts["n_pairs"],
        epochs=opts["epochs"], lr=opts["lr"], seed=derive_key(opts["seed"], 6),
    )
    vae.save_cnet(opts["out"], result.cnet)
    _write_loss_csv(opts["loss_out"], result.loss_history)
    _pair_manifest(opts["loss_out"], opts, opts["seed"], started)
    final = result.loss_history[-1] if result.loss_history else math.nan
    _echo(
        f"vae-train-cnet k={opts['k']} epochs={opts['epochs']} "
        f"final_gap={final:.6f} out={opts['out']}"
    )
    return 0


EVAL_DEFAULTS = {
    "data": TRAIN_DEFAULTS["data"],
    "n": 10000,
    "k": 64,
    "k_sweep": "",
    "c": "fixed:0",
    "seed": 1234,
    "out": "vae_eval.csv",
    "emit_gnuplot": False,
}


def _c_source(spec: str) -> vae.CNet | float:
    head, _, tail = spec.strip().partition(":")
    head = head.strip().lower()
    if head == "fixed":
        try:
            value = float(tail)
        except ValueError:
            raise ParseError(f"key 'c' fixed value is not a decimal: {tail!r}")
        if not math.isfinite(value):
            raise ParseError(f"key 'c' fixed value must be finite: {tail!r}")
        return value
    if head == "cnet":
        if not tail:
            raise ParseError("key 'c' cnet form needs a path, e.g. cnet:cnet.ckpt")
        return vae.load_cnet(tail)
    raise ParseError(f"key 'c' must be fixed:<v> or cnet:<path>, got {spec!r}")


def _write_records_csv(path: str, result: vae.EvalResult, k: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(EVAL_RECORD_HEADER + "\n")
        for rec in result.records:
            fh.write(f"{rec.x!r},{rec.s!r},{rec.S!r},{rec.c!r},{rec.k}\n")
        mean_c = float(np.mean([rec.c for rec in result.records]))
        fh.write(f"mean,{result.lower!r},{result.upper!r},{mean_c!r},{k}\n")


def cmd_vae_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    opts = _resolve(args, dict(EVAL_DEFAULTS, model="vae.ckpt"))
    model = vae.load_model(opts["model"])
    c_source = _c_source(opts["c"])
    data = _load_data(opts["data"], opts["n"], derive_key(opts["seed"], 7))

    result = vae.evaluate(model, c_source, data, opts["k"],
                          derive_key(opts["seed"], 8, opts["k"]))
    _write_records_csv(opts["out"], result, opts["k"])
    _pair_manifest(opts["out"], opts, opts["seed"], started)

    if opts["k_sweep"]:
        sweep_path = opts["out"] + ".ksweep.csv"
        lines = [EVAL_SWEEP_HEADER]
        for k in _parse_k_list(opts["k_sweep"]):
            res_k = result if k == opts["k"] else vae.evaluate(
                model, c_source, data, k, derive_key(opts["seed"], 8, k))
            lines.append(",".join([
                str(k), str(opts["n"]), repr(res_k.lower), repr(res_k.lower_stderr),
                repr(res_k.upper), repr(res_k.upper_stderr), repr(res_k.elbo),
                str(res_k.saturated),
            ]))
            _diag(f"k={k} lower={res_k.lower:.6f} upper={res_k.upper:.6f}")
        with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        _pair_manifest(sweep_path, opts, opts["seed"], started)
        if opts["emit_gnuplot"]:
            _diag(f"gnuplot script: {_write_gnuplot(sweep_path, 1, [(3, 'lower'), (5, 'upper')], 'k')}")

    mode = "cnet" if isinstance(c_source, vae.CNet) else f"fixed C={c_source:g}"
    _echo(
        f"vae-eval k={opts['k']} c-mode={mode} lower={result.lower:.6f} "
        f"upper={result.upper:.6f} width={result.width:.6f} out={opts['out']}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--config", help="key=value config file ('#' comments)")
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            sub.add_argument(flag, action="store_const", const=True, default=None)
        elif isinstance(default, int):
            sub.add_argument(flag, type=int, default=None)
        elif isinstance(default, float):
            sub.add_argument(flag, type=float, default=None)
        else:
            sub.add_argument(flag, type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsandwich",
        description="Sandwich bounds for log-evidence from paired Monte Carlo samples",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    analytic = subs.add_parser("analytic", help="bound sweep on an analytic distribution")
    _add_common(analytic, ANALYTIC_DEFAULTS)
    analytic.set_defaults(func=cmd_analytic)

    verify = subs.add_parser("verify", help="run the invariant suite")
    _add_common(verify, VERIFY_DEFAULTS)
    verify.set_defaults(func=cmd_verify)

    vae_parser = subs.add_parser("vae", help="toy VAE pipeline")
    vae_subs = vae_parser.add_subparsers(dest="vae_command", required=True)

    train = vae_subs.add_parser("train", help="train the VAE")
    _add_common(train, dict(TRAIN_DEFAULTS, out="vae.ckpt", loss_out="vae_loss.csv"))
    train.set_defaults(func=cmd_vae_train)

    train_cnet = vae_subs.add_parser("train-cnet", help="train the C network")
    _add_common(train_cnet, dict(CNET_DEFAULTS, model="vae.ckpt",
                                 out="cnet.ckpt", loss_out="cnet_loss.csv"))
    train_cnet.set_defaults(func=cmd_vae_train_cnet)

    evaluate = vae_subs.add_parser("eval", help="paired lower/upper evaluation")
    _add_common(evaluate, dict(EVAL_DEFAULTS, model="vae.ckpt"))
    evaluate.set_defaults(func=cmd_vae_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidParams, ShapeMismatch) as exc:
        _diag(f"error: {exc}")
        return 2
    except CheckpointError as exc:
        _diag(f"error: {exc}")
        return 4
    except DivergenceDetected as exc:
        _diag(f"error: {exc}")
        return 5
    except GapSandwichError as exc:
        _diag(f"error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
