"""Command-line front end.

Subcommands: `analytic` (bound sweeps on analytic distributions), `verify`
(the cross-module invariant suite) and `vae train | train-cnet | eval` (the
toy VAE pipeline).  Option precedence is flags > config file > defaults;
stdout carries one final summary line, diagnostics go to stderr.

main turns argv into checked values along one path.  argparse matches
flags by their full names only and stores each one's text (a boolean
flag's is "true"); GAPSANDWICH_THREADS is checked; _resolve merges the
flags' text with the config file's and the defaults, and _convert turns
either text into its default's type.  Each command then parses its spec
options (laws, k lists, C policies, objectives, --c) with _parse before it
checks its outputs, reads a checkpoint or draws data.  Every failure of
these steps, argparse's own included, is one `error:` line on stderr and
exit 2; a bad value's line names its option's key.

Every CSV is written by manifest.write_csv, then _write_companions writes
the paths that _csv_writes lists after it: with --emit-gnuplot its gnuplot
script, then its manifest, which digests the CSV, the script, the
checkpoint the command wrote and the checkpoints it read.  The pre-compute
check of the outputs reads the same list.

Exit codes: 0 ok, 1 verify failure, 2 parse/argument error, 3 numeric
failure or an allocation the machine refuses, 4 missing/corrupt
checkpoint, 5 training divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from itertools import repeat
from typing import Callable, Iterable, Iterator, NoReturn

import numpy as np

from . import __version__, vae
from .distributions import AnalyticDist, Laplace, parse_dist, sample
from .errors import (
    CheckpointError,
    DivergenceDetected,
    GapSandwichError,
    InvalidParams,
    NonPositiveSample,
    ParseError,
    ShapeMismatch,
)
from .manifest import RunManifest, manifest_path_for, write_csv
from .parallel import resolve_threads
from .rng import derive_key
from .sweep import (
    CSV_HEADER,
    CPolicy,
    SweepConfig,
    run_sweep,
    write_sweep_csv,
)
from .verify import VERIFY_CSV_HEADER, run_verify

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
    "out": "vae.ckpt",
    "loss_out": "vae_loss.csv",
}

EVAL_RECORD_HEADER = "x,s,S,c,k"
EVAL_SWEEP_HEADER = ("k,n,lower,lower_stderr,upper,upper_stderr,elbo,saturated,"
                     "width,width_stderr")


def _echo(line: str) -> None:
    print(line)


def _diag(line: str) -> None:
    print(line, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failures raise ParseError, for main to report
    as one line; --help and --version still print and exit 0."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


def _read_config(path: str, keys: dict) -> dict[str, str]:
    """The key=value lines of a config file, each key one of keys."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                # '#' starts a comment at a line's start or after whitespace.
                line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
                if not line:
                    continue
                key, eq, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if not eq:
                    why = f"expected key=value, got {raw.strip()!r}"
                elif key in out:
                    why = f"duplicate key {key!r}"
                elif key not in keys:
                    why = f"unknown key {key!r}"
                else:
                    out[key] = val.strip()
                    continue
                raise ParseError(f"key 'config': {path}:{lineno}: {why}")
    except OSError as exc:
        raise ParseError(f"key 'config': cannot read {path!r}: {exc}") from exc
    return out


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _convert(key: str, text: str, default: object) -> object:
    """Flag or config text as the type of the option's default."""
    if isinstance(default, bool):
        word = text.lower()
        if word in _TRUE_WORDS + _FALSE_WORDS:
            return word in _TRUE_WORDS
        expected = f"one of {', '.join(_TRUE_WORDS + _FALSE_WORDS)}"
    elif isinstance(default, (int, float)):
        try:
            return type(default)(text)
        except ValueError:
            expected = "an integer" if isinstance(default, int) else "a decimal"
    else:
        return text
    raise ParseError(f"key {key!r}: expected {expected}, got {text!r}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge the flags' text (None = not given) with the config file's and
    the defaults, each text converted; the seed must lie in [0, 2^64)."""
    config = _read_config(args.config, defaults) if args.config else {}
    opts = {}
    for key, default in defaults.items():
        text = getattr(args, key)
        if text is None:
            text = config.get(key)
        opts[key] = default if text is None else _convert(key, text, default)
    # derive_key reads a seed modulo 2^64, so -1 would alias 2^64 - 1.
    if not 0 <= opts["seed"] < 1 << 64:
        raise ParseError(f"key 'seed': must be in [0, 2^64), got {opts['seed']}")
    return opts


def _parse(key: str, parse: Callable[[str], object], text: str) -> object:
    """parse(text), with a ParseError or InvalidParams it raises named
    under the option's key."""
    try:
        return parse(text)
    except (ParseError, InvalidParams) as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc


def _check_writable(writes: dict[str, list[str]],
                    reads: dict[str, str] | None = None) -> None:
    """Fail on the first path that cannot be written, or that names a file
    written before it or an input, before any compute starts.  writes maps
    each output key to every path it writes, the ones derived from it too,
    and reads each input's key to its path."""
    owners = {os.path.realpath(path): key for key, path in (reads or {}).items()}
    for key, paths in writes.items():
        for path in paths:
            folder, real = os.path.dirname(path) or ".", os.path.realpath(path)
            if not path:
                why = "the path is empty"
            elif os.path.isdir(path):
                why = "it is a directory"
            elif not os.path.isdir(folder):
                why = f"no directory {folder!r}"
            elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
                why = "permission denied"
            elif real in owners:
                why = f"key {owners[real]!r} names the same file"
            else:
                owners[real] = key
                continue
            raise ParseError(f"key {key!r}: cannot write {path!r}: {why}")


def _csv_writes(csv_path: str, plot: bool = False) -> list[str]:
    """The paths that writing a CSV writes: its own, with plot its gnuplot
    script's, and its manifest's."""
    script = [csv_path + ".gnuplot"] if plot else []
    return [csv_path, *script, manifest_path_for(csv_path)]


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"must be a comma list of integers: {text!r}")
    if any(k < 1 for k in ks):
        raise ParseError(f"values must be >= 1: {text!r}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ParseError(f"must be strictly increasing: {text!r}")
    return ks


def _write_companions(csv_path: str, args: argparse.Namespace, opts: dict,
                      plot: tuple[str, str, str, str] | None = None,
                      outputs: Iterable[str] = (),
                      inputs: Iterable[str] = ()) -> None:
    """Write a finished CSV's companions, the paths after it in
    _csv_writes(csv_path, plot is not None): given plot, a gnuplot script
    of its lower and upper bounds against k, then its manifest.  plot is
    the CSV's header and the names of its k, lower and upper columns, which
    the script finds in the header.  The manifest digests the CSV, the
    script and the other outputs, and under inputs the files read."""
    paths = _csv_writes(csv_path, plot is not None)
    if plot is not None:
        header, x, lower, upper = plot
        names = header.split(",")

        def quoted(text: str) -> str:
            # gnuplot reads '' inside a single-quoted string as one quote.
            return "'" + text.replace("'", "''") + "'"

        plots = ", ".join(
            f"{quoted(csv_path)} using {names.index(x) + 1}:{names.index(y) + 1} "
            f"with linespoints title {quoted(title)}"
            for y, title in ((lower, "lower"), (upper, "upper")))
        with open(paths[1], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("set datafile separator ','\nset key autotitle columnhead\n"
                     f"set logscale x 2\nset xlabel {quoted(x)}\nplot {plots}\n")
        _diag(f"gnuplot script: {paths[1]}")
    manifest = RunManifest(
        command_line=args.argv,
        config={k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                for k, v in opts.items()},
        base_seed=opts["seed"],
        version=__version__,
        wall_time_s=round(time.perf_counter() - args.started, 6),
    )
    for path in [*paths[:-1], *outputs]:
        manifest.add_output(path)
    for path in inputs:
        manifest.add_input(path)
    manifest.write(paths[-1])


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


def cmd_analytic(args: argparse.Namespace, opts: dict) -> int:
    dist = _parse("dist", parse_dist, opts["dist"])
    if isinstance(dist, Laplace):
        raise ParseError("key 'dist': laplace draws negative values; the "
                         "bounds need a law of positive draws")
    cfg = SweepConfig(
        k_values=_parse("k", _parse_k_list, opts["k"]),
        n_pairs=opts["n"],
        replications=opts["replications"],
        base_seed=opts["seed"],
        c_policy=_parse("c_policy", CPolicy.parse, opts["c_policy"]),
    )
    _check_writable({"out": _csv_writes(opts["out"], opts["emit_gnuplot"])})
    result = run_sweep(dist, cfg)
    for row in result.rows:
        if not (math.isfinite(row.report.lower_mean)
                and math.isfinite(row.report.upper_mean)):
            raise GapSandwichError(
                f"non-finite bound at k={row.k} replication={row.replication}"
            )
    write_sweep_csv(opts["out"], result, dataset=dist.spec_string(), model="analytic")
    _write_companions(opts["out"], args, opts,
                      (CSV_HEADER, "k", "lower_mean", "upper_mean")
                      if opts["emit_gnuplot"] else None)
    def summary(mean: float, std: float) -> str:
        # One replication has no spread across replications to report.
        return f"{mean:.6f}" + (f"+-{std:.6f}" if cfg.replications > 1 else "")

    for agg in result.aggregates:
        _diag(f"k={agg.k} lower={summary(agg.lower_mean, agg.lower_std)} "
              f"upper={summary(agg.upper_mean, agg.upper_std)}")
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


def cmd_verify(args: argparse.Namespace, opts: dict) -> int:
    _check_writable({"out": _csv_writes(opts["out"])})
    results = run_verify(opts["seed"], quick=opts["quick"])
    for res in results:
        status = "pass" if res.passed else "FAIL"
        _diag(f"{status} {res.name} slack={res.slack:.6g}")
    write_csv(opts["out"], VERIFY_CSV_HEADER,
              [(res.name, int(res.passed), res.slack) for res in results])
    _write_companions(opts["out"], args, opts)
    passed = sum(res.passed for res in results)
    _echo(f"verify passed={passed}/{len(results)} out={opts['out']}")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# vae train / train-cnet / eval
# ---------------------------------------------------------------------------

def _load_data(law: AnalyticDist, n: int, seed: int) -> np.ndarray:
    """n draws of the data law; finite parameters whose draws overflow are
    a numeric failure, raised before any compute."""
    data = sample(law, n, seed)
    if not (math.isfinite(data.min()) and math.isfinite(data.max())):
        raise NonPositiveSample(f"data {law.spec_string()!r} gives non-finite draws")
    return data


def cmd_vae_train(args: argparse.Namespace, opts: dict) -> int:
    law = _parse("data", parse_dist, opts["data"])
    objective = _parse("objective", vae.Objective.parse, opts["objective"])
    _check_writable({"out": [opts["out"]], "loss_out": _csv_writes(opts["loss_out"])})
    data = _load_data(law, opts["n"], derive_key(opts["seed"], 1))
    model = vae.ToyVae.init(derive_key(opts["seed"], 2), opts["decoder_var"])
    result = vae.train(
        model, data, objective,
        epochs=opts["epochs"], batch=opts["batch"], lr=opts["lr"],
        seed=derive_key(opts["seed"], 3),
    )
    vae.save_model(opts["out"], result.model)
    write_csv(opts["loss_out"], "epoch,loss", enumerate(result.loss_history))
    _write_companions(opts["loss_out"], args, opts, outputs=[opts["out"]])
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
    "model": "vae.ckpt",
    "out": "cnet.ckpt",
    "loss_out": "cnet_loss.csv",
}


def cmd_vae_train_cnet(args: argparse.Namespace, opts: dict) -> int:
    law = _parse("data", parse_dist, opts["data"])
    _check_writable({"out": [opts["out"]], "loss_out": _csv_writes(opts["loss_out"])},
                    reads={"model": opts["model"]})
    model = vae.load_model(opts["model"])
    data = _load_data(law, opts["n"], derive_key(opts["seed"], 4))
    cnet = vae.CNet.init(derive_key(opts["seed"], 5))
    result = vae.train_cnet(
        cnet, model, data, k=opts["k"], n_pairs=opts["n_pairs"],
        epochs=opts["epochs"], lr=opts["lr"], seed=derive_key(opts["seed"], 6),
    )
    vae.save_cnet(opts["out"], result.cnet)
    write_csv(opts["loss_out"], "epoch,loss", enumerate(result.loss_history))
    _write_companions(opts["loss_out"], args, opts, outputs=[opts["out"]],
                      inputs=[opts["model"]])
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
    "model": "vae.ckpt",
}


def _parse_c(text: str) -> float | str:
    """A --c value: fixed:<v> gives the finite float v, cnet:<path> the
    path of a C-network checkpoint."""
    head, _, tail = text.strip().partition(":")
    head = head.strip().lower()
    if head == "fixed":
        try:
            value = float(tail)
        except ValueError:
            raise ParseError(f"fixed value is not a decimal: {tail!r}")
        if not math.isfinite(value):
            raise ParseError(f"fixed value must be finite: {tail!r}")
        return value
    if head == "cnet":
        if not tail:
            raise ParseError("cnet form needs a path, e.g. cnet:cnet.ckpt")
        return tail
    raise ParseError(f"must be fixed:<v> or cnet:<path>, got {text!r}")


def _record_rows(result: vae.EvalResult) -> Iterator[tuple]:
    """The records CSV's rows: one per datapoint, then the summary row."""
    # tolist gives Python floats, which write_csv reprs on its fast path.
    rep = result.report
    yield from zip(result.x.tolist(), result.s.tolist(), result.S.tolist(),
                   result.c.tolist(), repeat(rep.k))
    yield "mean", rep.lower_mean, rep.upper_mean, rep.c_used, rep.k


def cmd_vae_eval(args: argparse.Namespace, opts: dict) -> int:
    law = _parse("data", parse_dist, opts["data"])
    c = _parse("c", _parse_c, opts["c"])
    sweep_ks = (_parse("k_sweep", _parse_k_list, opts["k_sweep"])
                if opts["k_sweep"] else ())
    if opts["emit_gnuplot"] and not sweep_ks:
        raise ParseError("key 'emit_gnuplot': eval plots only a k_sweep")
    reads = {"model": opts["model"]}
    if isinstance(c, str):
        reads["c"] = c
    sweep_path = opts["out"] + ".ksweep.csv"
    writes = _csv_writes(opts["out"])
    if sweep_ks:
        writes += _csv_writes(sweep_path, opts["emit_gnuplot"])
    _check_writable({"out": writes}, reads=reads)
    model = vae.load_model(opts["model"])
    c_source = vae.load_cnet(c) if isinstance(c, str) else c
    data = _load_data(law, opts["n"], derive_key(opts["seed"], 7))

    result = vae.evaluate(model, c_source, data, opts["k"],
                          derive_key(opts["seed"], 8, opts["k"]))
    write_csv(opts["out"], EVAL_RECORD_HEADER, _record_rows(result))
    _write_companions(opts["out"], args, opts, inputs=reads.values())

    if sweep_ks:
        rows = []
        for k in sweep_ks:
            res_k = result if k == opts["k"] else vae.evaluate(
                model, c_source, data, k, derive_key(opts["seed"], 8, k))
            rep = res_k.report
            rows.append((k, opts["n"], rep.lower_mean, rep.lower_stderr,
                         rep.upper_mean, rep.upper_stderr, res_k.elbo,
                         rep.saturated_pairs, rep.width, rep.width_stderr))
            _diag(f"k={k} lower={rep.lower_mean:.6f} upper={rep.upper_mean:.6f}")
        write_csv(sweep_path, EVAL_SWEEP_HEADER, rows)
        _write_companions(sweep_path, args, opts,
                          (EVAL_SWEEP_HEADER, "k", "lower", "upper")
                          if opts["emit_gnuplot"] else None, inputs=reads.values())

    mode = "cnet" if isinstance(c_source, vae.CNet) else f"fixed C={c_source:g}"
    rep = result.report
    _echo(
        f"vae-eval k={opts['k']} c-mode={mode} lower={rep.lower_mean:.6f} "
        f"upper={rep.upper_mean:.6f} width={rep.width:.6f} out={opts['out']}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  A subcommand's parse gives func, its
    command, and defaults, the defaults of its options, and each option's
    text under its key (None when the flag is not given)."""
    commands = (
        ("analytic", "bound sweep on an analytic distribution", ANALYTIC_DEFAULTS,
         cmd_analytic),
        ("verify", "run the invariant suite", VERIFY_DEFAULTS, cmd_verify),
        ("vae train", "train the VAE", TRAIN_DEFAULTS, cmd_vae_train),
        ("vae train-cnet", "train the C network", CNET_DEFAULTS, cmd_vae_train_cnet),
        ("vae eval", "paired lower/upper evaluation", EVAL_DEFAULTS, cmd_vae_eval),
    )
    parser = _Parser(
        prog="gapsandwich", allow_abbrev=False,
        description="Sandwich bounds for log-evidence from paired Monte Carlo samples",
    )
    parser.add_argument("--version", action="version", version=__version__)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, help_text, defaults, func in commands:
        group, _, name = words.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help="toy VAE pipeline", allow_abbrev=False,
            ).add_subparsers(dest="vae_command", required=True)
        sub = groups[group].add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="key=value config file ('#' comments)")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                sub.add_argument(flag, action="store_const", const="true")
            else:
                sub.add_argument(flag)
        sub.set_defaults(func=func, defaults=defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        # The manifests record the arguments main was given, not its host's.
        args.argv = list(sys.argv[1:] if argv is None else argv)
        args.started = started
        resolve_threads()
        return args.func(args, _resolve(args, args.defaults))
    except (ParseError, InvalidParams, ShapeMismatch) as exc:
        _diag(f"error: {exc}")
        return 2
    except CheckpointError as exc:
        _diag(f"error: {exc}")
        return 4
    except DivergenceDetected as exc:
        _diag(f"error: {exc}")
        return 5
    except (GapSandwichError, MemoryError) as exc:
        # numpy names the size it could not allocate; a bare MemoryError
        # names nothing.
        _diag(f"error: {str(exc) or 'out of memory'}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
