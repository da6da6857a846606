import hashlib
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapsandwich
from gapsandwich import cli, verify
from gapsandwich.cli import EVAL_DEFAULTS, main
from gapsandwich.distributions import parse_dist, sample
from gapsandwich.manifest import write_csv
from gapsandwich.parallel import THREADS_ENV
from gapsandwich.rng import derive_key
from gapsandwich.samples import PairedSamples
from gapsandwich.sweep import CSV_HEADER, CPolicy
from gapsandwich.vae import (
    CNET_PARAM_COUNT,
    VAE_PARAM_COUNT,
    CNet,
    ToyVae,
    load_model,
    save_cnet,
    save_model,
)
from test_vae import write_raw_checkpoint


def run(args):
    return main(args)


class TestAnalyticCommand:
    def test_happy_path_writes_csv_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        code = run(["analytic", "--dist", "gamma:a=2,theta=1", "--k", "1,4",
                    "--n", "5000", "--replications", "2", "--c-policy", "zero",
                    "--seed", "42", "--out", out])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1  # single summary line on stdout
        assert "analytic" in captured.out
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["base_seed"] == 42
        assert out in manifest["outputs"]

    @pytest.mark.parametrize("given", [True, False])
    def test_manifest_records_the_argv_main_was_given(self, tmp_path,
                                                       monkeypatch, given):
        args = ["analytic", "--dist", "constant:c=2", "--k", "1", "--n", "100",
                "--replications", "1", "--out", str(tmp_path / "g.csv")]
        monkeypatch.setattr(sys, "argv",
                            ["host", "host-arg-1"] if given else ["host", *args])
        assert main(args if given else None) == 0
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["command_line"] == args

    def test_manifest_records_numpy_and_its_simd_dispatch(self, tmp_path):
        out = str(tmp_path / "g.csv")
        run(["analytic", "--dist", "gamma:a=2,theta=1", "--k", "1", "--n", "500",
             "--replications", "1", "--seed", "42", "--out", out])
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        runtime = manifest["numpy"]
        assert runtime["version"] == np.__version__
        assert set(runtime) == {"version", "simd_baseline", "simd_dispatched"}
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        assert runtime["simd_baseline"] == list(umath.__cpu_baseline__)
        # The dispatched features this CPU has, in numpy's order.
        assert runtime["simd_dispatched"] == [
            name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["analytic", "--dist", "lognormal:m=0,sigma=1", "--k", "1",
                "--n", "2000", "--replications", "2", "--seed", "9"]
        run(args + ["--out", str(tmp_path / "a.csv")])
        run(args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_parse_error_names_key_and_exits_2(self, tmp_path, capsys):
        code = run(["analytic", "--dist", "gamma:a=2,thata=1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "thata" in capsys.readouterr().err

    def test_non_finite_distribution_parameter_exits_2(self, tmp_path, capsys):
        code = run(["analytic", "--dist", "lognormal:m=0,sigma=nan",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_c_policy_exits_2(self, tmp_path):
        assert run(["analytic", "--dist", "constant:c=1", "--c-policy", "best",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("policy", ["zero:0.7", "pilot-optimal:garbage"])
    def test_a_value_after_zero_or_pilot_optimal_exits_2_before_sampling(
            self, tmp_path, monkeypatch, capsys, policy, form):
        # `analytic --c-policy zero:0.7` once swept at C = 0, wrote c_used
        # 0.0 and exited 0.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "x.csv"
        args = ["analytic", "--dist", "constant:c=1", "--k", "1", "--n", "100",
                "--replications", "1", "--out", str(out)]
        if form == "flag":
            args += ["--c-policy", policy]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"c-policy={policy}\n")
            args += ["--config", str(cfg)]
        assert run(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'c_policy'" in err[0] and repr(policy) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_fixed_c_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1", "--n", "100",
                    "--replications", "1", "--c-policy", f"fixed:{value}",
                    "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_thread_count_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GAPSANDWICH_THREADS", "-3")
        out = tmp_path / "x.csv"
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1,2", "--n", "100",
                    "--replications", "1", "--out", str(out)])
        assert code == 2
        assert "GAPSANDWICH_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_aggregate_of_huge_bounds_stays_finite(self, tmp_path, capsys):
        # Each row's upper bound is about -1e308; their plain mean overflowed
        # to -inf with a raw numpy warning on stderr.
        code = run(["analytic", "--dist", "gamma:a=2,theta=1", "--n", "100",
                    "--k", "1", "--replications", "2", "--c-policy",
                    "fixed:-1e308", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("k=1 lower=")
        assert "inf" not in err and "Warning" not in err

    @pytest.mark.parametrize("reps, spread", [(1, False), (2, True)])
    def test_summary_shows_a_spread_only_across_replications(
            self, tmp_path, capsys, reps, spread):
        # One replication has no spread: a +-0.000000 beside the CSV's inf
        # stderr columns would claim an exact bound.
        code = run(["analytic", "--n", "100", "--k", "1,4",
                    "--replications", str(reps), "--out", str(tmp_path / "x.csv")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" ")[0] for line in err] == ["k=1", "k=4"]
        for line in err:
            lower, upper = line.split(" ")[1:]
            assert lower.startswith("lower=") and upper.startswith("upper=")
            assert ("+-" in lower, "+-" in upper) == (spread, spread)

    @pytest.mark.parametrize("spec", ["lognormal:m=709,sigma=1",
                                      "gamma:a=2,theta=1e308",
                                      "gamma:a=2.5,theta=1e308"])
    def test_overflowing_draws_exit_3_with_one_line(self, tmp_path, capsys, spec):
        # Finite parameters whose draws overflow to inf put no raw numpy
        # RuntimeWarning on stderr before the error line.
        out = tmp_path / "x.csv"
        code = run(["analytic", "--dist", spec, "--n", "100", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("spec, k", [
        ("lognormal:m=708,sigma=0.1", "16"),    # mean(axis=1) overflows
        ("lognormal:m=709.3,sigma=0.01", "4"),  # a column add overflows
    ])
    def test_overflowing_block_sums_exit_3_with_one_line(self, tmp_path, capsys,
                                                          spec, k):
        # Every draw is finite, but the sum of a block of k of them is not.
        out = tmp_path / "x.csv"
        code = run(["analytic", "--dist", spec, "--k", k, "--n", "100",
                    "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", str((1 << 64) - 1)])
    def test_seeds_at_the_ends_of_the_range_run(self, tmp_path, seed):
        code = run(["analytic", "--dist", "constant:c=2", "--k", "1", "--n", "100",
                    "--replications", "1", "--seed", seed,
                    "--out", str(tmp_path / "g.csv")])
        assert code == 0

    @pytest.mark.parametrize("out, why", [
        ("missing/o.csv", "no directory"),
        (".", "it is a directory"),
        ("", "the path is empty"),
    ])
    def test_unwritable_out_exits_2_before_sampling(self, tmp_path, monkeypatch,
                                                     capsys, out, why):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        path = str(tmp_path / out) if out else out
        code = run(["analytic", "--n", "100", "--out", path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'out'")
        assert why in err

    @pytest.mark.parametrize("companion", [".manifest.json", ".gnuplot"])
    def test_a_directory_at_a_companion_exits_2_before_sampling(
            self, tmp_path, monkeypatch, capsys, companion):
        # A directory at a.csv.manifest.json once ended `analytic --out a.csv`
        # with a traceback and exit 1, verify's failure code, after the sweep.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        (tmp_path / ("a.csv" + companion)).mkdir()
        code = run(["analytic", "--n", "100", "--emit-gnuplot",
                    "--out", str(tmp_path / "a.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'out'")
        assert f"a.csv{companion}': it is a directory" in err
        assert not (tmp_path / "a.csv").exists()

    def test_emit_gnuplot_writes_companion(self, tmp_path):
        out = str(tmp_path / "g.csv")
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1", "--n", "100",
                    "--replications", "1", "--seed", "1", "--out", out,
                    "--emit-gnuplot"])
        assert code == 0
        assert (tmp_path / "g.csv.gnuplot").exists()

    @pytest.mark.parametrize("loc", ["0", "5"])
    def test_a_law_with_negative_draws_exits_2_before_sampling(
            self, tmp_path, monkeypatch, capsys, loc):
        # At loc 0 the negative draws once ended the run with exit 3; at
        # loc 5 none were drawn, and the bounds of a law the sandwich does
        # not cover were written.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "x.csv"
        code = run(["analytic", "--dist", f"laplace:loc={loc},b=0.2", "--n", "100",
                    "--k", "1", "--replications", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: key 'dist'")
        assert not out.exists()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=1000\nreplications=1  # comment\nseed=5\n")
        out = str(tmp_path / "o.csv")
        code = run(["analytic", "--dist", "constant:c=2", "--k", "1",
                    "--c-policy", "zero", "--config", str(cfg),
                    "--replications", "2", "--out", out])
        assert code == 0
        lines = (tmp_path / "o.csv").read_text().splitlines()
        # flag replications=2 wins over config 1; config n=1000 applies
        assert len(lines) == 3
        assert lines[1].split(",")[4] == "1000"

    def test_config_hash_inside_a_value_is_kept(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "run#2.csv"
        cfg.write_text(f"# a comment line\nout={out}\nn=500\t# tab comment\n")
        code = run(["analytic", "--dist", "constant:c=2", "--k", "1",
                    "--c-policy", "zero", "--replications", "1",
                    "--config", str(cfg)])
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "run").exists()
        assert out.read_text().splitlines()[1].split(",")[4] == "500"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("replicas=3\n")
        code = run(["analytic", "--dist", "constant:c=1", "--config", str(cfg),
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "replicas" in capsys.readouterr().err

    @pytest.mark.parametrize("first, second, key", [
        ("n=100", "n=200", "n"),
        ("c-policy=zero", "c_policy=pilot-optimal", "c_policy"),
    ])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, first, second,
                                         key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{first}\nseed=5\n{second}\n")
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1",
                    "--replications", "1", "--config", str(cfg),
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err and repr(key) in err
        assert not (tmp_path / "o.csv").exists()

    def test_config_booleans_accept_both_spellings(self, tmp_path):
        out = tmp_path / "o.csv"
        for word, written in (("Yes", True), ("on", True), ("OFF", False),
                              ("0", False)):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"emit_gnuplot={word}\n")
            script = tmp_path / "o.csv.gnuplot"
            script.unlink(missing_ok=True)
            code = run(["analytic", "--dist", "constant:c=1", "--k", "1",
                        "--n", "100", "--replications", "1", "--config", str(cfg),
                        "--out", str(out)])
            assert code == 0
            assert script.exists() is written

    def test_unrecognised_config_boolean_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emit_gnuplot=ture\n")
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1", "--n", "100",
                    "--replications", "1", "--config", str(cfg),
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'emit_gnuplot': ")
        assert "ture" in err
        assert not (tmp_path / "o.csv").exists()

    def test_shape_mismatch_exits_2(self, tmp_path, monkeypatch, capsys):
        def mismatched(dist, cfg):
            return PairedSamples(np.ones(3), np.ones(2))

        monkeypatch.setattr("gapsandwich.cli.run_sweep", mismatched)
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1",
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "lengths differ" in capsys.readouterr().err


class TestVerifyCommand:
    def test_quick_passes_and_is_reproducible(self, tmp_path, monkeypatch):
        a = str(tmp_path / "v1.csv")
        b = str(tmp_path / "v2.csv")
        monkeypatch.setenv("GAPSANDWICH_THREADS", "1")
        assert run(["verify", "--quick", "--seed", "7", "--out", a]) == 0
        monkeypatch.setenv("GAPSANDWICH_THREADS", "8")
        assert run(["verify", "--quick", "--seed", "7", "--out", b]) == 0
        assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()

    def test_slacks_are_plain_floats(self, tmp_path):
        out = tmp_path / "v.csv"
        run(["verify", "--quick", "--seed", "7", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            float(line.split(",")[2])

    def test_sampler_determinism_compares_with_a_fresh_process(self, monkeypatch):
        assert verify.check_sampler_determinism(7, 1000).passed

        def drifting(dist, n, seed):
            return sample(dist, n, seed + 1)

        # Deterministic within this process, different from a fresh one.
        monkeypatch.setattr(verify, "sample", drifting)
        result = verify.check_sampler_determinism(7, 1000)
        assert not result.passed
        assert result.slack == -1.0

    def test_one_line_per_property_on_stderr(self, tmp_path, capsys):
        run(["verify", "--quick", "--seed", "7", "--out", str(tmp_path / "v.csv")])
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l]
        body = (tmp_path / "v.csv").read_text().splitlines()
        assert len(err_lines) == len(body) - 1
        assert all(l.startswith(("pass", "FAIL")) for l in err_lines)


class TestVaePipeline:
    def test_train_eval_round_trip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "v.ckpt")
        loss = str(tmp_path / "loss.csv")
        code = run(["vae", "train", "--epochs", "5", "--n", "500", "--batch", "250",
                    "--seed", "3", "--out", ckpt, "--loss-out", loss])
        assert code == 0
        assert (tmp_path / "loss.csv").read_text().startswith("epoch,loss\n")

        out = str(tmp_path / "eval.csv")
        code = run(["vae", "eval", "--model", ckpt, "--n", "200", "--k", "4",
                    "--c", "fixed:0", "--seed", "3", "--out", out,
                    "--k-sweep", "1,4"])
        assert code == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "x,s,S,c,k"
        assert len(lines) == 202  # header + 200 records + summary row
        assert lines[-1].startswith("mean,")
        sweep_lines = (tmp_path / "eval.csv.ksweep.csv").read_text().splitlines()
        assert sweep_lines[0].startswith("k,n,lower")
        assert len(sweep_lines) == 3

    def test_records_csv_rows_are_the_float_reprs(self, tmp_path):
        # Each row is repr of the Python floats, as the per-record writer
        # wrote them, and the summary row's C is the mean of the c column.
        from gapsandwich import cli, vae

        result = vae.evaluate(ToyVae.init(5), vae.CNet.init(6),
                              np.linspace(-0.5, 0.5, 7), k=3, seed=8)
        path = tmp_path / "r.csv"
        write_csv(str(path), cli.EVAL_RECORD_HEADER, cli._record_rows(result))
        expected = ["x,s,S,c,k"] + [
            f"{float(x)!r},{float(s)!r},{float(S)!r},{float(c)!r},3"
            for x, s, S, c in zip(result.x, result.s, result.S, result.c)]
        mean_c = float(np.mean([float(c) for c in result.c]))
        rep = result.report
        expected.append(f"mean,{rep.lower_mean!r},{rep.upper_mean!r},{mean_c!r},3")
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_zero_lr_checkpoint_matches_init(self, tmp_path):
        ckpt = str(tmp_path / "v.ckpt")
        code = run(["vae", "train", "--epochs", "2", "--n", "300", "--lr", "0",
                    "--seed", "11", "--decoder-var", "0.04", "--out", ckpt,
                    "--loss-out", str(tmp_path / "l.csv")])
        assert code == 0
        loaded = load_model(ckpt)
        expected = ToyVae.init(derive_key(11, 2), 0.04)
        np.testing.assert_array_equal(loaded.params, expected.params)

    def test_perfect_constant_checkpoint_collapses_interval(self, tmp_path):
        from gapsandwich.vae import VAE_PARAM_COUNT, save_model

        ckpt = str(tmp_path / "const.ckpt")
        save_model(ckpt, ToyVae(np.zeros(VAE_PARAM_COUNT), 0.3))
        out = str(tmp_path / "e.csv")
        code = run(["vae", "eval", "--model", ckpt, "--data", "constant:c=1",
                    "--n", "16", "--k", "1", "--c", "fixed:0", "--seed", "2",
                    "--out", out])
        assert code == 0
        for line in (tmp_path / "e.csv").read_text().splitlines()[1:]:
            _, s, S, _, _ = line.split(",")
            assert float(s) == pytest.approx(float(S), abs=1e-12)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_fixed_c_exits_2(self, tmp_path, capsys, value):
        from gapsandwich.vae import VAE_PARAM_COUNT, save_model

        ckpt = str(tmp_path / "const.ckpt")
        save_model(ckpt, ToyVae(np.zeros(VAE_PARAM_COUNT), 0.3))
        out = tmp_path / "e.csv"
        code = run(["vae", "eval", "--model", ckpt, "--n", "16", "--k", "1",
                    "--c", f"fixed:{value}", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_k_sweep_reuses_the_k_result(self, tmp_path, monkeypatch):
        from gapsandwich import vae

        ckpt = str(tmp_path / "v.ckpt")
        vae.save_model(ckpt, ToyVae.init(5, 0.04))
        calls = []
        original = vae.evaluate

        def counting(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(vae, "evaluate", counting)
        out = tmp_path / "e.csv"
        code = run(["vae", "eval", "--model", ckpt, "--n", "100", "--k", "4",
                    "--k-sweep", "1,4", "--c", "fixed:0", "--seed", "6",
                    "--out", str(out)])
        assert code == 0
        assert calls == [4, 1]
        summary = out.read_text().splitlines()[-1].split(",")
        row_k4 = (tmp_path / "e.csv.ksweep.csv").read_text().splitlines()[2]
        assert row_k4.split(",")[2] == summary[1]  # the same lower bound

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_k_sweep_rows_equal_standalone_evaluates(
            self, tmp_path, monkeypatch, pool_sizes, threads):
        # Three chunks at every k, on two workers whatever their log-ratios.
        from gapsandwich import vae

        monkeypatch.setattr(vae, "WORKER_RATIOS", 1)
        monkeypatch.setenv(THREADS_ENV, threads)
        model, cnet = ToyVae.init(5, 0.04), CNet.init(3)
        ckpt, cnet_ckpt = str(tmp_path / "v.ckpt"), str(tmp_path / "c.ckpt")
        save_model(ckpt, model)
        save_cnet(cnet_ckpt, cnet)
        n, seed = 2 * vae.CHUNK_POINTS + 50, 6
        code = run(["vae", "eval", "--model", ckpt, "--n", str(n), "--k", "4",
                    "--k-sweep", "1,2,4,8", "--c", f"cnet:{cnet_ckpt}",
                    "--seed", str(seed), "--out", str(tmp_path / "e.csv")])
        assert code == 0
        assert pool_sizes == ([2] * 4 if threads == "2" else [])
        data = sample(parse_dist(EVAL_DEFAULTS["data"]), n, derive_key(seed, 7))
        rows = (tmp_path / "e.csv.ksweep.csv").read_text().splitlines()[1:]
        for k, row in zip((1, 2, 4, 8), rows, strict=True):
            res = vae.evaluate(model, cnet, data, k, derive_key(seed, 8, k))
            rep = res.report
            assert row == ",".join([
                str(k), str(n), repr(rep.lower_mean), repr(rep.lower_stderr),
                repr(rep.upper_mean), repr(rep.upper_stderr), repr(res.elbo),
                str(rep.saturated_pairs), repr(rep.width), repr(rep.width_stderr)])

    @pytest.mark.parametrize("ks", ["1,0", "1,x", "2,2", "4,1", "1,4,2"])
    def test_bad_k_sweep_exits_2_before_writing(self, tmp_path, capsys, ks):
        # A repeated k would write its row twice, and an unordered list is
        # refused as analytic's --k is.
        ckpt = str(tmp_path / "v.ckpt")
        save_model(ckpt, ToyVae.init(5, 0.04))
        out = tmp_path / "e.csv"
        code = run(["vae", "eval", "--model", ckpt, "--n", "50", "--k", "2",
                    "--k-sweep", ks, "--c", "fixed:0", "--out", str(out)])
        assert code == 2
        assert "k_sweep" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "e.csv.manifest.json").exists()

    def test_non_finite_log_ratios_exit_3_without_csv(self, tmp_path, capsys):
        model = ToyVae.init(5, 0.04)
        model.params[17] = 400.0  # encoder log-std bias: z^2 overflows
        ckpt = str(tmp_path / "v.ckpt")
        save_model(ckpt, model)
        out = tmp_path / "e.csv"
        code = run(["vae", "eval", "--model", ckpt, "--n", "50", "--k", "2",
                    "--c", "fixed:0", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "train-cnet", "eval"])
    def test_non_finite_data_exits_3_before_any_compute(self, tmp_path, capsys,
                                                        command):
        # Finite parameters whose draws overflow: train and train-cnet
        # exited 5 as a divergence, eval 3 only after its compute.
        spec = "laplace:loc=0,b=1e308"
        ckpt = str(tmp_path / "v.ckpt")
        save_model(ckpt, ToyVae.init(5, 0.04))
        out, loss_out = tmp_path / "out", tmp_path / "loss.csv"
        argv = {
            "train": ["train", "--epochs", "2", "--loss-out", str(loss_out)],
            "train-cnet": ["train-cnet", "--epochs", "2", "--model", ckpt,
                           "--loss-out", str(loss_out)],
            "eval": ["eval", "--k", "2", "--c", "fixed:0", "--model", ckpt],
        }[command]
        code = run(["vae", *argv, "--data", spec, "--n", "100",
                    "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data ")
        # The law is named as parsed: b=1e308 reads back as b=1e+308.
        assert parse_dist(spec).spec_string() in err[0] and "Traceback" not in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.ckpt"]

    def test_overflowing_c_network_exits_3_without_csv(self, tmp_path, capsys):
        ckpt, cnet_ckpt = str(tmp_path / "v.ckpt"), str(tmp_path / "c.ckpt")
        save_model(ckpt, ToyVae.init(5, 0.04))
        save_cnet(cnet_ckpt, CNet(np.full(CNET_PARAM_COUNT, 1e200)))
        out = tmp_path / "e.csv"
        code = run(["vae", "eval", "--model", ckpt, "--n", "50", "--k", "2",
                    "--c", f"cnet:{cnet_ckpt}", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_missing_checkpoint_exits_4(self, tmp_path):
        assert run(["vae", "eval", "--model", str(tmp_path / "missing.ckpt"),
                    "--out", str(tmp_path / "e.csv")]) == 4

    def test_corrupt_magic_exits_4(self, tmp_path):
        ckpt = tmp_path / "v.ckpt"
        ckpt.write_bytes(b"BADMAGIC" + struct.pack("<II", 1, 31) + b"\x00" * 256)
        assert run(["vae", "eval", "--model", str(ckpt),
                    "--out", str(tmp_path / "e.csv")]) == 4

    @pytest.mark.parametrize("command, bad, count, index, value", [
        ("eval", "model", VAE_PARAM_COUNT, 0, math.nan),
        ("train-cnet", "model", VAE_PARAM_COUNT, VAE_PARAM_COUNT, -1.0),
        ("eval", "cnet", CNET_PARAM_COUNT, 3, math.inf),
    ])
    def test_framed_checkpoint_with_bad_values_exits_4(
            self, tmp_path, capsys, command, bad, count, index, value):
        model = str(tmp_path / "v.ckpt")
        save_model(model, ToyVae.init(5, 0.04))
        path = str(tmp_path / "bad.ckpt")
        write_raw_checkpoint(path, count, index, value)
        args = ["vae", command, "--n", "40", "--out", str(tmp_path / "o.out")]
        if command == "train-cnet":
            args += ["--epochs", "1", "--loss-out", str(tmp_path / "l.csv")]
        if bad == "model":
            args += ["--model", path]
        else:
            args += ["--model", model, "--c", f"cnet:{path}"]
        assert run(args) == 4
        assert "bad.ckpt" in capsys.readouterr().err

    def test_divergent_training_exits_5(self, tmp_path):
        code = run(["vae", "train", "--epochs", "40", "--n", "400",
                    "--decoder-var", "0.005", "--lr", "1e8", "--seed", "2",
                    "--out", str(tmp_path / "v.ckpt"),
                    "--loss-out", str(tmp_path / "l.csv")])
        assert code == 5

    @pytest.mark.parametrize("command,lr", [("train", "nan"), ("train", "inf"),
                                            ("train-cnet", "nan")])
    def test_non_finite_lr_exits_2(self, tmp_path, capsys, command, lr):
        model = str(tmp_path / "v.ckpt")
        save_model(model, ToyVae.init(5, 0.04))
        out = tmp_path / "out.ckpt"
        args = ["vae", command, "--epochs", "2", "--n", "40", "--lr", lr,
                "--out", str(out), "--loss-out", str(tmp_path / "l.csv")]
        code = run(args + (["--model", model] if command == "train-cnet" else []))
        assert code == 2
        assert f"lr={lr}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["out", "loss_out"])
    def test_unwritable_train_output_exits_2_before_training(
            self, tmp_path, monkeypatch, capsys, key):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli.vae, "train", no_training)
        paths = {"out": tmp_path / "v.ckpt", "loss_out": tmp_path / "l.csv"}
        paths[key] = tmp_path / "missing" / "file"
        code = run(["vae", "train", "--epochs", "2", "--n", "40",
                    "--out", str(paths["out"]), "--loss-out", str(paths["loss_out"])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: key {key!r}")
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command, first, second", [
        ("train", "out", "loss_out"),
        ("train-cnet", "out", "loss_out"),
        ("train-cnet", "model", "out"),
        ("train-cnet", "model", "loss_out"),
        ("eval", "model", "out"),
        ("eval", "c", "out"),
    ])
    def test_two_keys_on_one_file_exit_2_before_compute(
            self, tmp_path, monkeypatch, capsys, command, first, second):
        # `train --out X --loss-out X` once wrote the loss CSV over the
        # checkpoint and exited 0, and `eval --c cnet:X --out X` the records
        # over the C network.  The second key spells the file another way,
        # so the paths are compared as files, not as strings.
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran")

        for name in ("train", "train_cnet", "evaluate"):
            monkeypatch.setattr(cli.vae, name, no_compute)
        (tmp_path / "sub").mkdir()
        paths = {"model": tmp_path / "m.ckpt", "out": tmp_path / "o.ckpt",
                 "loss_out": tmp_path / "l.csv", "c": tmp_path / "c.ckpt"}
        save_model(str(paths["model"]), ToyVae.init(1))
        save_cnet(str(paths["c"]), CNet.init(1))
        paths[second] = tmp_path / "sub" / ".." / paths[first].name
        before = {key: paths[key].read_bytes() for key in ("model", "c")}
        keys = {"train": ("out", "loss_out"), "eval": ("model", "c", "out")}.get(
            command, ("model", "out", "loss_out"))
        args = ["vae", command, "--n", "40"]
        for key in keys:
            value = f"cnet:{paths[key]}" if key == "c" else str(paths[key])
            args += ["--" + key.replace("_", "-"), value]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: key {second!r}") and repr(first) in err
        assert {key: paths[key].read_bytes() for key in before} == before
        assert not (tmp_path / "o.ckpt").exists()

    def test_loss_manifest_on_the_checkpoint_exits_2_before_training(
            self, tmp_path, monkeypatch, capsys):
        # `train --out v.csv.manifest.json --loss-out v.csv` once exited 0
        # with the loss CSV's manifest written over the checkpoint.
        def no_training(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli.vae, "train", no_training)
        ckpt = tmp_path / "v.csv.manifest.json"
        code = run(["vae", "train", "--n", "40", "--out", str(ckpt),
                    "--loss-out", str(tmp_path / "v.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'loss_out'")
        assert "key 'out' names the same file" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("model", ["e.csv.ksweep.csv",
                                       "e.csv.ksweep.csv.manifest.json"])
    def test_k_sweep_output_on_the_model_exits_2_before_compute(
            self, tmp_path, monkeypatch, capsys, model):
        # `eval --k-sweep 1,4 --model e.csv.ksweep.csv --out e.csv` once
        # exited 0 with the k-sweep CSV written over the model it read.
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran")

        monkeypatch.setattr(cli.vae, "evaluate", no_compute)
        path = tmp_path / model
        save_model(str(path), ToyVae.init(1))
        before = path.read_bytes()
        code = run(["vae", "eval", "--n", "40", "--k-sweep", "1,4",
                    "--model", str(path), "--out", str(tmp_path / "e.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'out'")
        assert "key 'model' names the same file" in err
        assert path.read_bytes() == before
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_emit_gnuplot_without_k_sweep_exits_2_before_compute(
            self, tmp_path, monkeypatch, capsys, form):
        # eval plots only its k-sweep: `--emit-gnuplot` without `--k-sweep`
        # once exited 0 with no script written.
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran")

        monkeypatch.setattr(cli.vae, "evaluate", no_compute)
        model = tmp_path / "m.ckpt"
        save_model(str(model), ToyVae.init(1))
        args = ["vae", "eval", "--n", "40", "--k", "2", "--model", str(model),
                "--out", str(tmp_path / "e.csv")]
        if form == "flag":
            args.append("--emit-gnuplot")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("emit-gnuplot=yes\n")
            args += ["--config", str(cfg)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'emit_gnuplot'")
        assert set(tmp_path.iterdir()) == {model} | (
            {tmp_path / "run.cfg"} if form == "config" else set())

    def test_eval_emit_gnuplot_plots_the_k_sweep(self, tmp_path):
        model = tmp_path / "m.ckpt"
        save_model(str(model), ToyVae.init(1))
        out = tmp_path / "e.csv"
        assert run(["vae", "eval", "--n", "40", "--k", "2", "--k-sweep", "1,2",
                    "--model", str(model), "--out", str(out),
                    "--emit-gnuplot"]) == 0
        script = (tmp_path / "e.csv.ksweep.csv.gnuplot").read_text()
        assert f"'{out}.ksweep.csv' using 1:3" in script
        assert not (tmp_path / "e.csv.gnuplot").exists()

    def test_train_cnet_requires_model(self, tmp_path):
        assert run(["vae", "train-cnet", "--model", str(tmp_path / "no.ckpt"),
                    "--out", str(tmp_path / "c.ckpt"),
                    "--loss-out", str(tmp_path / "l.csv")]) == 4


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", [["analytic"], ["verify"], ["vae", "train"],
                                     ["vae", "train-cnet"], ["vae", "eval"]],
                         ids=" ".join)
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, command, seed):
    # derive_key reads a seed modulo 2^64, so --seed -1 would silently give
    # the streams of --seed 18446744073709551615.
    out = tmp_path / "o.csv"
    code = run([*command, "--seed", seed, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: key 'seed'")
    assert not out.exists()


def test_seed_outside_64_bits_in_a_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"seed={1 << 64}\n")
    code = run(["analytic", "--config", str(config),
                "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: key 'seed'")


COMMANDS = {
    "analytic": (["analytic"], cli.ANALYTIC_DEFAULTS),
    "verify": (["verify"], cli.VERIFY_DEFAULTS),
    "train": (["vae", "train"], cli.TRAIN_DEFAULTS),
    "train-cnet": (["vae", "train-cnet"], cli.CNET_DEFAULTS),
    "eval": (["vae", "eval"], cli.EVAL_DEFAULTS),
}
# A malformed value of each spec option, which only its own parser rejects.
BAD_SPECS = {"dist": "gamma:a=x,theta=1", "data": "bogus", "k": "1,x",
             "k_sweep": "2,1", "c_policy": "best", "objective": "iwae",
             "c": "bogus"}


def one_error_line(capsys, start: str) -> str:
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(start), captured.err
    assert "usage:" not in captured.err and captured.out == ""
    return err[0]


@pytest.fixture
def no_inputs(monkeypatch):
    """Fail the test if a command reads a checkpoint, draws data or starts
    its compute."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command read an input or drew data")

    for owner, name in ((cli.vae, "load_model"), (cli.vae, "load_cnet"),
                        (cli, "sample"), (cli, "run_sweep"), (cli, "run_verify")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("command, key, bad", [
    ("analytic", "n", "x"),
    ("train", "lr", "fast"),
    *[(command, key, BAD_SPECS[key])
      for command, key in (("analytic", "dist"), ("analytic", "k"),
                           ("analytic", "c_policy"), ("train", "data"),
                           ("train", "objective"), ("eval", "k_sweep"),
                           ("eval", "c"))],
])
def test_a_flag_and_a_config_key_give_one_line_naming_the_key(
        tmp_path, monkeypatch, capsys, no_inputs, command, key, bad):
    # `analytic --n x` once printed argparse's usage block and its own
    # message; `n=x` in a config file printed `config key 'n' ...`.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"{key}={bad}\n")
    words = COMMANDS[command][0]
    assert run([*words, "--" + key.replace("_", "-"), bad]) == 2
    flag = one_error_line(capsys, f"error: key {key!r}: ")
    assert run([*words, "--config", "run.cfg"]) == 2
    assert one_error_line(capsys, "error: ") == flag
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    ["analytic", "--rep", "2"],            # flags match their full names only
    ["analytic", "--bogus"],
    ["analytic", "--n"],
    [],
    ["vae"],
    ["analytic", "--emit-gnuplot=yes"],
    ["analytic", "--emit-gnuplot", "yes"],
], ids=" ".join)
def test_an_argparse_failure_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys,
                                                     no_inputs, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    one_error_line(capsys, "error: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["vae", "eval", "--help"]])
def test_help_and_version_print_and_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def malformed_options():
    """(command, key, argv tail) for every option of every command that has
    a malformed form: a number that does not convert, a boolean word that
    is neither (tail None: a boolean flag takes no text, so a config file
    gives it), a spec its parser rejects."""
    for command, (_, defaults) in COMMANDS.items():
        for key, default in defaults.items():
            if isinstance(default, bool):
                yield command, key, None
            elif isinstance(default, (int, float)):
                yield command, key, ["--" + key.replace("_", "-"), "x"]
            elif key in BAD_SPECS:
                yield command, key, ["--" + key.replace("_", "-"), BAD_SPECS[key]]


@pytest.mark.parametrize("command, key, tail", list(malformed_options()),
                         ids=[f"{c} {k}" for c, k, _ in malformed_options()])
def test_every_malformed_option_exits_2_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, no_inputs, command, key, tail):
    # `eval --model m.ckpt --c bogus` once read the model first, and
    # `train --objective bogus` drew its data before it rejected the value.
    monkeypatch.chdir(tmp_path)
    save_model("m.ckpt", ToyVae.init(1))
    save_cnet("c.ckpt", CNet.init(2))
    argv = COMMANDS[command][0] + {"train-cnet": ["--model", "m.ckpt"],
                                   "eval": ["--model", "m.ckpt"]}.get(command, [])
    if command == "eval" and key != "c":
        argv += ["--c", "cnet:c.ckpt"]
    if tail is None:
        Path("run.cfg").write_text(f"{key}=ture\n")
        tail = ["--config", "run.cfg"]
    assert run([*argv, *tail]) == 2
    one_error_line(capsys, f"error: key {key!r}: ")
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["m.ckpt", "c.ckpt"] + (["run.cfg"] if "--config" in tail else []))


@pytest.mark.parametrize("value", ["x", "-1"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_bad_thread_count_exits_2_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, no_inputs, command, value):
    # GAPSANDWICH_THREADS=x once failed `verify` after 12 properties and
    # `eval --model missing.ckpt` with exit 4, and `train` never read it.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(THREADS_ENV, value)
    assert run([*COMMANDS[command][0], "--model", "missing.ckpt"]
               if command in ("train-cnet", "eval") else COMMANDS[command][0]) == 2
    assert THREADS_ENV in one_error_line(capsys, "error: ")
    assert os.listdir(tmp_path) == []


def test_the_module_exits_2_with_one_line_on_a_bad_flag(tmp_path):
    src = str(Path(gapsandwich.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "gapsandwich.cli", "analytic",
                           "--n", "x"], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stderr == "error: key 'n': expected an integer, got 'x'\n"
    assert proc.stdout == "" and os.listdir(tmp_path) == []


def gnuplot_strings(line: str) -> list[str]:
    """The single-quoted strings of a gnuplot line, each '' read as '."""
    return [text.replace("''", "'") for text in re.findall(r"'((?:[^']|'')*)'", line)]


@pytest.mark.parametrize("command", ["analytic", "eval"])
def test_the_plot_quotes_its_path_and_finds_its_columns_by_name(tmp_path, command):
    # A ' in the path once ended the plot's string early, so gnuplot could
    # not parse the script.
    out = tmp_path / "it's.csv"
    if command == "analytic":
        argv = ["analytic", "--n", "20", "--k", "1,2", "--replications", "1"]
        data, columns = out, ("k", "lower_mean", "upper_mean")
    else:
        model = tmp_path / "m.ckpt"
        save_model(str(model), ToyVae.init(1))
        argv = ["vae", "eval", "--n", "20", "--k", "2", "--k-sweep", "1,2",
                "--model", str(model)]
        data, columns = Path(f"{out}.ksweep.csv"), ("k", "lower", "upper")
    assert run([*argv, "--emit-gnuplot", "--out", str(out)]) == 0
    plot = Path(f"{data}.gnuplot").read_text().splitlines()[-1]
    assert gnuplot_strings(plot) == [str(data), "lower", str(data), "upper"]
    header = data.read_text().splitlines()[0].split(",")
    named = [(header[int(x) - 1], header[int(y) - 1])
             for x, y in re.findall(r"using (\d+):(\d+)", plot)]
    assert named == [columns[:2], columns[::2]]


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 14.6 TiB for an array with shape (1000000000001,) "
     "and data type float64", "error: Unable to allocate 14.6 TiB"),
    ("", "error: out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["analytic", "train-cnet", "eval"])
def test_a_refused_allocation_exits_3_with_one_line(tmp_path, monkeypatch, capsys,
                                                    command, message, line):
    # A --k too large for the machine once ended in numpy's traceback and
    # exit 1, verify's failure code.  The allocation is refused by a stub:
    # under overcommit a real one of that size can succeed.
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(gapsandwich.sweep, "_chunk_buffers", refuse)
    monkeypatch.setattr(gapsandwich.vae, "_Workspace", refuse)
    model = tmp_path / "m.ckpt"
    save_model(str(model), ToyVae.init(1))
    out = tmp_path / "o.csv"
    argv = {
        "analytic": ["analytic", "--replications", "1"],
        "train-cnet": ["vae", "train-cnet", "--model", str(model), "--epochs", "1",
                       "--loss-out", str(tmp_path / "loss.csv")],
        "eval": ["vae", "eval", "--model", str(model)],
    }[command]
    code = run([*argv, "--n", "20", "--k", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(line)
    assert not out.exists()


def recorded_writes(monkeypatch) -> list[str]:
    """The paths every _check_writable call lists, as the calls run."""
    listed = []
    check = cli._check_writable

    def recording(writes, reads=None):
        listed.extend(path for paths in writes.values() for path in paths)
        check(writes, reads)

    monkeypatch.setattr(cli, "_check_writable", recording)
    return listed


EVAL_TINY = ["vae", "eval", "--n", "20", "--k", "2", "--out", "o.csv"]


@pytest.mark.parametrize("argv", [
    ["analytic", "--n", "20", "--k", "1,2", "--replications", "1", "--out", "o.csv"],
    ["analytic", "--n", "20", "--k", "1,2", "--replications", "1", "--out", "o.csv",
     "--emit-gnuplot"],
    ["verify", "--out", "o.csv"],
    ["vae", "train", "--epochs", "1", "--n", "50", "--batch", "50",
     "--out", "o.ckpt", "--loss-out", "loss.csv"],
    ["vae", "train-cnet", "--epochs", "1", "--n", "20", "--k", "2",
     "--n-pairs", "1", "--out", "o.ckpt", "--loss-out", "loss.csv"],
    EVAL_TINY,
    [*EVAL_TINY, "--k-sweep", "1,2"],
    [*EVAL_TINY, "--k-sweep", "1,2", "--emit-gnuplot"],
], ids=" ".join)
def test_a_command_writes_exactly_the_files_it_checked(tmp_path, monkeypatch, argv):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    model, cnet = str(inputs / "m.ckpt"), str(inputs / "c.ckpt")
    save_model(model, ToyVae.init(1))
    save_cnet(cnet, CNet.init(2))
    monkeypatch.setattr(cli, "run_verify", lambda seed, quick=False: [
        verify.PropertyResult("stub", 0.5)])
    listed = recorded_writes(monkeypatch)
    monkeypatch.chdir(outputs)
    reads = {"train-cnet": ["--model", model],
             "eval": ["--model", model, "--c", f"cnet:{cnet}"]}.get(argv[1], [])
    assert run([*argv, *reads]) == 0
    assert sorted(os.listdir(outputs)) == sorted(listed)
    # Each manifest digests the checkpoints the command read, and together
    # they digest every other file it wrote: checkpoints and plots included.
    def sha256(path: str) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    read = {"train-cnet": [model], "eval": [model, cnet]}.get(argv[1], [])
    manifests = [json.loads(Path(path).read_text()) for path in listed
                 if path.endswith(".manifest.json")]
    assert manifests and all(m["inputs"] == {path: sha256(path) for path in read}
                             for m in manifests)
    assert {path: digest for m in manifests for path, digest in m["outputs"].items()
            } == {path: sha256(path) for path in listed
                  if not path.endswith(".manifest.json")}


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in gapsandwich.__all__
            if not hasattr(gapsandwich, name)] == []
    namespace = {}
    exec("from gapsandwich import *", namespace)
    assert set(gapsandwich.__all__) <= set(namespace)


def loaded_by_importing_the_cli(module: str) -> bool:
    src = str(Path(gapsandwich.__file__).resolve().parents[1])
    probe = f"import sys, gapsandwich.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return proc.stdout.strip() == "True"


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # scipy.special adds about 0.3 s and 20 MB to every command's start-up,
    # and only Gamma.mean_log needs it.
    assert not loaded_by_importing_the_cli("scipy.special")


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random adds about 2.5 MB at import; loading it there, before any
    # command draws, raised the peak RSS of the case study, which never
    # runs a sweep, by about 0.4 MB.
    assert not loaded_by_importing_the_cli("numpy.random")


def test_readme_file_formats_spell_every_csv_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    formats = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    for header in (CSV_HEADER, cli.EVAL_RECORD_HEADER, cli.EVAL_SWEEP_HEADER,
                   verify.VERIFY_CSV_HEADER):
        assert header in formats, header


def test_readme_cli_examples_parse():
    # Every command in README's CLI block parses, and so do its values of
    # the flags whose grammar the commands check after parsing.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gapsandwich ")]
    assert len(commands) >= 6
    checks = {"--c-policy": CPolicy.parse, "--dist": parse_dist,
              "--data": parse_dist, "--k": cli._parse_k_list,
              "--k-sweep": cli._parse_k_list}
    parser = cli.build_parser()
    seen = set()
    for argv in commands:
        assert callable(parser.parse_args(argv[1:]).func), argv
        for flag, value in zip(argv, argv[1:]):
            if flag in checks:
                checks[flag](value)
                seen.add(flag)
    assert {"--c-policy", "--dist", "--k"} <= seen
