import json
import struct

import numpy as np
import pytest

from gapsandwich.cli import main
from gapsandwich.rng import derive_key
from gapsandwich.samples import PairedSamples
from gapsandwich.sweep import CSV_HEADER
from gapsandwich.vae import ToyVae, load_model


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

    def test_bad_c_policy_exits_2(self, tmp_path):
        assert run(["analytic", "--dist", "constant:c=1", "--c-policy", "best",
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_emit_gnuplot_writes_companion(self, tmp_path):
        out = str(tmp_path / "g.csv")
        code = run(["analytic", "--dist", "constant:c=1", "--k", "1", "--n", "100",
                    "--replications", "1", "--seed", "1", "--out", out,
                    "--emit-gnuplot"])
        assert code == 0
        assert (tmp_path / "g.csv.gnuplot").exists()

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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("replicas=3\n")
        code = run(["analytic", "--dist", "constant:c=1", "--config", str(cfg),
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "replicas" in capsys.readouterr().err

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
        assert "emit_gnuplot" in err and "ture" in err
        assert not (tmp_path / "o.csv").exists()

    def test_shape_mismatch_exits_2(self, tmp_path, monkeypatch, capsys):
        def mismatched(source, cfg):
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

    def test_missing_checkpoint_exits_4(self, tmp_path):
        assert run(["vae", "eval", "--model", str(tmp_path / "missing.ckpt"),
                    "--out", str(tmp_path / "e.csv")]) == 4

    def test_corrupt_magic_exits_4(self, tmp_path):
        ckpt = tmp_path / "v.ckpt"
        ckpt.write_bytes(b"BADMAGIC" + struct.pack("<II", 1, 31) + b"\x00" * 256)
        assert run(["vae", "eval", "--model", str(ckpt),
                    "--out", str(tmp_path / "e.csv")]) == 4

    def test_divergent_training_exits_5(self, tmp_path):
        code = run(["vae", "train", "--epochs", "40", "--n", "400",
                    "--decoder-var", "0.005", "--lr", "1e8", "--seed", "2",
                    "--out", str(tmp_path / "v.ckpt"),
                    "--loss-out", str(tmp_path / "l.csv")])
        assert code == 5

    def test_train_cnet_requires_model(self, tmp_path):
        assert run(["vae", "train-cnet", "--model", str(tmp_path / "no.ckpt"),
                    "--out", str(tmp_path / "c.ckpt"),
                    "--loss-out", str(tmp_path / "l.csv")]) == 4
