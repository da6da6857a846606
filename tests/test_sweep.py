import csv
import math
import tracemalloc

import numpy as np
import pytest

from gapsandwich import verify
from gapsandwich.bounds import optimal_c, sandwich
from gapsandwich.distributions import Constant, Gamma, LogNormal, parse_dist, sample
from gapsandwich.errors import ParseError, SourceFailure
from gapsandwich.rng import derive_key
from gapsandwich.samples import PairedSamples, paired_from_halves
from gapsandwich.sweep import (
    CHUNK_DRAWS,
    CSV_HEADER,
    CPolicy,
    SampleSource,
    SweepConfig,
    apply_c_policy,
    dist_source,
    run_sweep,
    sweep_csv_lines,
    write_sweep_csv,
)


class TestCPolicy:
    def test_parse_variants(self):
        assert CPolicy.parse("zero") == CPolicy("zero")
        assert CPolicy.parse("pilot-optimal") == CPolicy("pilot-optimal")
        assert CPolicy.parse("fixed:1.5") == CPolicy("fixed", 1.5)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            CPolicy.parse("optimal")
        with pytest.raises(ParseError):
            CPolicy.parse("fixed:xyz")

    def test_round_trip(self):
        for text in ("zero", "pilot-optimal", "fixed:0.25"):
            assert CPolicy.parse(CPolicy.parse(text).spec_string()) == CPolicy.parse(text)


class TestApplyCPolicy:
    def test_zero_and_fixed_keep_all_pairs(self):
        s = paired_from_halves(sample(Gamma(2.0, 1.0), 400, 3), 1)
        c, working = apply_c_policy(s, CPolicy("zero"))
        assert c == 0.0 and working.n == s.n
        c, working = apply_c_policy(s, CPolicy("fixed", 0.7))
        assert c == 0.7 and working.n == s.n

    def test_pilot_freezes_c_from_prefix(self):
        s = paired_from_halves(sample(Gamma(2.0, 1.0), 4000, 4), 1)
        c, working = apply_c_policy(s, CPolicy("pilot-optimal"))
        pilot_n = max(64, math.ceil(s.n / 10))
        assert working.n == s.n - pilot_n
        assert c == pytest.approx(optimal_c(s.subset(0, pilot_n)))

    def test_pilot_on_tiny_batch_still_leaves_pairs(self):
        s = paired_from_halves(sample(Gamma(2.0, 1.0), 20, 5), 1)
        c, working = apply_c_policy(s, CPolicy("pilot-optimal"))
        assert working.n >= 1
        assert math.isfinite(c)


class TestSweepConfig:
    def test_k_values_must_increase(self):
        with pytest.raises(ParseError):
            SweepConfig(k_values=(4, 2), n_pairs=10, replications=1, base_seed=0)

    def test_n_pairs_minimum(self):
        with pytest.raises(ParseError):
            SweepConfig(k_values=(1,), n_pairs=1, replications=1, base_seed=0)


class TestRunSweep:
    def test_constant_source_gives_zero_bounds(self):
        cfg = SweepConfig(k_values=(1, 2), n_pairs=50, replications=2, base_seed=1,
                          c_policy=CPolicy("zero"))
        result = run_sweep(dist_source(Constant(1.0)), cfg)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row.report.lower_mean == row.report.upper_mean == 0.0

    def test_gamma_gaps_match_closed_form_sequence(self):
        cfg = SweepConfig(k_values=(1, 2, 4), n_pairs=100_000, replications=1,
                          base_seed=2, c_policy=CPolicy("zero"))
        result = run_sweep(dist_source(Gamma(2.0, 1.0)), cfg)
        for row, exact in zip(result.rows, (1.0, 1.0 / 3.0, 1.0 / 7.0)):
            width = row.report.upper_mean - row.report.lower_mean
            se = row.report.lower_stderr + row.report.upper_stderr
            assert abs(width - exact) <= 3.0 * se

    def test_lognormal_pilot_optimal_bracket(self):
        cfg = SweepConfig(k_values=(1,), n_pairs=100_000, replications=3,
                          base_seed=3, c_policy=CPolicy("pilot-optimal"))
        result = run_sweep(dist_source(LogNormal(0.0, 1.0)), cfg)
        agg = result.aggregates[0]
        assert agg.lower_mean == pytest.approx(0.0, abs=0.02)
        assert agg.upper_mean == pytest.approx(1.0, abs=0.05)
        for row in result.rows:
            assert row.report.midpoint == pytest.approx(0.5, abs=0.05)

    def test_bitwise_reproducible_across_threads(self):
        cfg = SweepConfig(k_values=(1, 4), n_pairs=500, replications=4, base_seed=4)
        source = dist_source(Gamma(2.0, 1.0))
        a = run_sweep(source, cfg, threads=1)
        b = run_sweep(source, cfg, threads=4)
        assert a == b

    def test_row_count_matches_grid(self):
        cfg = SweepConfig(k_values=(1, 2, 4), n_pairs=50, replications=5, base_seed=5)
        result = run_sweep(dist_source(Gamma(2.0, 1.0)), cfg)
        assert len(result.rows) == 15
        assert len(result.aggregates) == 3

    @pytest.mark.parametrize("n_pairs", [2, 3])
    def test_pilot_on_minimal_cells_bounds_one_pair(self, n_pairs):
        cfg = SweepConfig(k_values=(1, 4), n_pairs=n_pairs, replications=2,
                          base_seed=9)
        result = run_sweep(dist_source(Gamma(2.0, 1.0)), cfg)
        for row in result.rows:
            rep = row.report
            assert rep.n == 1
            assert math.isfinite(rep.lower_mean) and math.isfinite(rep.upper_mean)
            assert rep.lower_stderr == rep.upper_stderr == math.inf
        assert "inf" in sweep_csv_lines(result, "d", "m")[1].split(",")

    @pytest.mark.parametrize("policy, bounded", [("zero", 16), ("pilot-optimal", 1)])
    def test_k_equal_to_n_pairs(self, policy, bounded):
        cfg = SweepConfig(k_values=(1, 16), n_pairs=16, replications=1, base_seed=10,
                          c_policy=CPolicy.parse(policy))
        rep = run_sweep(dist_source(Gamma(2.0, 1.0)), cfg).rows[-1].report
        assert rep.n == bounded
        assert math.isfinite(rep.lower_mean) and math.isfinite(rep.upper_mean)

    def test_source_failure_is_wrapped(self):
        def broken(n, seed):
            raise RuntimeError("backend down")

        cfg = SweepConfig(k_values=(1,), n_pairs=10, replications=1, base_seed=6)
        with pytest.raises(SourceFailure, match="backend down"):
            run_sweep(SampleSource("broken", broken), cfg)


class TestChunkedCells:
    """Each cell draws chunks of CHUNK_DRAWS // (2k) pairs, chunk j from the
    stream derive_key(cell_seed, j); the last chunk is short."""

    K = 64
    PER_CHUNK = CHUNK_DRAWS // (2 * K)

    def test_pairs_are_the_concatenated_chunks(self):
        n_pairs = 2 * self.PER_CHUNK + 37
        cfg = SweepConfig(k_values=(self.K,), n_pairs=n_pairs, replications=1,
                          base_seed=11, c_policy=CPolicy("zero"))
        source = dist_source(LogNormal(0.0, 1.0))
        row = run_sweep(source, cfg, threads=1).rows[0]
        assert row.seed == derive_key(11, 0, self.K)
        chunks = [
            paired_from_halves(source.draw(2 * m * self.K, derive_key(row.seed, j)),
                               self.K)
            for j, m in enumerate((self.PER_CHUNK, self.PER_CHUNK, 37))
        ]
        expected = PairedSamples(np.concatenate([c.lx for c in chunks]),
                                 np.concatenate([c.d for c in chunks]), k=self.K)
        assert row.report == sandwich(expected, 0.0)
        assert row.report.n == n_pairs

    def test_multi_chunk_sweep_is_identical_across_threads(self):
        cfg = SweepConfig(k_values=(16, self.K), n_pairs=self.PER_CHUNK + 1000,
                          replications=2, base_seed=12)
        source = dist_source(Gamma(2.0, 1.0))
        assert run_sweep(source, cfg, threads=1) == run_sweep(source, cfg, threads=2)

    def test_failure_in_a_later_chunk_is_wrapped(self):
        calls = []

        def fails_second(n, seed):
            calls.append(seed)
            if len(calls) == 2:
                raise RuntimeError("chunk two lost")
            return np.ones(n)

        cfg = SweepConfig(k_values=(self.K,), n_pairs=self.PER_CHUNK + 1,
                          replications=1, base_seed=13)
        with pytest.raises(SourceFailure, match="chunk two lost"):
            run_sweep(SampleSource("flaky", fails_second), cfg, threads=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_verify_compares_threads_across_a_chunk_boundary(self, n, monkeypatch):
        configs = []

        def recording_run_sweep(source, cfg, threads=None):
            configs.append(cfg)
            return run_sweep(source, cfg, threads=threads)

        monkeypatch.setattr(verify, "run_sweep", recording_run_sweep)
        assert verify.check_sweep_reproducibility(7, n).passed
        assert any(
            cfg.n_pairs > max(1, CHUNK_DRAWS // (2 * k))
            for cfg in configs for k in cfg.k_values
        )

    @pytest.mark.parametrize("spec", ["lognormal:m=0,sigma=1", "gamma:a=2,theta=1"])
    def test_cell_memory_is_bounded(self, spec):
        # 2 * 10^5 * 64 raw draws would take 102 MB if held at once.
        cfg = SweepConfig(k_values=(64,), n_pairs=100_000, replications=1,
                          base_seed=14)
        source = dist_source(parse_dist(spec))
        tracemalloc.start()
        try:
            run_sweep(source, cfg, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestSweepCsv:
    def test_header_and_shape(self, tmp_path):
        cfg = SweepConfig(k_values=(1,), n_pairs=100, replications=2, base_seed=7,
                          c_policy=CPolicy("fixed", 0.5))
        result = run_sweep(dist_source(Gamma(2.0, 1.0)), cfg)
        path = tmp_path / "out.csv"
        write_sweep_csv(str(path), result, dataset="gamma:a=2,theta=1",
                        model="analytic")
        blob = path.read_bytes()
        assert b"\r" not in blob
        lines = blob.decode("utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        fields = next(csv.reader([lines[1]]))
        assert fields[0] == "gamma:a=2,theta=1"
        assert fields[1] == "analytic"
        assert float(fields[11]) == 0.5  # c_used column
        assert fields[13] == "0"  # saturated_pairs

    def test_labels_with_quotes_commas_and_newlines_round_trip(self, tmp_path):
        cfg = SweepConfig(k_values=(1, 2), n_pairs=20, replications=1, base_seed=15)
        result = run_sweep(dist_source(Gamma(2.0, 1.0)), cfg)
        dataset, model = 'say "hi", twice', 'line one\nline, "two"'
        path = tmp_path / "labels.csv"
        write_sweep_csv(str(path), result, dataset=dataset, model=model)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert ",".join(rows[0]) == CSV_HEADER
        assert len(rows) == 3
        for fields in rows[1:]:
            assert fields[:2] == [dataset, model]
            assert len(fields) == len(rows[0])

    def test_float_fields_round_trip(self):
        cfg = SweepConfig(k_values=(1,), n_pairs=100, replications=1, base_seed=8)
        result = run_sweep(dist_source(LogNormal(0.0, 1.0)), cfg)
        line = sweep_csv_lines(result, "d", "m")[1]
        fields = line.split(",")
        assert float(fields[6]) == result.rows[0].report.lower_mean
        assert float(fields[12]) == result.rows[0].report.midpoint
