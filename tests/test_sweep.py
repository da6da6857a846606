import csv
import gc
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsandwich import parallel, sweep, verify
from gapsandwich.accumulate import LogSumExp, Moments, log_mean_exp
from gapsandwich.bounds import UpperPartial, bound_report, pairwise_at, sandwich
from gapsandwich.distributions import Constant, Gamma, LogNormal, parse_dist, sample
from gapsandwich.errors import ParseError
from gapsandwich.parallel import THREADS_ENV, resolve_threads
from gapsandwich.rng import derive_key
from gapsandwich.samples import PairedSamples, paired_from_halves
from gapsandwich.sweep import (
    CHUNK_FLOATS,
    CSV_HEADER,
    CPolicy,
    SweepConfig,
    run_sweep,
    sweep_csv_rows,
    write_sweep_csv,
)
from sweep_reference import chunk_pairs, cross_fitted_cs, pairs_of, reference_rows


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

    @pytest.mark.parametrize("kind", ["zero", "pilot-optimal"])
    def test_a_value_without_the_fixed_kind_is_an_error(self, kind):
        # The value would be ignored: zero sweeps at C = 0, pilot-optimal
        # at its cross-fitted Cs.
        with pytest.raises(ParseError, match=kind):
            CPolicy(kind, 0.7)
        assert CPolicy(kind, 0.0) == CPolicy(kind)

    @pytest.mark.parametrize("text", ["zero:0.7", "zero:", "pilot-optimal:garbage",
                                      " Pilot-Optimal : 1"])
    def test_a_suffix_after_zero_or_pilot_optimal_is_an_error(self, text):
        # parse once dropped it: zero:0.7 swept at C = 0.  The CLI names the
        # option's key; the library names the policy.
        with pytest.raises(ParseError, match="unknown c-policy"):
            CPolicy.parse(text)

    @pytest.mark.parametrize("policy", ["zero", "fixed:0.1", "fixed:-1e308"])
    def test_zero_and_fixed_give_every_fold_their_value(self, policy):
        folds = [LogSumExp.of(np.array([v, 2.0 * v])) for v in (1.0, -3.0, 40.0)]
        cpolicy = CPolicy.parse(policy)
        assert cpolicy.fold_cs(folds) == [cpolicy.value] * 3


@st.composite
def folds(draw):
    """Finite pairs (lx, d), 2 to 48 of them, split into 2 to 9 contiguous
    folds, and a second d for each fold, as long as its own."""
    n = draw(st.integers(2, 48))
    lx = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    d = np.array(draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=8)))
    other = [np.array(draw(st.lists(st.floats(-300.0, 300.0), min_size=f.size,
                                    max_size=f.size)))
             for f in np.split(d, cuts)]
    return np.split(lx, cuts), np.split(d, cuts), other


class TestFolds:
    """pilot-optimal bounds each fold of a cell, one chunk, at C = log mean
    e^d over the cell's other folds."""

    @given(folds())
    def test_each_fold_is_bounded_at_the_log_mean_exp_of_the_others(self, folds):
        # The tolerances are relative, in units of at least 1 for C, and of
        # the terms' scale for the moments, as in test_bounds: C can be 0,
        # and the moments can cancel.
        lxs, ds, other = folds
        policy = CPolicy("pilot-optimal")
        parts = [LogSumExp.of(d) for d in ds]
        cs = policy.fold_cs(parts)
        assert len(cs) == len(ds)
        for f, c in enumerate(cs):
            want = log_mean_exp(np.concatenate(ds[:f] + ds[f + 1:]))
            assert abs(c - want) <= 1e-13 * max(1.0, abs(want))
            # The fold's own d does not reach its C, not even by rounding.
            swapped = parts[:f] + [LogSumExp.of(other[f])] + parts[f + 1:]
            assert policy.fold_cs(swapped)[f] == c
            # The fold's partial at its C is its pairs bounded pair by pair.
            got = UpperPartial.of(lxs[f], ds[f]).at(c)
            *want_moments, saturated = pairwise_at(lxs[f], ds[f], c)
            assert saturated == 0 and got[2] == 0
            width_scale = max(abs(c - 1.0), math.exp(ds[f].max() - c),
                              np.finfo(float).tiny)
            for got_m, want_m, scale in zip(got[:2], want_moments, (
                    max(np.abs(lxs[f]).max(), width_scale), width_scale)):
                (mean, std), (want_mean, want_std) = (got_m.mean_std(),
                                                      want_m.mean_std())
                assert abs(mean - want_mean) <= 1e-13 * scale
                assert abs((std / scale) ** 2 - (want_std / scale) ** 2) <= 1e-13

    @pytest.mark.parametrize("dist, log_mean", [
        (Gamma(2.0, 1.0), math.log(2.0)), (LogNormal(0.0, 1.5), 1.5**2 / 2)])
    def test_the_mean_upper_bound_holds_over_replications(self, dist, log_mean):
        # Each cell is two folds of 25 pairs at k = 64, where the bound is
        # tight: the mean upper bound lies 8.5 se above log E X for the gamma
        # law, and 17 se above for the lognormal one.
        cfg = SweepConfig(k_values=(64,), n_pairs=50, replications=400,
                          base_seed=33)
        uppers = np.array([row.report.upper_mean
                           for row in run_sweep(dist, cfg).rows])
        se = uppers.std(ddof=1) / math.sqrt(uppers.size)
        assert uppers.mean() >= log_mean - 3.0 * se


def one_cell(dist, n_pairs, k, base_seed, policy, threads=1):
    """The report of a one-cell sweep, and the pairs that cell drew."""
    cfg = SweepConfig(k_values=(k,), n_pairs=n_pairs, replications=1,
                      base_seed=base_seed, c_policy=policy)
    row = run_sweep(dist, cfg, threads=threads).rows[0]
    return row.report, pairs_of(chunk_pairs(dist, row.seed, k, n_pairs))


class TestCPolicyCells:
    """The C policy as a cell applies it: every policy bounds every pair,
    zero and fixed at their C, pilot-optimal each fold at the C of the
    cell's other folds."""

    def test_zero_and_fixed_keep_all_pairs(self):
        # 200 pairs fit one chunk, so the cell is two folds of 100.
        for policy, c in ((CPolicy("zero"), 0.0), (CPolicy("fixed", 0.7), 0.7)):
            rep, pairs = one_cell(Gamma(2.0, 1.0), 200, 1, 3, policy)
            assert rep.c_used == c and rep.n == pairs.n == 200
            parts = [UpperPartial.of(pairs.lx[a:b], pairs.d[a:b])
                     for a, b in ((0, 100), (100, 200))]
            assert rep == bound_report([(p, p.at(c)) for p in parts], c, 1)
            whole = sandwich(pairs, c)
            for name in ("lower_mean", "lower_stderr", "upper_mean",
                         "upper_stderr", "width", "width_stderr", "midpoint"):
                x, y = getattr(rep, name), getattr(whole, name)
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), name

    def test_pilot_optimal_bounds_each_half_at_the_other_halfs_c(self):
        # 2001 pairs fit one chunk, so the cell is two folds, of 1001 and
        # 1000 pairs; c_used is the mean C over the pairs.
        rep, pairs = one_cell(Gamma(2.0, 1.0), 2001, 1, 4, CPolicy("pilot-optimal"))
        cs = [log_mean_exp(pairs.d[1001:]), log_mean_exp(pairs.d[:1001])]
        assert rep.n == 2001
        assert rep.c_used == math.fsum([1001 * cs[0], 1000 * cs[1]]) / 2001
        upper, widths, saturated = pairwise_at(pairs.lx, pairs.d,
                                               np.repeat(cs, [1001, 1000]))
        whole = sandwich(pairs, 0.0)
        assert rep.saturated_pairs == saturated == 0
        for got, want in (
                ((rep.lower_mean, rep.lower_stderr),
                 (whole.lower_mean, whole.lower_stderr)),
                ((rep.upper_mean, rep.upper_stderr), upper.mean_stderr()),
                ((rep.width, rep.width_stderr), widths.mean_stderr()),
                ((rep.ratio_mean, rep.midpoint), (whole.ratio_mean,
                                                  whole.midpoint))):
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y))

    def test_pilot_on_tiny_batch_still_leaves_pairs(self):
        rep, _ = one_cell(Gamma(2.0, 1.0), 10, 1, 5, CPolicy("pilot-optimal"))
        assert rep.n == 10
        assert math.isfinite(rep.c_used) and math.isfinite(rep.upper_stderr)


class TestSweepConfig:
    def test_k_values_must_increase(self):
        with pytest.raises(ParseError):
            SweepConfig(k_values=(4, 2), n_pairs=10, replications=1, base_seed=0)

    def test_n_pairs_minimum(self):
        with pytest.raises(ParseError):
            SweepConfig(k_values=(1,), n_pairs=1, replications=1, base_seed=0)

    @pytest.mark.parametrize("name, value", [
        ("k_values", (1.9, 4.2)), ("k_values", (True, 2)),
        ("k_values", (np.bool_(True),)), ("n_pairs", 1000.5),
        ("n_pairs", np.float64(1000.0)), ("replications", 2.5),
        ("replications", True), ("base_seed", 1.0),
    ])
    def test_non_integers_are_parse_errors(self, name, value):
        # Not truncated to an int, and not left for numpy to reject mid-run.
        fields = dict(k_values=(1,), n_pairs=10, replications=1, base_seed=0)
        fields[name] = value
        with pytest.raises(ParseError, match=name):
            SweepConfig(**fields)

    def test_numpy_integers_become_ints(self):
        cfg = SweepConfig(k_values=(np.int64(1), np.uint8(4)), n_pairs=np.int32(10),
                          replications=np.int64(2), base_seed=np.uint64(2**63))
        assert cfg == SweepConfig(k_values=(1, 4), n_pairs=10, replications=2,
                                  base_seed=2**63)
        values = (*cfg.k_values, cfg.n_pairs, cfg.replications, cfg.base_seed)
        assert all(type(v) is int for v in values)


class TestRunSweep:
    def test_constant_source_gives_zero_bounds(self):
        cfg = SweepConfig(k_values=(1, 2), n_pairs=50, replications=2, base_seed=1,
                          c_policy=CPolicy("zero"))
        result = run_sweep(Constant(1.0), cfg)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row.report.lower_mean == row.report.upper_mean == 0.0

    def test_gamma_gaps_match_closed_form_sequence(self):
        cfg = SweepConfig(k_values=(1, 2, 4), n_pairs=100_000, replications=1,
                          base_seed=2, c_policy=CPolicy("zero"))
        result = run_sweep(Gamma(2.0, 1.0), cfg)
        for row, exact in zip(result.rows, (1.0, 1.0 / 3.0, 1.0 / 7.0)):
            width = row.report.upper_mean - row.report.lower_mean
            se = row.report.lower_stderr + row.report.upper_stderr
            assert abs(width - exact) <= 3.0 * se

    def test_lognormal_pilot_optimal_bracket(self):
        cfg = SweepConfig(k_values=(1,), n_pairs=100_000, replications=3,
                          base_seed=3, c_policy=CPolicy("pilot-optimal"))
        result = run_sweep(LogNormal(0.0, 1.0), cfg)
        agg = result.aggregates[0]
        assert agg.lower_mean == pytest.approx(0.0, abs=0.02)
        assert agg.upper_mean == pytest.approx(1.0, abs=0.05)
        for row in result.rows:
            assert row.report.midpoint == pytest.approx(0.5, abs=0.05)

    def test_bitwise_reproducible_across_threads(self):
        cfg = SweepConfig(k_values=(1, 4), n_pairs=500, replications=4, base_seed=4)
        a = run_sweep(Gamma(2.0, 1.0), cfg, threads=1)
        b = run_sweep(Gamma(2.0, 1.0), cfg, threads=4)
        assert a == b

    def test_row_count_matches_grid(self):
        cfg = SweepConfig(k_values=(1, 2, 4), n_pairs=50, replications=5, base_seed=5)
        result = run_sweep(Gamma(2.0, 1.0), cfg)
        assert len(result.rows) == 15
        assert len(result.aggregates) == 3

    def test_aggregate_width_is_the_mean_of_the_rows_paired_widths(self):
        cfg = SweepConfig(k_values=(1, 4), n_pairs=500, replications=3,
                          base_seed=6)
        result = run_sweep(Gamma(2.0, 1.0), cfg)
        for agg in result.aggregates:
            widths = [row.report.width for row in result.rows if row.k == agg.k]
            assert agg.width == pytest.approx(np.mean(widths), rel=1e-15)

    @pytest.mark.parametrize("n_pairs", [2, 3])
    def test_pilot_on_minimal_cells_bounds_every_pair(self, n_pairs):
        # Two folds, of one pair and of one or two, each bounded at the C of
        # the other: every stderr is finite.
        cfg = SweepConfig(k_values=(1, 4), n_pairs=n_pairs, replications=2,
                          base_seed=9)
        result = run_sweep(Gamma(2.0, 1.0), cfg)
        assert result.rows == reference_rows(Gamma(2.0, 1.0), cfg)
        for row in result.rows:
            rep = row.report
            assert rep.n == n_pairs
            for value in (rep.lower_mean, rep.lower_stderr, rep.upper_mean,
                          rep.upper_stderr, rep.width_stderr):
                assert math.isfinite(value)
        assert math.inf not in next(sweep_csv_rows(result, "d", "m"))

    @pytest.mark.parametrize("policy, bounded", [("zero", 16), ("pilot-optimal", 16)])
    def test_k_equal_to_n_pairs(self, policy, bounded):
        cfg = SweepConfig(k_values=(1, 16), n_pairs=16, replications=1, base_seed=10,
                          c_policy=CPolicy.parse(policy))
        rep = run_sweep(Gamma(2.0, 1.0), cfg).rows[-1].report
        assert rep.n == bounded
        assert math.isfinite(rep.lower_mean) and math.isfinite(rep.upper_mean)

    def test_source_failure_is_wrapped(self, monkeypatch):
        # A sampler's error reaches the caller as it was raised.
        def broken(d, n, seed, out, *, bit_generator):
            raise RuntimeError("backend down")

        monkeypatch.setattr(sweep, "sample", broken)
        cfg = SweepConfig(k_values=(1,), n_pairs=10, replications=1, base_seed=6)
        with pytest.raises(RuntimeError, match="backend down"):
            run_sweep(Gamma(2.0, 1.0), cfg)


class TestChunkedCells:
    """Each cell draws chunks of CHUNK_FLOATS // (2k + 1) pairs, chunk j from
    the SFC64 stream under derive_key(cell_seed, j); the last chunk is
    short, and a cell that one chunk would hold is drawn as two halves."""

    K = 64
    PER_CHUNK = CHUNK_FLOATS // (2 * K + 1)

    def test_pairs_are_the_concatenated_chunks(self):
        n_pairs = 2 * self.PER_CHUNK + 37
        cfg = SweepConfig(k_values=(self.K,), n_pairs=n_pairs, replications=1,
                          base_seed=11, c_policy=CPolicy("zero"))
        row = run_sweep(LogNormal(0.0, 1.0), cfg, threads=1).rows[0]
        assert row.seed == derive_key(11, 0, self.K)
        chunks = [
            paired_from_halves(sample(LogNormal(0.0, 1.0), 2 * m * self.K,
                                      derive_key(row.seed, j),
                                      bit_generator=np.random.SFC64), self.K)
            for j, m in enumerate((self.PER_CHUNK, self.PER_CHUNK, 37))
        ]
        expected = PairedSamples(np.concatenate([c.lx for c in chunks]),
                                 np.concatenate([c.d for c in chunks]), k=self.K)
        # The chunks' partials, merged in chunk order; no exponent saturates,
        # so each chunk's upper terms come from its UpperPartial at C.
        partials = [UpperPartial.of(c.lx, c.d) for c in chunks]
        assert row.report == bound_report(
            [(part, part.at(0.0)) for part in partials], 0.0, self.K)
        lower = reduce(Moments.merge, (Moments.of(c.lx) for c in chunks))
        log_ratio = reduce(LogSumExp.merge, (LogSumExp.of(c.d) for c in chunks))
        assert (row.report.lower_mean, row.report.lower_stderr) == lower.mean_stderr()
        widths = reduce(Moments.merge, (part.at(0.0)[1] for part in partials))
        assert (row.report.width, row.report.width_stderr) == widths.mean_stderr()
        assert row.report.ratio_mean == math.exp(log_ratio.log_mean())
        whole = sandwich(expected, 0.0)
        for name in ("lower_mean", "lower_stderr", "upper_mean", "upper_stderr",
                     "width", "width_stderr", "ratio_mean", "c_used", "midpoint"):
            x, y = getattr(row.report, name), getattr(whole, name)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), name
        assert row.report.saturated_pairs == whole.saturated_pairs
        assert row.report.n == n_pairs

    def test_chunk_j_draws_from_sfc64_under_the_chunk_key(self):
        # The stream scheme built from numpy alone: the chunk calls
        # sample(..., derive_key(cell_seed, j)), and sample's generator
        # seeds SFC64 with derive_key of that key.  Gamma(2, 1) is the
        # Erlang draw -log(U_1 U_2): all of U_1, then all of U_2, each
        # shifted by 2^-55 into (0, 1).
        seed = derive_key(21, 0, self.K)
        sizes = (self.PER_CHUNK, 37)
        pairs = pairs_of(chunk_pairs(Gamma(2.0, 1.0), seed, self.K, sum(sizes)))
        draws = []
        for j, m in enumerate(sizes):
            rng = np.random.Generator(np.random.SFC64(derive_key(derive_key(seed, j))))
            u = rng.random((2, 2 * m * self.K)) + 2.0**-55
            draws.append(-np.log(u[0] * u[1]))
        for start, m, raw in zip((0, self.PER_CHUNK), sizes, draws):
            blocks = raw.reshape(2, m, self.K).mean(axis=2)
            lx, ly = np.log(blocks)
            assert pairs.lx[start:start + m].tobytes() == lx.tobytes()
            assert pairs.d[start:start + m].tobytes() == (ly - lx).tobytes()
        # The sweep reports what those pairs give.
        cfg = SweepConfig(k_values=(self.K,), n_pairs=sum(sizes), replications=1,
                          base_seed=21)
        assert run_sweep(Gamma(2.0, 1.0), cfg, threads=2).rows == reference_rows(
            Gamma(2.0, 1.0), cfg)

    def test_multi_chunk_sweep_is_identical_across_threads(self):
        cfg = SweepConfig(k_values=(16, self.K), n_pairs=self.PER_CHUNK + 1000,
                          replications=2, base_seed=12)
        dist = Gamma(2.0, 1.0)
        assert run_sweep(dist, cfg, threads=1) == run_sweep(dist, cfg, threads=2)

    def test_failure_in_a_later_chunk_is_wrapped(self, monkeypatch):
        calls = []

        def fails_second(d, n, seed, out, *, bit_generator):
            calls.append(seed)
            if len(calls) == 2:
                raise RuntimeError("chunk two lost")
            out[:] = 1.0

        monkeypatch.setattr(sweep, "sample", fails_second)
        cfg = SweepConfig(k_values=(self.K,), n_pairs=self.PER_CHUNK + 1,
                          replications=1, base_seed=13)
        with pytest.raises(RuntimeError, match="chunk two lost"):
            run_sweep(Gamma(2.0, 1.0), cfg, threads=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_verify_compares_threads_across_a_chunk_boundary(self, n, monkeypatch):
        configs = []

        def recording_run_sweep(dist, cfg, threads=None):
            configs.append(cfg)
            return run_sweep(dist, cfg, threads=threads)

        monkeypatch.setattr(verify, "run_sweep", recording_run_sweep)
        assert verify.check_sweep_reproducibility(7, n).passed
        assert any(
            cfg.n_pairs > max(1, CHUNK_FLOATS // (2 * k + 1))
            for cfg in configs for k in cfg.k_values
        )

    @pytest.mark.parametrize("spec", ["lognormal:m=0,sigma=1", "gamma:a=2,theta=1"])
    def test_cell_memory_is_bounded(self, spec):
        # 2 * 10^5 * 64 raw draws would take 102 MB if held at once.
        cfg = SweepConfig(k_values=(64,), n_pairs=100_000, replications=1,
                          base_seed=14)
        dist = parse_dist(spec)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                run_sweep(dist, cfg, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, threads

    @pytest.mark.parametrize("spec", ["gamma:a=2,theta=1", "lognormal:m=0,sigma=1",
                                      "uniform:lo=0.5,hi=1.5"])
    def test_cell_is_bitwise_identical_across_threads(self, spec):
        # Two cells of each k; a k = 64 cell has six chunks, the last one
        # short.  At 2 and 3 threads the chunks run out of order and across
        # cells, and a k = 4 or 16 chunk runs in a buffer that a k = 64
        # chunk has filled with more draws.
        cfg = SweepConfig(k_values=(4, 16, self.K),
                          n_pairs=5 * self.PER_CHUNK + 37, replications=2,
                          base_seed=16)
        dist = parse_dist(spec)
        ref = reference_rows(dist, cfg)
        for threads in (1, 2, 3):
            assert run_sweep(dist, cfg, threads=threads).rows == ref, threads

    def test_first_failing_chunk_is_reported_and_the_pool_is_joined(self, monkeypatch):
        # The pass runs the k = 16 cell's chunks 0-1, then the k = 64 cell's
        # chunks 0-5.  The k = 16 chunk fails 0.2 s after the k = 64 cell's
        # chunk 3: the failure of the chunk that starts first is raised, not
        # the first in time.
        cfg = SweepConfig(k_values=(16, self.K), n_pairs=6 * self.PER_CHUNK,
                          replications=1, base_seed=17)
        failing = {derive_key(derive_key(17, 0, self.K), 3): 64,
                   derive_key(derive_key(17, 0, 16), 1): 16}

        def flaky(d, n, key, out, *, bit_generator):
            k = failing.get(key)
            if k == 16:
                time.sleep(0.2)
            if k is not None:
                raise RuntimeError(f"k = {k} lost")
            out[:] = 1.0

        monkeypatch.setattr(sweep, "sample", flaky)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="k = 16 lost"):
            run_sweep(Gamma(2.0, 1.0), cfg, threads=2)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_each_chunk_pairs_in_its_workers_buffer(self, k, monkeypatch):
        # At every k the pairs lie over the chunk's first 2m draws, and the
        # pairing's scratch, as long as the pairs, lies past the draws in
        # the same buffer, which holds nothing more.
        calls = []

        def recording(raw, k, out=None, scratch=None):
            calls.append((raw, out, scratch))
            return paired_from_halves(raw, k, out, scratch)

        monkeypatch.setattr(sweep, "paired_from_halves", recording)
        per_chunk = CHUNK_FLOATS // (2 * k + 1)
        cfg = SweepConfig(k_values=(k,), n_pairs=3 * per_chunk, replications=1,
                          base_seed=18)
        run_sweep(Gamma(2.0, 1.0), cfg, threads=2)
        assert len(calls) == 3
        buffers = {id(raw.base) for raw, _, _ in calls}
        assert len(buffers) <= 2
        for raw, (lx, d), scratch in calls:
            assert raw.base.size == (2 * k + 1) * per_chunk
            assert lx.base is raw.base and d.base is raw.base
            assert lx.size == d.size == per_chunk
            assert np.shares_memory(lx, raw[:per_chunk])
            assert not np.shares_memory(lx, raw[per_chunk:])
            assert np.shares_memory(d, raw[per_chunk:2 * per_chunk])
            assert not np.shares_memory(d, raw[:per_chunk])
            assert not np.shares_memory(d, raw[2 * per_chunk:])
            assert scratch.base is raw.base
            assert scratch.size == per_chunk
            assert not np.shares_memory(scratch, raw)
            assert np.shares_memory(scratch, raw.base[-per_chunk:])

    @pytest.mark.parametrize("per_chunk", [193, 1000, 3281, 32768])
    def test_folds_match_a_whole_vector_pass(self, per_chunk, monkeypatch):
        # k = 16 at 32805 pairs: 170 chunks of 193 and a last one of 5, 33
        # of 1000 (the last 805), 10 of 3281 (the last 3276), or one chunk
        # of 32768 and one of 37.
        k, n_pairs = 16, 32805
        monkeypatch.setattr(sweep, "CHUNK_FLOATS", (2 * k + 1) * per_chunk)
        policy = CPolicy("pilot-optimal")
        cfg = SweepConfig(k_values=(k,), n_pairs=n_pairs, replications=1,
                          base_seed=22, c_policy=policy)
        dist = Gamma(2.0, 1.0)
        ref = reference_rows(dist, cfg)
        for threads in (1, 2, 3):
            assert run_sweep(dist, cfg, threads=threads).rows == ref, threads
        # Against whole-vector passes, each chunk at the log mean e^d of the
        # pairs outside it, the merged partials differ by rounding alone.
        rep, pairs = one_cell(dist, n_pairs, k, 22, policy, threads=2)
        sizes = [c.n for c in chunk_pairs(dist, derive_key(22, 0, k), k, n_pairs)]
        ends = np.cumsum(sizes)
        cs = [log_mean_exp(np.delete(pairs.d, np.s_[end - m:end]))
              for m, end in zip(sizes, ends)]
        upper, widths, saturated = pairwise_at(pairs.lx, pairs.d,
                                               np.repeat(cs, sizes))
        whole = sandwich(pairs, 0.0)
        assert rep.n == whole.n == n_pairs
        assert rep.saturated_pairs == saturated == 0
        want = {"upper_mean": upper.mean_stderr()[0],
                "upper_stderr": upper.mean_stderr()[1],
                "width": widths.mean_stderr()[0],
                "width_stderr": widths.mean_stderr()[1],
                "c_used": float(np.dot(sizes, cs)) / n_pairs}
        for name in ("lower_mean", "lower_stderr", "ratio_mean", "midpoint"):
            want[name] = getattr(whole, name)
        for name, y in want.items():
            x = getattr(rep, name)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), name

    def test_many_pilot_chunks_on_more_workers_than_cores(self, monkeypatch):
        # Six cells on four workers while the interpreter switches threads
        # often.  Each cell spans 330 chunks of 10 pairs at k = 4 and 110 of
        # 30 at k = 1, which run out of order, and each cell merges their
        # LogSumExps into each chunk's C, and their partials, in chunk order.
        # A chunk that drew into another's buffer, or partials merged out of
        # order, would change a row.
        monkeypatch.setattr(sweep, "CHUNK_FLOATS", (2 * 4 + 1) * 10)
        cfg = SweepConfig(k_values=(1, 4), n_pairs=3300, replications=3,
                          base_seed=26)
        dist = LogNormal(0.0, 1.0)
        ref = reference_rows(dist, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_sweep(dist, cfg, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert result.rows == ref

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_pilot_chunk_is_raised_and_the_pool_is_joined(
            self, threads, monkeypatch):
        # Chunks of 100 pairs at k = 1 and 33 at k = 4.  Cell (1, 0)'s chunk
        # 1 fails late, while at two threads the other worker runs on
        # through the other cells' chunks.  A worker left hanging trips the
        # session's faulthandler timeout, which ends the run with every
        # thread's stack.
        monkeypatch.setattr(sweep, "CHUNK_FLOATS", (2 * 1 + 1) * 100)
        cfg = SweepConfig(k_values=(1, 4), n_pairs=3000, replications=2,
                          base_seed=27)
        lost = derive_key(derive_key(27, 0, 1), 1)

        def fails(d, n, key, out, *, bit_generator):
            if key == lost:
                time.sleep(0.2)
                raise RuntimeError("chunk 1 lost")
            out[:] = 1.0

        monkeypatch.setattr(sweep, "sample", fails)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="chunk 1 lost"):
            run_sweep(Gamma(2.0, 1.0), cfg, threads=threads)
        assert set(threading.enumerate()) <= before

    def test_fixed_c_counts_every_saturated_pair(self, monkeypatch):
        # Pairs whose Y block is exp(705) have d - C = 704.5 > 700; exp(700.4)
        # gives 699.9, which does not saturate.
        n_pairs = 3 * self.PER_CHUNK
        seed = derive_key(23, 0, self.K)
        chunk_of = {derive_key(seed, j): j for j in range(3)}
        planted = {0: {(5, 705.0), (100, 700.4), (self.PER_CHUNK - 1, 705.0)},
                   2: {(7, 705.0)}}

        def planting(d, n, key, out, *, bit_generator):
            out[:] = 1.0
            m = n // (2 * self.K)
            for i, log_y in planted.get(chunk_of[key], ()):
                start = (m + i) * self.K
                out[start:start + self.K] = math.exp(log_y)

        monkeypatch.setattr(sweep, "sample", planting)
        cfg = SweepConfig(k_values=(self.K,), n_pairs=n_pairs, replications=1,
                          base_seed=23, c_policy=CPolicy("fixed", 0.5))
        for threads in (1, 2):
            rep = run_sweep(Gamma(2.0, 1.0), cfg, threads=threads).rows[0].report
            assert rep.saturated_pairs == 3
            assert rep.n == n_pairs
            for value in (rep.upper_mean, rep.upper_stderr, rep.ratio_mean):
                assert math.isfinite(value)
            pairs = pairs_of(chunk_pairs(Gamma(2.0, 1.0), seed, self.K, n_pairs,
                                         draw=planting))
            assert sandwich(pairs, 0.5).saturated_pairs == 3
            assert rep == reference_rows(Gamma(2.0, 1.0), cfg,
                                         draw=planting)[0].report

    @pytest.fixture
    def map_calls(self, monkeypatch):
        """The chunk count of every map_chunks call a sweep makes."""
        calls = []

        def recording(task, n_chunks, scratch):
            calls.append(n_chunks)
            return parallel.map_chunks(task, n_chunks, scratch)

        monkeypatch.setattr(sweep, "map_chunks", recording)
        return calls

    def test_saturation_in_a_later_chunk_is_drawn_again(self, monkeypatch,
                                                        map_calls):
        # Chunk 2 of each cell holds two Y blocks of exp(705), and its C,
        # from chunks 0 and 1, is near 0, so d - C is near 704: its partial
        # saturates at its C, and the chunk alone is drawn again and bounded
        # pair by pair.  Chunks 0 and 1 are bounded at a C near 696, from
        # chunk 2's two pairs, and saturate nothing.
        n_pairs = 3 * self.PER_CHUNK
        cfg = SweepConfig(k_values=(self.K,), n_pairs=n_pairs, replications=2,
                          base_seed=28, c_policy=CPolicy("pilot-optimal"))
        planted = {derive_key(derive_key(28, rep, self.K), 2) for rep in (0, 1)}

        def planting(d, n, key, out, *, bit_generator):
            sample(d, n, key, out, bit_generator=bit_generator)
            if key in planted:
                m = n // (2 * self.K)
                for i in (7, m - 1):
                    out[(m + i) * self.K:(m + i + 1) * self.K] = math.exp(705.0)

        monkeypatch.setattr(sweep, "sample", planting)
        dist = Gamma(2.0, 1.0)
        ref = reference_rows(dist, cfg, draw=planting)
        for threads in (1, 2, 3):
            del map_calls[:]
            assert run_sweep(dist, cfg, threads=threads).rows == ref, threads
            assert map_calls == [6, 2]
        for row in ref:
            chunks = chunk_pairs(dist, row.seed, self.K, n_pairs, draw=planting)
            cs = cross_fitted_cs(chunks)
            assert 0.0 < abs(cs[2]) < 0.1 and all(690.0 < c < 700.0 for c in cs[:2])
            assert row.report.saturated_pairs == 2 == np.count_nonzero(
                chunks[2].d - cs[2] > 700.0)

    def test_every_chunk_saturates_at_a_far_negative_c(self, map_calls):
        # At C = -1e308 every d - C saturates, so every chunk is drawn again
        # and every pair is counted: two halves for each k = 4 cell, three
        # chunks for each k = 64 cell.
        cfg = SweepConfig(k_values=(4, self.K), n_pairs=2 * self.PER_CHUNK + 37,
                          replications=2, base_seed=29,
                          c_policy=CPolicy.parse("fixed:-1e308"))
        dist = LogNormal(0.0, 1.0)
        ref = reference_rows(dist, cfg)
        for threads in (1, 2, 3):
            del map_calls[:]
            assert run_sweep(dist, cfg, threads=threads).rows == ref, threads
            assert map_calls == [10, 10]
        for row in ref:
            assert row.report.saturated_pairs == row.report.n == cfg.n_pairs
            assert math.isfinite(row.report.upper_mean)
            assert math.isfinite(row.report.upper_stderr)

    def test_pilot_partials_merge_in_chunk_order(self, monkeypatch):
        # A LogNormal(0, 2) cell of 330 pairs at k = 4 spans 33 chunks of 10
        # pairs.  Each chunk's C merges the LogSumExps of the chunks before
        # it left to right, then those after it right to left; the others
        # merged left to right give some C other bits.  The sweep has the
        # bits of the chunk-order merges.
        monkeypatch.setattr(sweep, "CHUNK_FLOATS", (2 * 4 + 1) * 10)
        cfg = SweepConfig(k_values=(4,), n_pairs=330, replications=1,
                          base_seed=2)
        dist = LogNormal(0.0, 2.0)
        chunks = chunk_pairs(dist, derive_key(2, 0, 4), 4, 330)
        parts = [LogSumExp.of(chunk.d) for chunk in chunks]
        assert len(parts) == 33
        cs = cross_fitted_cs(chunks)
        assert CPolicy("pilot-optimal").fold_cs(parts) == cs
        assert cs != [float(reduce(LogSumExp.merge, parts[:f] + parts[f + 1:])
                            .log_mean()) for f in range(33)]
        ref = reference_rows(dist, cfg)
        assert ref[0].report.c_used == math.fsum(10 * c for c in cs) / 330
        for threads in (1, 2):
            assert run_sweep(dist, cfg, threads=threads).rows == ref

    def test_reports_are_equal_at_one_two_and_three_threads(self):
        cfg = SweepConfig(k_values=(4, 16, self.K), n_pairs=5 * self.PER_CHUNK + 37,
                          replications=2, base_seed=24)
        dist = LogNormal(0.0, 1.5)
        ref = run_sweep(dist, cfg, threads=1)
        for threads in (2, 3):
            assert run_sweep(dist, cfg, threads=threads) == ref

    def test_cell_peak_does_not_grow_with_n(self):
        # At k = 1 one worker's buffer holds 3m <= CHUNK_FLOATS floats, 4 MiB:
        # the pairs lie over the raw halves, and the reductions take their
        # temporaries in the scratch of m floats past them.  A cell that
        # held its pairs would take 16 bytes more per pair.  A small sweep
        # first loads what a cell imports on its first draw.
        run_sweep(Gamma(2.0, 1.0), SweepConfig(k_values=(1,), n_pairs=2,
                                               replications=1, base_seed=25))
        peaks = []
        for n_pairs in (10**6, 10**7):
            cfg = SweepConfig(k_values=(1,), n_pairs=n_pairs, replications=1,
                              base_seed=25, c_policy=CPolicy("pilot-optimal"))
            tracemalloc.start()
            try:
                run_sweep(Gamma(2.0, 1.0), cfg, threads=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 8 * 3 * (CHUNK_FLOATS // 3) <= min(peaks)
        assert max(peaks) <= 8 * CHUNK_FLOATS + 2**20

    @pytest.mark.parametrize("k_values", [(1,), (1, 4)])
    def test_buffers_die_when_the_sweep_returns(self, k_values, monkeypatch):
        # No reference cycle holds a buffer, so it is freed on return even
        # with the cycle collector off.
        refs = []
        made = sweep._chunk_buffers

        def recording(cfg, threads):
            buffers = made(cfg, threads)
            refs.extend(weakref.ref(buf) for buf in buffers)
            return buffers

        monkeypatch.setattr(sweep, "_chunk_buffers", recording)
        # Two cells of two chunks or more, so two threads get a buffer each.
        cfg = SweepConfig(k_values=k_values, n_pairs=CHUNK_FLOATS // 2 + 5,
                          replications=2, base_seed=26)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_sweep(Gamma(2.0, 1.0), cfg, threads=2)
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    @given(st.integers(1, 4096), st.integers(2, 10**8),
           st.sampled_from([CHUNK_FLOATS, 1000, 7]))
    def test_every_chunk_fits_its_draws_and_a_scratch_of_its_pairs(
            self, k, n_pairs, chunk_floats):
        # The layout from _chunking alone, allocating nothing: a chunk of m
        # pairs draws into buf[:2mk] and takes the m floats past them as its
        # scratch, in a buffer of (2k + 1) min(per_chunk, n_pairs) floats.
        # Every chunk but the last has per_chunk pairs.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "CHUNK_FLOATS", chunk_floats)
            per_chunk, n_chunks = sweep._chunking(n_pairs, k)
        buffer = (2 * k + 1) * min(per_chunk, n_pairs)
        last = n_pairs - (n_chunks - 1) * per_chunk
        assert 1 <= last <= per_chunk
        for m in (min(per_chunk, n_pairs), last):
            assert buffer - 2 * m * k >= m
        if 2 * k + 1 <= chunk_floats:
            assert buffer <= chunk_floats
        else:
            assert per_chunk == 1

    def test_every_buffer_holds_at_most_one_chunk_and_its_scratch(self):
        for k_values in [(1,), (1, 4, 16), (3, 7), (64,), (1, 2, 3, 5, 8)]:
            for n_pairs in (2, 1000, 300_001, 10**6):
                cfg = SweepConfig(k_values=k_values, n_pairs=n_pairs,
                                  replications=1, base_seed=1)
                for buf in sweep._chunk_buffers(cfg, 3):
                    assert buf.size <= CHUNK_FLOATS


# A Gamma(2, 1) sweep at base seed 31, k = 1 and 64, 4200 pairs, two
# replications: each k = 1 cell is drawn as two halves of 2100 pairs and
# each k = 64 cell as two chunks, at the real CHUNK_FLOATS.  Per row: (k,
# replication, n, seed, saturated_pairs) and (lower_mean, lower_stderr,
# upper_mean, upper_stderr, ratio_mean, c_used, midpoint).  A new stream or
# chunk size must be recorded here, with its old and new values in
# CHANGES.md.
PINNED_SWEEP = {
    "pilot-optimal": [
        ((1, 0, 4200, 13253156795846853237, 0),
         (0.4028349985949352, 0.0125045331555065, 1.0957107586139228,
          0.026945194401298146, 1.9994380376138579, 0.6928629598530085,
          0.7492680785370666)),
        ((1, 1, 4200, 13795746169784502323, 0),
         (0.4198428516042379, 0.012516529133141512, 1.1084460887608916,
          0.02595198111965033, 1.986042410887163, 0.6853250426144077,
          0.7629148117657607)),
        ((64, 0, 4200, 2705577056092244467, 0),
         (0.6920924691483351, 0.001365832694687935, 0.6984690781490627,
          0.0013876209772324653, 1.0063282265156739, -0.004779876131959294,
          0.6952466128311771)),
        ((64, 1, 4200, 18142339541595575362, 0),
         (0.6869469177991685, 0.001366058386533379, 0.6961885706537684,
          0.0014169172593572477, 1.009224952671041, -0.0011217866187930425,
          0.6915382491383242)),
    ],
    "fixed:0.5": [
        ((1, 0, 4200, 13253156795846853237, 0),
         (0.4028349985949352, 0.0125045331555065, 1.1155554706034017,
          0.033377716320490844, 1.9994380376138579, 0.5, 0.7492680785370666)),
        ((1, 1, 4200, 13795746169784502323, 0),
         (0.4198428516042379, 0.012516529133141512, 1.1244384652968984,
          0.031142235748352644, 1.986042410887163, 0.5, 0.7629148117657607)),
        ((64, 0, 4200, 2705577056092244467, 0),
         (0.6920924691483351, 0.001365832694687935, 0.8024613922643314,
          0.000996887881345182, 1.0063282265156739, 0.5, 0.6952466128311771)),
        ((64, 1, 4200, 18142339541595575362, 0),
         (0.6869469177991685, 0.001366058386533379, 0.7990727941411863,
          0.001024521566004871, 1.009224952671041, 0.5, 0.6915382491383242)),
    ],
}


@pytest.mark.parametrize("policy", sorted(PINNED_SWEEP))
def test_sweep_stream_is_pinned(policy):
    # Integers exactly; floats to 1e-12 relative, since numpy's log and exp
    # round differently under another SIMD dispatch (test_cross_dispatch).
    cfg = SweepConfig(k_values=(1, 64), n_pairs=4200, replications=2,
                      base_seed=31, c_policy=CPolicy.parse(policy))
    rows = run_sweep(Gamma(2.0, 1.0), cfg).rows
    assert len(rows) == len(PINNED_SWEEP[policy])
    for row, (ints, floats) in zip(rows, PINNED_SWEEP[policy]):
        rep = row.report
        assert (row.k, row.replication, rep.n, row.seed, rep.saturated_pairs) == ints
        got = (rep.lower_mean, rep.lower_stderr, rep.upper_mean, rep.upper_stderr,
               rep.ratio_mean, rep.c_used, rep.midpoint)
        for x, y in zip(got, floats):
            assert abs(x - y) <= 1e-12 * abs(y), (row.k, row.replication, got)
    # Every cell has two chunks: the k = 1 cells as halves.
    assert [sweep._chunking(4200, k) for k in cfg.k_values] == [(2100, 2), (4064, 2)]


class TestWorkers:
    """A sweep runs on min(threads, its chunks) workers, each with one raw
    buffer, and re-derives its saturated chunks on min(workers, their
    number)."""

    def test_workers_are_capped_by_the_chunks(self, monkeypatch):
        sizes = []

        class Recording(parallel.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recording)
        per_chunk = CHUNK_FLOATS // (2 * 64 + 1)
        dist = Gamma(2.0, 1.0)

        def sweep_of(k_values, replications, n_pairs, policy="pilot-optimal"):
            cfg = SweepConfig(k_values=k_values, n_pairs=n_pairs,
                              replications=replications, base_seed=19,
                              c_policy=CPolicy.parse(policy))
            sizes.clear()
            run_sweep(dist, cfg, threads=8)
            return sizes

        # A cell that one chunk would hold is two halves, on two workers.
        assert sweep_of((64,), 1, per_chunk) == [2]
        # Three chunks on three workers, whatever the policy.
        assert sweep_of((64,), 1, 2 * per_chunk + 1) == [3]
        assert sweep_of((64,), 1, 2 * per_chunk + 1, "zero") == [3]
        # Three cells of two halves on six workers.
        assert sweep_of((64,), 3, per_chunk) == [6]
        # The k = 16 cell's two halves and the k = 64 cell's three on five.
        assert sweep_of((16, 64), 1, 2 * per_chunk + 1) == [5]
        # Every chunk saturates at this C: all three again, on three.
        assert sweep_of((64,), 1, 2 * per_chunk + 1, "fixed:-1e308") == [3, 3]

    def test_one_chunk_cell_allocates_one_buffer(self):
        # A cell that one chunk of m pairs would hold runs as two halves on
        # two workers, whose buffers hold 129 m <= CHUNK_FLOATS floats
        # together, 4 MiB, as one chunk's buffer would; eight buffers of a
        # chunk would take 32 MiB.
        per_chunk = CHUNK_FLOATS // (2 * 64 + 1)
        cfg = SweepConfig(k_values=(64,), n_pairs=per_chunk,
                          replications=1, base_seed=20)
        tracemalloc.start()
        try:
            run_sweep(Gamma(2.0, 1.0), cfg, threads=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * 129 * per_chunk <= peak < 12 * CHUNK_FLOATS


class TestResolveThreads:
    @pytest.mark.parametrize("env, arg", [("-3", None), ("1", -2)])
    def test_negative_count_is_a_parse_error(self, monkeypatch, env, arg):
        monkeypatch.setenv(THREADS_ENV, env)
        with pytest.raises(ParseError, match="-[23]"):
            resolve_threads(arg)

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "0")
        assert resolve_threads() >= 1
        assert resolve_threads(0) == resolve_threads()

    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert resolve_threads() == len(os.sched_getaffinity(0))


class TestSweepCsv:
    def test_header_and_shape(self, tmp_path):
        cfg = SweepConfig(k_values=(1,), n_pairs=100, replications=2, base_seed=7,
                          c_policy=CPolicy("fixed", 0.5))
        result = run_sweep(Gamma(2.0, 1.0), cfg)
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
        result = run_sweep(Gamma(2.0, 1.0), cfg)
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

    def test_float_fields_round_trip(self, tmp_path):
        cfg = SweepConfig(k_values=(1,), n_pairs=100, replications=1, base_seed=8)
        result = run_sweep(LogNormal(0.0, 1.0), cfg)
        path = tmp_path / "out.csv"
        write_sweep_csv(str(path), result, dataset="d", model="m")
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[6]) == result.rows[0].report.lower_mean
        assert float(fields[12]) == result.rows[0].report.midpoint
        assert float(fields[14]) == result.rows[0].report.width
        assert float(fields[15]) == result.rows[0].report.width_stderr
