"""The benchmark checks every workload's outputs: bounds against closed forms
and the case study's k = 64 interval.  A stream change that makes those
checks fail at the benchmark's own seeds fails here, on the tiny sizes of
perfbench/workloads.py, read from that file as it is.  The outputs must
also hold the same bits on one thread and on two, also when every pass is
cut into small enough chunks to run on two workers."""

import pytest

from gapsandwich import cli, parallel, sweep, vae
from gapsandwich.parallel import THREADS_ENV
from test_perfbench_coupling import load_bench

workloads = load_bench("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_output_checks(workload, tmp_path, monkeypatch):
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, threads)
        workdir = tmp_path / threads
        workdir.mkdir()
        tally = workloads.Tally()
        iteration = workloads.run_iteration(cli.main, workload, "tiny", 1,
                                            str(workdir), tally)
        assert tally.attempted > 0
        assert tally.failed == 0
        digests.append(iteration.digests)
    assert digests[0]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_in_small_chunks_is_identical_across_threads(
        workload, tmp_path, monkeypatch, pool_sizes):
    # Every tiny pass fits in one chunk at the real sizes, so the test above
    # runs inline at both thread counts.  These sizes cut each sweep cell,
    # C-network epoch and evaluate into at least 2 chunks, and let two
    # workers take them however few log-ratios they hold.
    monkeypatch.setattr(sweep, "CHUNK_FLOATS", 1024)
    monkeypatch.setattr(vae, "CHUNK_POINTS", 128)
    monkeypatch.setattr(vae, "WORKER_RATIOS", 1)
    chunk_counts = []

    def recording(task, n_chunks, scratch):
        chunk_counts.append(n_chunks)
        return parallel.map_chunks(task, n_chunks, scratch)

    monkeypatch.setattr(sweep, "map_chunks", recording)
    monkeypatch.setattr(vae, "map_chunks", recording)
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, threads)
        del chunk_counts[:], pool_sizes[:]
        workdir = tmp_path / threads
        workdir.mkdir()
        tally = workloads.Tally()
        iteration = workloads.run_iteration(cli.main, workload, "tiny", 1,
                                            str(workdir), tally)
        assert tally.failed == 0
        assert chunk_counts and min(chunk_counts) >= 2
        digests.append(iteration.digests)
    assert pool_sizes == [2] * len(chunk_counts)
    assert digests[0]
    assert digests[0] == digests[1]
