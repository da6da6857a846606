"""The benchmark checks every workload's outputs: bounds against closed forms
and the case study's k = 64 interval.  A stream change that makes those
checks fail at the benchmark's own seeds fails here, on the tiny sizes of
perfbench/workloads.py, read from that file as it is.  The outputs must
also hold the same bits on one thread and on two."""

import pytest

from gapsandwich import cli
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
