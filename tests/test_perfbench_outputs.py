"""The benchmark checks every workload's outputs: bounds against closed forms
and the case study's k = 64 interval.  A stream change that makes those
checks fail at the benchmark's own seeds fails here, on the tiny sizes of
perfbench/workloads.py, read from that file as it is."""

import pytest

from gapsandwich import cli
from test_perfbench_coupling import load_bench

workloads = load_bench("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_output_checks(workload, tmp_path):
    tally = workloads.Tally()
    workloads.run_iteration(cli.main, workload, "tiny", 1, str(tmp_path), tally)
    assert tally.attempted > 0
    assert tally.failed == 0
