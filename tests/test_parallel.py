import sys
import threading
import time

import pytest

from gapsandwich.parallel import map_chunks


class TestMapChunks:
    def test_every_chunk_runs_once(self):
        seen = []
        map_chunks(lambda j, s: seen.append(j), 7, [object(), object()])
        assert sorted(seen) == list(range(7))

    def test_workers_are_capped_by_the_chunks(self, pool_sizes):
        map_chunks(lambda j, s: None, 3, [[] for _ in range(8)])
        assert pool_sizes == [3]

    @pytest.mark.parametrize("n_chunks, given", [(1, 8), (5, 1), (0, 4)])
    def test_one_worker_starts_no_pool(self, pool_sizes, n_chunks, given):
        caller = threading.get_ident()
        ran_on = set()
        map_chunks(lambda j, s: ran_on.add(threading.get_ident()), n_chunks,
                   [[] for _ in range(given)])
        assert pool_sizes == []
        assert ran_on <= {caller}

    def test_first_failure_in_chunk_order_is_raised_and_the_pool_is_joined(self):
        def task(j, s):
            if j == 2:
                time.sleep(0.2)  # chunk 4 fails first in time
                raise RuntimeError("chunk 2 failed")
            if j == 4:
                raise RuntimeError("chunk 4 failed")

        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            map_chunks(task, 6, [[], []])
        assert set(threading.enumerate()) <= before

    def test_running_tasks_never_share_a_scratch(self):
        # More workers than cores and a short switch interval: a scratch
        # handed to two running tasks at once would be seen busy.
        busy = {}
        clash = []

        def task(j, s):
            if busy.setdefault(id(s), False):
                clash.append(j)
            busy[id(s)] = True
            s.append(j)
            time.sleep(0)
            busy[id(s)] = False

        scratch = [[] for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            map_chunks(task, 400, scratch)
        finally:
            sys.setswitchinterval(interval)
        assert clash == []
        assert sorted(j for s in scratch for j in s) == list(range(400))

    @pytest.mark.parametrize("given, n_chunks, used_count",
                             [(8, 3, 3), (2, 40, 2), (1, 5, 1), (4, 1, 1), (3, 0, 0)])
    def test_only_the_first_n_chunks_scratch_objects_are_used(
            self, given, n_chunks, used_count):
        used = []
        map_chunks(lambda j, s: used.append(s), n_chunks, list(range(given)))
        assert len(used) == n_chunks
        assert set(used) <= set(range(used_count))
