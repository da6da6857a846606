"""Keyed tasks on a pool of threads.

Every Monte Carlo pass in the package splits its work into tasks j = 0, 1,
... whose boundaries and random streams depend on j alone, never on the
thread count.  A task is a chunk of datapoints in the VAE's passes, which
writes its results into its own slot of the caller's arrays, and one chunk
of a cell in a sweep, which returns its partials.  map_chunks runs such
tasks on a pool, one worker per scratch object in the list that the pass
builds, and returns their results in chunk order, so a pass allocates its
working buffers once and its results are bit-identical at any thread count.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import ParseError

THREADS_ENV = "GAPSANDWICH_THREADS"

R = TypeVar("R")
S = TypeVar("S")


def resolve_threads(threads: int | None = None) -> int:
    """Thread count: explicit arg wins, then the env var; 0, the default, is
    auto: the CPUs this process may run on."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "0")
        try:
            threads = int(raw)
        except ValueError:
            raise ParseError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if threads < 0:
        raise ParseError(f"thread count ({THREADS_ENV}) must be >= 0, got {threads}")
    if threads == 0:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # sched_getaffinity is not on every platform
            threads = os.cpu_count() or 1
    return threads


def map_chunks(task: Callable[[int, S], R], n_chunks: int,
               scratch: Sequence[S]) -> list[R]:
    """Run task(j, s) for every chunk j < n_chunks, and return the tasks'
    results in chunk order.

    The chunks run on min(len(scratch), n_chunks) workers, inline when that
    is at most 1.  s is one of the first that many objects of scratch, which
    a worker holds for the whole task, so no two running tasks share one.
    The first failure in chunk order is raised, the chunks not yet started
    are cancelled, and the pool is joined before this returns or raises.
    """
    workers = min(len(scratch), n_chunks)
    if workers <= 1:
        return [task(j, scratch[0]) for j in range(n_chunks)]
    free: queue.SimpleQueue = queue.SimpleQueue()
    for s in scratch[:workers]:
        free.put(s)

    def run(j: int) -> R:
        s = free.get()
        try:
            return task(j, s)
        finally:
            free.put(s)

    # map yields in chunk order and raises the first failure in that order;
    # leaving the block cancels what has not started and joins the workers.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n_chunks)))
