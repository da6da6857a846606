"""Orchestration: paired sampling, k-sweeps, replications, CSV output.

Each (k, replication) cell derives its own seed and samples 2*n_pairs*k
fresh draws of the sweep's distribution in chunks of m pairs, with
m = max(1, CHUNK_FLOATS // (2k + 1)), the last chunk fewer; chunk j draws
from an SFC64 stream, chunk_bit_generator, under the key
derive_key(cell_seed, j).  SFC64 draws faster than the package's default
Philox, and the sampler is most of a sweep's time; the keys come from the
package's one derivation scheme.

run_sweep runs every chunk of every cell through parallel.map_chunks, in
the buffer of the worker that runs it: the chunk draws, pairs its draws
into lx and d over its first 2m draws (the raw halves themselves at
k = 1), and reduces its pairs while they are in cache.  A chunk takes the
LogSumExp of its pilot pairs, the prefix that the CPolicy spends on C, and
over its working pairs the Moments of lx, the LogSumExp of d, and the
Moments of the upper terms at C.  C must be fixed before a working pair is
bounded, so the chunks run in three passes and no thread waits on another:
first each cell's chunks before its tail, the chunk that holds its last
pilot pair; then the tails, each of which merges its cell's pilot partials
in chunk order and fixes C; then every later chunk, at its cell's C.  Each
pass spreads its chunks over all the workers, whatever the cells, and each
cell merges its chunks' partials in chunk order after the last pass, so
its results are bit-identical at any thread count.

run_sweep makes the workers' buffers once, sized for the sweep's largest
chunk: a chunk of m pairs takes (2k + 1) m floats, its 2mk draws and a
scratch of m floats past them, at most CHUNK_FLOATS while 2k + 1 is.  The
pairing's block means and every reduction take their temporaries in that
scratch, which holds a whole vector of them.  So a sweep holds
O(threads * CHUNK_FLOATS) floats, 4 MiB a worker, whatever n_pairs is, and
no vector of a cell's pairs.  A cell of one chunk reports the bits
bounds.sandwich gives on its pairs; with more chunks the merged means
differ from those of one whole-vector pass by rounding alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .accumulate import LogSumExp, Moments
from .bounds import BoundReport, bound_report, upper_moments
from .distributions import AnalyticDist, sample
from .errors import ParseError
from .parallel import map_chunks, resolve_threads
from .rng import derive_key
from .samples import paired_from_halves

# Floats of a chunk's buffer: its draws plus a scratch as long as its pairs.
# Part of the stream scheme, with chunk_bit_generator: changing either
# changes every sweep result for a given seed.  It bounds a worker's buffer;
# below 2^19 each chunk's fixed cost (its generator, checks and short numpy
# calls) slows the sweep.
CHUNK_FLOATS = 1 << 19


def chunk_bit_generator(key: int) -> np.random.BitGenerator:
    """SFC64 seeded with key, the bit generator of every chunk's stream.

    A function rather than the class itself, so that importing the module
    leaves numpy.random unloaded until a cell draws.
    """
    return np.random.SFC64(key)


CSV_HEADER = (
    "dataset,model,k,replication,n_pairs,seed,lower_mean,lower_stderr,"
    "upper_mean,upper_stderr,ratio_mean,c_used,midpoint,saturated_pairs"
)


@dataclass(frozen=True)
class CPolicy:
    """How the bound parameter C is chosen for each estimate.

    zero          -> C = 0 (plain first-order bound)
    fixed:<v>     -> C = v
    pilot-optimal -> C = log mean(Y/X) on a pilot prefix (10% of pairs,
                     at least 64), then frozen for the remaining pairs.
    """

    kind: str
    value: float = 0.0

    _KINDS = ("zero", "fixed", "pilot-optimal")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ParseError(f"unknown c-policy kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ParseError(f"c-policy value must be finite, got {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "CPolicy":
        head, _, tail = text.strip().partition(":")
        head = head.strip().lower()
        if head in ("zero", "pilot-optimal"):
            return cls(head)
        if head == "fixed":
            try:
                return cls("fixed", float(tail))
            except ValueError:
                raise ParseError(f"c-policy key 'fixed' needs a decimal: {tail!r}")
        raise ParseError(f"unknown c-policy {text!r}")

    def pilot_pairs(self, n: int) -> int:
        """How many of n >= 2 leading pairs estimate C and are left out of
        the bounds: for pilot-optimal 10% of them, at least 64 and all but
        one at most; none for the other kinds."""
        if self.kind != "pilot-optimal":
            return 0
        return min(max(64, math.ceil(n / 10)), n - 1)

    def fixed_c(self) -> float:
        """C of the zero and fixed kinds."""
        return self.value if self.kind == "fixed" else 0.0


def _integer(name: str, value: object) -> int:
    """value as an int if it is a Python or numpy integer; a float or a bool
    is a ParseError rather than a silently truncated count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepConfig:
    k_values: tuple[int, ...]
    n_pairs: int
    replications: int
    base_seed: int
    c_policy: CPolicy = field(default_factory=lambda: CPolicy("pilot-optimal"))

    def __post_init__(self) -> None:
        ks = tuple(_integer("each of k_values", k) for k in self.k_values)
        object.__setattr__(self, "k_values", ks)
        for name in ("n_pairs", "replications", "base_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not ks or any(k < 1 for k in ks) or any(
            b <= a for a, b in zip(ks, ks[1:])
        ):
            raise ParseError(f"k_values must be strictly increasing positive: {ks}")
        if self.n_pairs < 2:
            raise ParseError(f"n_pairs must be >= 2, got {self.n_pairs}")
        if self.replications < 1:
            raise ParseError(f"replications must be >= 1, got {self.replications}")


@dataclass(frozen=True)
class SweepRow:
    k: int
    replication: int
    seed: int
    report: BoundReport


@dataclass(frozen=True)
class KAggregate:
    """Across-replication mean/stdev, matching a table's +/- columns."""

    k: int
    lower_mean: float
    lower_std: float
    upper_mean: float
    upper_std: float

    @property
    def width(self) -> float:
        return self.upper_mean - self.lower_mean


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    aggregates: tuple[KAggregate, ...]


def _chunking(n_pairs: int, k: int) -> tuple[int, int]:
    """Pairs per chunk of a cell, and its number of chunks."""
    per_chunk = max(1, CHUNK_FLOATS // (2 * k + 1))
    return per_chunk, -(-n_pairs // per_chunk)


def _chunk_buffers(cfg: SweepConfig, workers: int) -> list[np.ndarray]:
    """One buffer for each of the workers, sized for the sweep's largest
    chunk: a chunk of m pairs takes its 2mk raw draws, over which its pairs
    lie, plus a scratch of m floats."""
    floats = max((2 * k + 1) * min(_chunking(cfg.n_pairs, k)[0], cfg.n_pairs)
                 for k in cfg.k_values)
    return [np.empty(floats) for _ in range(workers)]


class _ChunkSums(NamedTuple):
    """A chunk's partials over its working pairs: the Moments of lx, the
    LogSumExp of d, the Moments of the upper terms at C, and the count of
    saturated exponents."""

    lower: Moments
    log_ratio: LogSumExp
    upper: Moments
    saturated: int

    def merge(self, other: "_ChunkSums") -> "_ChunkSums":
        return _ChunkSums(self.lower.merge(other.lower),
                          self.log_ratio.merge(other.log_ratio),
                          self.upper.merge(other.upper),
                          self.saturated + other.saturated)


def _run_chunk(dist: AnalyticDist, cfg: SweepConfig, k: int, rep: int,
               j: int, buf: np.ndarray, pilot_sums: LogSumExp | None,
               c: float | None) -> tuple[LogSumExp | None, float | None,
                                         _ChunkSums | None]:
    """Chunk j of cell (k, rep), drawn, paired and reduced in one worker's
    buffer.

    The chunk is drawn from the chunk_bit_generator stream under
    derive_key(seed, j) and holds pairs [j per_chunk, (j + 1) per_chunk):
    those below the policy's pilot count go to C, the rest to the bounds.
    The LogSumExp of its pilot pairs is merged after pilot_sums, the cell's
    earlier pilot chunks' merged in chunk order, and C is fixed from the
    result if the chunk holds the last pilot pair.  Returns the merged pilot
    LogSumExp, C, and the partials of the working pairs at C; None where the
    chunk holds no such pairs.
    """
    seed = derive_key(cfg.base_seed, rep, k)
    n = cfg.n_pairs
    pilot = cfg.c_policy.pilot_pairs(n)
    per_chunk = _chunking(n, k)[0]
    start = j * per_chunk
    m = min(per_chunk, n - start)
    raw = buf[:2 * m * k]
    lx, d, scratch = buf[:m], buf[m:2 * m], buf[raw.size:raw.size + m]
    split = min(max(pilot - start, 0), m)
    sample(dist, raw.size, derive_key(seed, j), raw,
           bit_generator=chunk_bit_generator)
    paired_from_halves(raw, k, out=(lx, d), scratch=scratch)
    if split:
        part = LogSumExp.of(d[:split], scratch=scratch)
        pilot_sums = part if pilot_sums is None else pilot_sums.merge(part)
        if start + split == pilot:
            c = float(pilot_sums.log_mean())
    if split == m:
        return pilot_sums, c, None
    lx, d = lx[split:], d[split:]
    lower = Moments.of(lx, scratch=scratch)
    log_ratio = LogSumExp.of(d, scratch=scratch)
    # The upper terms overwrite the pairs they are formed from.
    upper, saturated = upper_moments(lx, d, c, out=(d, lx))
    return pilot_sums, c, _ChunkSums(lower, log_ratio, upper, saturated)


def _run_cell(cfg: SweepConfig, k: int, rep: int, c: float,
              sums: list[_ChunkSums | None]) -> SweepRow:
    """Cell (k, rep)'s row: its chunks' working partials merged in chunk
    order, chunks of pilot pairs alone left out, and bounded at C.

    perfbench's tracer wraps this function by name, as the cell's span."""
    total = functools.reduce(_ChunkSums.merge,
                             (part for part in sums if part is not None))
    return SweepRow(k=k, replication=rep, seed=derive_key(cfg.base_seed, rep, k),
                    report=bound_report(total.lower, total.upper,
                                        total.log_ratio, total.saturated, c, k))


def run_sweep(
    dist: AnalyticDist, cfg: SweepConfig, threads: int | None = None
) -> SweepResult:
    """Run every chunk of every (k, replication) cell of draws from dist on
    the workers, in three passes, and aggregate per k.

    The first pass runs each cell's chunks before its tail, the second the
    tails, which fix C, and the third every later chunk, at C.
    Deterministic in cfg: cells use derived seeds and chunks derived
    streams, and each cell merges its chunks' partials in chunk order, so
    any thread count gives the same SweepResult.
    """
    cells = [(k, r) for k in cfg.k_values for r in range(cfg.replications)]
    pilot = cfg.c_policy.pilot_pairs(cfg.n_pairs)
    chunking = [_chunking(cfg.n_pairs, k) for k, _ in cells]
    # A cell's tail: its chunk that holds the last pilot pair, -1 with no
    # pilot.
    tails = [(pilot - 1) // per_chunk for per_chunk, _ in chunking]
    cs = [None if tail >= 0 else cfg.c_policy.fixed_c() for tail in tails]
    pilots = [[None] * n_chunks for _, n_chunks in chunking]
    sums = [[None] * n_chunks for _, n_chunks in chunking]
    passes = (
        [(i, j) for i, tail in enumerate(tails) for j in range(tail)],
        [(i, tail) for i, tail in enumerate(tails) if tail >= 0],
        [(i, j) for i, tail in enumerate(tails)
         for j in range(tail + 1, chunking[i][1])],
    )

    def run_chunk(i: int, j: int, buf: np.ndarray) -> None:
        earlier = None
        if j == tails[i] and j:
            earlier = functools.reduce(LogSumExp.merge, pilots[i][:j])
        pilots[i][j], c, sums[i][j] = _run_chunk(dist, cfg, *cells[i], j, buf,
                                                 earlier, cs[i])
        if j == tails[i]:
            cs[i] = c

    workers = min(resolve_threads(threads), max(map(len, passes)))
    buffers = _chunk_buffers(cfg, workers)
    for tasks in passes:
        map_chunks(lambda t, buf: run_chunk(*tasks[t], buf), len(tasks),
                   buffers)
    rows = [_run_cell(cfg, *cell, cs[i], sums[i])
            for i, cell in enumerate(cells)]

    aggregates = []
    for k in cfg.k_values:
        reports = [row.report for row in rows if row.k == k]
        lower_mean, lower_std = Moments.of(
            np.array([rep.lower_mean for rep in reports])).mean_std()
        upper_mean, upper_std = Moments.of(
            np.array([rep.upper_mean for rep in reports])).mean_std()
        aggregates.append(KAggregate(k, lower_mean, lower_std, upper_mean,
                                     upper_std))
    return SweepResult(rows=tuple(rows), aggregates=tuple(aggregates))


def _csv_field(text: str) -> str:
    """RFC 4180 quoting for label fields (dist specs contain commas)."""
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def sweep_csv_lines(result: SweepResult, dataset: str, model: str) -> list[str]:
    """CSV body: one row per (k, replication), floats via repr round-trip."""
    lines = [CSV_HEADER]
    for row in result.rows:
        rep = row.report
        lines.append(",".join([
            _csv_field(dataset),
            _csv_field(model),
            str(row.k),
            str(row.replication),
            str(rep.n),
            str(row.seed),
            repr(rep.lower_mean),
            repr(rep.lower_stderr),
            repr(rep.upper_mean),
            repr(rep.upper_stderr),
            repr(rep.ratio_mean),
            repr(rep.c_used),
            repr(rep.midpoint),
            str(rep.saturated_pairs),
        ]))
    return lines


def write_sweep_csv(path: str, result: SweepResult, dataset: str, model: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(sweep_csv_lines(result, dataset, model)) + "\n")
