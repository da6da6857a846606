"""Orchestration: paired sampling, k-sweeps, replications, CSV rows.

Each (k, replication) cell derives its own seed and samples 2*n_pairs*k
draws of the sweep's distribution in chunks of m pairs,
m = max(1, CHUNK_FLOATS // (2k + 1)), the last chunk fewer; a cell of at
most m pairs is two chunks, of ceil(n_pairs / 2) and floor(n_pairs / 2)
pairs, so every cell has two chunks or more.  Chunk j draws from an SFC64
stream, chunk_bit_generator, under derive_key(cell_seed, j).  SFC64 draws
faster than the package's default Philox, and the sampler is most of a
sweep's time.

run_sweep makes one buffer per worker, sized for the sweep's largest chunk,
and runs every chunk of every cell in one parallel.map_chunks call.  A chunk
draws into its worker's buffer, pairs its draws over themselves and reduces
them to a bounds.UpperPartial without C, with its temporaries in the pairs
and in a scratch of m floats past its 2mk draws, so a sweep holds 4 MiB a
worker whatever n_pairs is, while one pair's 2k + 1 floats fit in
CHUNK_FLOATS; past that a chunk is one pair of 2k + 1 floats.  Each chunk
of a cell is one fold: the CPolicy maps the folds' LogSumExps of d to one
C per fold, and each chunk's partial is evaluated at its C.  A chunk whose largest exponent saturates at its C
is drawn again and bounded with bounds.pairwise_at, in a second map_chunks
call over those chunks alone.  Each cell merges its chunks' partials in
chunk order, so results are bit-identical at any thread count.

sweep_csv_rows gives a result's CSV rows, and write_sweep_csv writes them
with manifest.write_csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

import numpy as np

from .accumulate import LogSumExp, Moments
from .bounds import BoundReport, UpperPartial, bound_report, pairwise_at
from .distributions import AnalyticDist, sample
from .errors import ParseError
from .manifest import write_csv
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
    "upper_mean,upper_stderr,ratio_mean,c_used,midpoint,saturated_pairs,"
    "width,width_stderr"
)


@dataclass(frozen=True)
class CPolicy:
    """How the bound parameter C is chosen for each fold of a cell.

    zero          -> C = 0 (plain first-order bound)
    fixed:<v>     -> C = v
    pilot-optimal -> cross-fitted C: each chunk of a cell is bounded at
                     C = log mean(Y/X) over the cell's other chunks, so no
                     C depends on the pairs it bounds, and every pair is
                     bounded.
    """

    kind: str
    value: float = 0.0

    _KINDS = ("zero", "fixed", "pilot-optimal")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ParseError(f"unknown c-policy kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ParseError(f"c-policy value must be finite, got {self.value!r}")
        if self.kind != "fixed" and self.value != 0.0:
            raise ParseError(
                f"c-policy {self.kind!r} takes no value, got {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "CPolicy":
        head, colon, tail = text.strip().partition(":")
        head = head.strip().lower()
        if head == "fixed":
            try:
                return cls("fixed", float(tail))
            except ValueError:
                raise ParseError(f"c-policy 'fixed' needs a decimal: {tail!r}")
        if head in ("zero", "pilot-optimal") and not colon:
            return cls(head)
        raise ParseError(f"unknown c-policy {text!r}")

    def fold_cs(self, folds: list[LogSumExp]) -> list[float]:
        """One C for each of a cell's folds, from the folds' LogSumExps of
        d in chunk order: the policy's value, or for pilot-optimal
        C_-f = log mean e^d over the other folds.  That is the merge of the
        folds before f, merged left to right, with those after f, merged
        right to left; the grouping follows the chunk order alone, so each
        C has the same bits at any thread count."""
        if self.kind != "pilot-optimal":
            return [self.value] * len(folds)
        empty = LogSumExp(0, 0.0, 0.0)
        before = accumulate(folds[:-1], LogSumExp.merge, initial=empty)
        after = [*accumulate(folds[:0:-1], lambda a, f: f.merge(a), initial=empty)]
        return [float(b.merge(a).log_mean()) for b, a in zip(before, after[::-1])]


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
    """Across-replication mean/stdev, matching a table's +/- columns, and
    the mean of the rows' paired widths."""

    k: int
    lower_mean: float
    lower_std: float
    upper_mean: float
    upper_std: float
    width: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    aggregates: tuple[KAggregate, ...]


def _chunking(n_pairs: int, k: int) -> tuple[int, int]:
    """Pairs per chunk of a cell, and its number of chunks: two or more,
    since a cell that one chunk would hold is drawn as two halves."""
    per_chunk = max(1, CHUNK_FLOATS // (2 * k + 1))
    if n_pairs <= per_chunk:
        per_chunk = -(-n_pairs // 2)
    return per_chunk, -(-n_pairs // per_chunk)


def _chunk_buffers(cfg: SweepConfig, workers: int) -> list[np.ndarray]:
    """One buffer for each of the workers, sized for the sweep's largest
    chunk: a chunk of m pairs takes its 2mk raw draws, over which its pairs
    lie, plus a scratch of m floats."""
    floats = max((2 * k + 1) * _chunking(cfg.n_pairs, k)[0] for k in cfg.k_values)
    return [np.empty(floats) for _ in range(workers)]


def _run_chunk(dist: AnalyticDist, cfg: SweepConfig, buf: np.ndarray, k: int,
               rep: int, j: int, c: float | None = None,
               ) -> UpperPartial | tuple[Moments, Moments, int]:
    """Chunk j of cell (k, rep), drawn, paired and reduced in buf, its
    worker's buffer.

    The chunk is drawn from the chunk_bit_generator stream under
    derive_key(seed, j) and holds pairs [j per_chunk, (j + 1) per_chunk).
    Returns their UpperPartial; given C, pairwise_at of them at C.
    """
    seed = derive_key(cfg.base_seed, rep, k)
    per_chunk = _chunking(cfg.n_pairs, k)[0]
    m = min(per_chunk, cfg.n_pairs - j * per_chunk)
    raw = buf[:2 * m * k]
    lx, d, scratch = buf[:m], buf[m:2 * m], buf[raw.size:raw.size + m]
    sample(dist, raw.size, derive_key(seed, j), raw,
           bit_generator=chunk_bit_generator)
    paired_from_halves(raw, k, out=(lx, d), scratch=scratch)
    if c is not None:
        # The upper terms overwrite the pairs they are formed from.
        return pairwise_at(lx, d, c, out=(d, lx))
    return UpperPartial.of(lx, d, out=(d, scratch))


def _run_cell(cfg: SweepConfig, k: int, rep: int, cs: list[float],
              chunks: list[tuple[UpperPartial, tuple[Moments, Moments, int]]]
              ) -> SweepRow:
    """Cell (k, rep)'s row from its chunks' blocks of pairs, chunk j's
    bounded at cs[j]; c_used is the mean C over the cell's pairs, and the
    one C where every chunk has it.  perfbench's tracer wraps this function
    by name, as the cell's span."""
    c = cs[0] if len(set(cs)) == 1 else math.fsum(
        part.lower.n * fold_c for (part, _), fold_c in zip(chunks, cs)) / cfg.n_pairs
    return SweepRow(k=k, replication=rep, seed=derive_key(cfg.base_seed, rep, k),
                    report=bound_report(chunks, c, k))


def run_sweep(
    dist: AnalyticDist, cfg: SweepConfig, threads: int | None = None
) -> SweepResult:
    """Run every chunk of every (k, replication) cell of draws from dist on
    the workers, bound each chunk at the C its policy gives it, and
    aggregate per k.

    Deterministic in cfg: cells use derived seeds and chunks derived
    streams, so any thread count gives the same SweepResult.
    """
    cells = [(k, r) for k in cfg.k_values for r in range(cfg.replications)]
    tasks = [(k, r, j) for k, r in cells
             for j in range(_chunking(cfg.n_pairs, k)[1])]
    buffers = _chunk_buffers(cfg, min(resolve_threads(threads), len(tasks)))

    def run(chunks: list[tuple]) -> list:
        return map_chunks(lambda t, buf: _run_chunk(dist, cfg, buf, *chunks[t]),
                          len(chunks), buffers)

    parts = {cell: [] for cell in cells}
    for (k, r, _), part in zip(tasks, run(tasks)):
        parts[k, r].append(part)
    cs = {cell: cfg.c_policy.fold_cs([part.log_ratio for part in parts[cell]])
          for cell in cells}
    at_c = {cell: [part.at(c) for part, c in zip(parts[cell], cs[cell])]
            for cell in cells}
    # Chunks that saturate at their C are drawn again and bounded pair by pair.
    again = [(k, r, j, cs[k, r][j]) for k, r in cells
             for j, moments in enumerate(at_c[k, r]) if moments is None]
    for (k, r, j, _), moments in zip(again, run(again) if again else []):
        at_c[k, r][j] = moments
    rows = [_run_cell(cfg, k, r, cs[k, r], list(zip(parts[k, r], at_c[k, r])))
            for k, r in cells]

    aggregates = []
    for k in cfg.k_values:
        reports = [row.report for row in rows if row.k == k]
        (lower_mean, lower_std), (upper_mean, upper_std), (width, _) = (
            Moments.of(np.array([getattr(rep, name) for rep in reports])).mean_std()
            for name in ("lower_mean", "upper_mean", "width"))
        aggregates.append(KAggregate(k, lower_mean, lower_std, upper_mean,
                                     upper_std, width))
    return SweepResult(rows=tuple(rows), aggregates=tuple(aggregates))


def sweep_csv_rows(result: SweepResult, dataset: str, model: str
                   ) -> Iterator[tuple]:
    """One CSV row per (k, replication), in CSV_HEADER's order."""
    for row in result.rows:
        rep = row.report
        yield (dataset, model, row.k, row.replication, rep.n, row.seed,
               rep.lower_mean, rep.lower_stderr, rep.upper_mean,
               rep.upper_stderr, rep.ratio_mean, rep.c_used, rep.midpoint,
               rep.saturated_pairs, rep.width, rep.width_stderr)


def write_sweep_csv(path: str, result: SweepResult, dataset: str, model: str) -> None:
    write_csv(path, CSV_HEADER, sweep_csv_rows(result, dataset, model))
