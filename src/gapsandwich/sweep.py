"""Orchestration: paired sampling, k-sweeps, replications, CSV output.

The (k, replication) cells run one after another.  Each cell derives its own
seed and samples 2*n_pairs*k fresh draws of the sweep's distribution in
fixed chunks of about CHUNK_DRAWS draws; chunk j draws from an SFC64
stream, chunk_bit_generator, under the key derive_key(cell_seed, j).
SFC64 draws faster than the package's default Philox, and the sampler is
most of a sweep's time; the keys come from the package's one derivation
scheme.

A cell makes two passes over its chunks through parallel.map_chunks, each
chunk in the raw buffer that the cell allocated for its worker.  The first
draws the chunk, writes its block means straight into its own slice of the
cell's lx and d vectors, and reduces that slice while it is in cache: the
Moments of lx and the LogSumExp of d over the working pairs, and the
LogSumExp of d over the pilot pairs that the CPolicy sets aside.  Once C
is fixed, the second forms the chunk's upper terms and returns their
Moments and saturation count.  The calling thread only merges the chunks'
partials, in chunk order, so a cell holds lx, d and the raw buffers,
O(n_pairs + threads * CHUNK_DRAWS) floats whatever k is, and its results
are bit-identical at any thread count.  A cell of one chunk reports the
bits bounds.sandwich gives on its pairs; with more chunks the merged means
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

# Raw draws per chunk of a cell.  Part of the stream scheme, with
# chunk_bit_generator: changing either changes every sweep result for a
# given seed.
CHUNK_DRAWS = 1 << 20


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


@dataclass(frozen=True)
class SweepConfig:
    k_values: tuple[int, ...]
    n_pairs: int
    replications: int
    base_seed: int
    c_policy: CPolicy = field(default_factory=lambda: CPolicy("pilot-optimal"))

    def __post_init__(self) -> None:
        ks = tuple(int(k) for k in self.k_values)
        object.__setattr__(self, "k_values", ks)
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
    per_chunk = max(1, CHUNK_DRAWS // (2 * k))
    return per_chunk, -(-n_pairs // per_chunk)


def _raw_buffers(k: int, n_pairs: int, threads: int) -> list[np.ndarray]:
    """A cell's raw buffers: one chunk's draws for each of its workers."""
    per_chunk, n_chunks = _chunking(n_pairs, k)
    return [np.empty(2 * min(per_chunk, n_pairs) * k)
            for _ in range(min(threads, n_chunks))]


class _DrawnSums(NamedTuple):
    """Partials of a cell's first pass: the Moments of lx and the LogSumExp
    of d over the working pairs, and the LogSumExp of d over the pilot."""

    lower: Moments
    log_ratio: LogSumExp
    pilot: LogSumExp

    def merge(self, other: "_DrawnSums") -> "_DrawnSums":
        return _DrawnSums(*(a.merge(b) for a, b in zip(self, other)))


def _cell_pairs(dist: AnalyticDist, seed: int, k: int, n_pairs: int, pilot: int,
                buffers: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, _DrawnSums]:
    """One cell's pairs, as read-only vectors lx and d, and their partials
    merged in chunk order.

    Chunk j is drawn from the chunk_bit_generator stream under
    derive_key(seed, j) into a worker's raw buffer, writes pairs
    [j per_chunk, (j + 1) per_chunk) of lx and d, and reduces them in the
    same buffer: pairs below pilot into the pilot's partial, the rest into
    the working pairs' partials.
    """
    per_chunk, n_chunks = _chunking(n_pairs, k)
    lx, d = np.empty(n_pairs), np.empty(n_pairs)
    sums: list[_DrawnSums] = [None] * n_chunks

    def draw_chunk(j: int, buf: np.ndarray) -> None:
        start = j * per_chunk
        stop = min(start + per_chunk, n_pairs)
        raw = buf[:2 * (stop - start) * k]
        sample(dist, raw.size, derive_key(seed, j), raw,
               bit_generator=chunk_bit_generator)
        pairs = paired_from_halves(raw, k, out=(lx[start:stop], d[start:stop]))
        split = min(max(pilot - start, 0), stop - start)
        sums[j] = _DrawnSums(Moments.of(pairs.lx[split:], scratch=buf),
                             LogSumExp.of(pairs.d[split:], scratch=buf),
                             LogSumExp.of(pairs.d[:split], scratch=buf))

    map_chunks(draw_chunk, n_chunks, buffers)
    lx.flags.writeable = d.flags.writeable = False
    return lx, d, functools.reduce(_DrawnSums.merge, sums)


def _cell_upper(lx: np.ndarray, d: np.ndarray, c: float, k: int, pilot: int,
                buffers: list[np.ndarray]) -> tuple[Moments, int]:
    """The Moments of the upper terms at C of pairs [pilot, n) of a cell,
    and the count of saturated exponents; each chunk forms its terms in a
    worker's raw buffer."""
    per_chunk, n_chunks = _chunking(lx.size, k)
    sums: list[tuple[Moments, int]] = [None] * n_chunks

    def upper_chunk(j: int, buf: np.ndarray) -> None:
        start = max(j * per_chunk, pilot)
        stop = min((j + 1) * per_chunk, lx.size)
        sums[j] = upper_moments(lx[start:stop], d[start:stop], c, scratch=buf)

    map_chunks(upper_chunk, n_chunks, buffers)
    return (functools.reduce(Moments.merge, (m for m, _ in sums)),
            sum(saturated for _, saturated in sums))


def _run_cell(dist: AnalyticDist, cfg: SweepConfig, k: int, rep: int,
              threads: int) -> SweepRow:
    seed = derive_key(cfg.base_seed, rep, k)
    policy, n = cfg.c_policy, cfg.n_pairs
    pilot = policy.pilot_pairs(n)
    buffers = _raw_buffers(k, n, threads)
    lx, d, drawn = _cell_pairs(dist, seed, k, n, pilot, buffers)
    c = float(drawn.pilot.log_mean()) if pilot else policy.fixed_c()
    upper, saturated = _cell_upper(lx, d, c, k, pilot, buffers)
    return SweepRow(k=k, replication=rep, seed=seed, report=bound_report(
        drawn.lower, upper, drawn.log_ratio, saturated, c, k))


def run_sweep(
    dist: AnalyticDist, cfg: SweepConfig, threads: int | None = None
) -> SweepResult:
    """Run every (k, replication) cell of draws from dist, one after
    another, and aggregate per k.

    Deterministic in cfg: cells use derived seeds and chunks derived
    streams, and each chunk writes its own slice of its cell, so any thread
    count gives the same SweepResult.
    """
    nthreads = resolve_threads(threads)
    rows = [_run_cell(dist, cfg, k, r, nthreads)
            for k in cfg.k_values for r in range(cfg.replications)]

    aggregates = []
    for k in cfg.k_values:
        lows = np.array([row.report.lower_mean for row in rows if row.k == k])
        ups = np.array([row.report.upper_mean for row in rows if row.k == k])
        ddof = 1 if lows.size > 1 else 0
        aggregates.append(KAggregate(
            k=k,
            lower_mean=float(lows.mean()),
            lower_std=float(lows.std(ddof=ddof)),
            upper_mean=float(ups.mean()),
            upper_std=float(ups.std(ddof=ddof)),
        ))
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
