"""Orchestration: paired sampling, k-sweeps, replications, CSV output.

Every (k, replication) cell derives its own seed and draws its 2*n_pairs*k
fresh values in fixed chunks of about CHUNK_DRAWS raw draws; chunk j uses the
stream derive_key(cell_seed, j) and is reduced to pairs at once, so a cell
holds O(n_pairs) memory whatever k is.  Results are bit-identical for a given
config regardless of thread count or execution order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import BoundReport, optimal_c, sandwich
from .distributions import AnalyticDist, sample
from .errors import ParseError, SourceFailure
from .rng import derive_key
from .samples import PairedSamples, paired_from_halves

THREADS_ENV = "GAPSANDWICH_THREADS"

# Raw draws per chunk of a cell.  Part of the stream scheme: changing it
# changes every sweep result for a given seed.
CHUNK_DRAWS = 1 << 20

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

    def spec_string(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.value:g}"
        return self.kind


def apply_c_policy(s: PairedSamples, policy: CPolicy) -> tuple[float, PairedSamples]:
    """Resolve C for a batch; pilot-optimal spends a prefix on estimating C
    and returns the untouched remainder for the actual bounds."""
    if policy.kind == "zero":
        return 0.0, s
    if policy.kind == "fixed":
        return policy.value, s
    pilot = min(max(64, math.ceil(s.n / 10)), s.n - 1) if s.n > 1 else 0
    if pilot < 1:
        return optimal_c(s), s
    return optimal_c(s.subset(0, pilot)), s.subset(pilot, s.n)


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
class SampleSource:
    """A named sampler of positive values."""

    name: str
    draw: Callable[[int, int], np.ndarray]


def dist_source(d: AnalyticDist) -> SampleSource:
    return SampleSource(name=d.spec_string(), draw=lambda n, seed: sample(d, n, seed))


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


def resolve_threads(threads: int | None = None) -> int:
    """Thread count: explicit arg wins, then the env var (0 = auto)."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ParseError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if threads == 0:
        threads = os.cpu_count() or 1
    return max(1, threads)


def _cell_pairs(source: SampleSource, seed: int, k: int, n_pairs: int) -> PairedSamples:
    """One cell's pairs; chunk j is drawn from derive_key(seed, j).  Kept
    apart from _run_cell so the per-chunk vectors are freed before the
    bounds run."""
    per_chunk = max(1, CHUNK_DRAWS // (2 * k))
    lx, d = [], []
    for j, start in enumerate(range(0, n_pairs, per_chunk)):
        m = min(per_chunk, n_pairs - start)
        try:
            raw = source.draw(2 * m * k, derive_key(seed, j))
        except Exception as exc:  # noqa: BLE001 - contract: wrap source errors
            raise SourceFailure(f"source {source.name!r} failed: {exc}") from exc
        chunk = paired_from_halves(np.asarray(raw, dtype=float), k)
        lx.append(chunk.lx)
        d.append(chunk.d)
    return PairedSamples(np.concatenate(lx), np.concatenate(d), k=k)


def _run_cell(source: SampleSource, cfg: SweepConfig, k: int, rep: int) -> SweepRow:
    seed = derive_key(cfg.base_seed, rep, k)
    c, working = apply_c_policy(_cell_pairs(source, seed, k, cfg.n_pairs),
                                cfg.c_policy)
    return SweepRow(k=k, replication=rep, seed=seed, report=sandwich(working, c))


def run_sweep(
    source: SampleSource, cfg: SweepConfig, threads: int | None = None
) -> SweepResult:
    """Run every (k, replication) cell and aggregate per k.

    Deterministic in cfg: cells use derived seeds, and results are placed by
    index, so any thread count gives the same SweepResult.
    """
    cells = [(k, r) for k in cfg.k_values for r in range(cfg.replications)]
    nthreads = resolve_threads(threads)
    if nthreads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            rows = list(pool.map(lambda kr: _run_cell(source, cfg, *kr), cells))
    else:
        rows = [_run_cell(source, cfg, k, r) for k, r in cells]

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
