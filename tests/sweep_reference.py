"""A sweep cell built chunk by chunk from the library's parts: the reference
that run_sweep's one-pass chunks are compared against.

Chunk j of a cell holds max(1, CHUNK_FLOATS // (2k + 1)) pairs, the last
chunk fewer, or half the cell's pairs where one chunk would hold them all,
drawn from SFC64 under derive_key(cell_seed, j) and paired with
paired_from_halves.  Each chunk is one fold.  Under pilot-optimal, fold f is
bounded at C = log mean e^d over the other folds: the LogSumExps of the
folds before it merged left to right, merged with those of the folds after
it merged right to left.  Each chunk's pairs reduce to a
bounds.UpperPartial, evaluated at its C, or are bounded with
bounds.pairwise_at where an exponent saturates; the partials merge in chunk
order.
"""

import math
from functools import reduce

import numpy as np

from gapsandwich import sweep
from gapsandwich.accumulate import LogSumExp
from gapsandwich.bounds import UpperPartial, bound_report, pairwise_at
from gapsandwich.distributions import sample
from gapsandwich.rng import derive_key
from gapsandwich.samples import PairedSamples, paired_from_halves


def chunk_pairs(dist, seed, k, n_pairs, draw=sample):
    """A cell's pairs, one PairedSamples per chunk.  draw has sample's
    signature and fills its out argument."""
    per_chunk = max(1, sweep.CHUNK_FLOATS // (2 * k + 1))
    if n_pairs <= per_chunk:
        per_chunk = math.ceil(n_pairs / 2)
    chunks = []
    for j, start in enumerate(range(0, n_pairs, per_chunk)):
        raw = np.empty(2 * min(per_chunk, n_pairs - start) * k)
        draw(dist, raw.size, derive_key(seed, j), raw,
             bit_generator=np.random.SFC64)
        chunks.append(paired_from_halves(raw, k))
    return chunks


def pairs_of(chunks, start=0, stop=None):
    """Pairs [start, stop) of the concatenated chunks."""
    lx = np.concatenate([c.lx for c in chunks])[start:stop]
    d = np.concatenate([c.d for c in chunks])[start:stop]
    return PairedSamples(lx, d, k=chunks[0].k)


def cross_fitted_cs(chunks):
    """Each chunk's C = log mean e^d over the other chunks, with the
    sweep's grouping, one chunk at a time."""
    parts = [LogSumExp.of(p.d) for p in chunks]
    cs = []
    for f in range(len(parts)):
        before, after = parts[:f], parts[f + 1:]
        others = ([reduce(LogSumExp.merge, before)] if before else []) + (
            [reduce(lambda acc, part: part.merge(acc), after[::-1])]
            if after else [])
        cs.append(float(reduce(LogSumExp.merge, others).log_mean()))
    return cs


def reference_row(dist, cfg, k, rep, draw=sample):
    """The SweepRow of cell (k, rep) of cfg."""
    seed = derive_key(cfg.base_seed, rep, k)
    chunks = chunk_pairs(dist, seed, k, cfg.n_pairs, draw)
    if cfg.c_policy.kind == "pilot-optimal":
        cs = cross_fitted_cs(chunks)
        c_used = math.fsum(p.n * c for p, c in zip(chunks, cs)) / cfg.n_pairs
    else:
        cs, c_used = [cfg.c_policy.value] * len(chunks), cfg.c_policy.value
    blocks = []
    for p, c in zip(chunks, cs):
        part = UpperPartial.of(p.lx, p.d)
        blocks.append((part, part.at(c) or pairwise_at(p.lx, p.d, c)))
    return sweep.SweepRow(k=k, replication=rep, seed=seed,
                          report=bound_report(blocks, c_used, k))


def reference_rows(dist, cfg, draw=sample):
    """Every row of run_sweep(dist, cfg), in its order."""
    return tuple(reference_row(dist, cfg, k, rep, draw)
                 for k in cfg.k_values for rep in range(cfg.replications))
