"""A sweep cell built chunk by chunk from the library's parts: the reference
that run_sweep's one-pass chunks are compared against.

Chunk j of a cell holds max(1, CHUNK_FLOATS // (2k + 1)) pairs, the last
chunk fewer, drawn from SFC64 under derive_key(cell_seed, j) and paired with
paired_from_halves.  Pairs below the policy's pilot count estimate C; the
rest are bounded.  Each chunk's working pairs reduce to a
bounds.UpperPartial, evaluated at C, or bounded with bounds.pairwise_at
where an exponent saturates; the partials merge in chunk order.
"""

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


def reference_row(dist, cfg, k, rep, draw=sample):
    """The SweepRow of cell (k, rep) of cfg."""
    seed = derive_key(cfg.base_seed, rep, k)
    pilot = cfg.c_policy.pilot_pairs(cfg.n_pairs)
    chunks = chunk_pairs(dist, seed, k, cfg.n_pairs, draw)
    starts = np.cumsum([0] + [c.n for c in chunks])
    splits = [min(max(pilot - start, 0), c.n) for start, c in zip(starts, chunks)]
    if pilot:
        c = float(reduce(LogSumExp.merge, (LogSumExp.of(p.d[:s])
                                           for p, s in zip(chunks, splits))
                         ).log_mean())
    else:
        c = cfg.c_policy.fixed_c()
    blocks = []
    for p, s in zip(chunks, splits):
        if s < p.n:
            lx, d = p.lx[s:], p.d[s:]
            part = UpperPartial.of(lx, d)
            blocks.append((part, part.at(c) or pairwise_at(lx, d, c)))
    return sweep.SweepRow(k=k, replication=rep, seed=seed,
                          report=bound_report(blocks, c, k))


def reference_rows(dist, cfg, draw=sample):
    """Every row of run_sweep(dist, cfg), in its order."""
    return tuple(reference_row(dist, cfg, k, rep, draw)
                 for k in cfg.k_values for rep in range(cfg.replications))
