"""Minimal 1-D Gaussian VAE/IWAE with hand-written gradients.

Encoder and decoder are single-hidden-layer MLPs (4 ReLU units each side);
the encoder outputs the posterior mean and log-stddev, the decoder outputs
the observation mean with a fixed variance.  Importance ratios
R(x, z) = p(x|z) p(z) / q(z|x) drive the ELBO / IW-ELBO objectives and the
paired lower/upper evidence estimates, and the C network, the decoder's
network with its own 13 parameters, maps each datapoint to its bound
parameter C.  Outside the fused training step, every network runs through
_network, which streams its hidden units one at a time through one
N-length temporary.

All parameters live in flat float64 vectors; the declared order (also the
checkpoint payload order) is:

  ToyVae (31): enc_w1[4], enc_b1[4], enc_wmu[4], enc_bmu,
               enc_wls[4], enc_bls, dec_w1[4], dec_b1[4], dec_w2[4], dec_b2
  CNet   (13): w1[4], b1[4], w2[4], b2
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .accumulate import EXP_SATURATION, LogSumExp, log_mean_exp
from .errors import (
    CheckpointError,
    DivergenceDetected,
    InvalidParams,
    NonFiniteParams,
    ParseError,
)
from .parallel import map_chunks, resolve_threads
from .rng import generator
from .samples import PairedSamples

HIDDEN = 4
VAE_PARAM_COUNT = 31
CNET_PARAM_COUNT = 13
DEFAULT_DECODER_VAR = 0.3
_LOG_2PI = math.log(2.0 * math.pi)

# Log-ratios per block in _ratio_estimates and evaluate: a block holds
# max(1, BLOCK_RATIOS // draws per datapoint) datapoints, so its vectors
# stay cache-sized.  Results do not depend on it.
BLOCK_RATIOS = 1 << 15

# Fewest log-ratios per worker in _map_blocks: a pass over R log-ratios runs
# on at most max(1, R // WORKER_RATIOS) workers, because handing the GIL
# over between small numpy calls costs more than a second thread gains.  At
# n = 10^4 on a 2-CPU machine, evaluate on two threads against inline took
# 2.2x as long at k = 1 (10^4 log-ratios a worker), 1.26x at k = 4
# (4 10^4) and 0.90-0.93x at k = 8 (8 10^4).  Results do not depend on it.
WORKER_RATIOS = 1 << 16

# Datapoints per keyed chunk in _ratio_estimates and evaluate: chunk j holds
# datapoints [j CHUNK_POINTS, (j + 1) CHUNK_POINTS) and draws from its own
# stream.  Part of the stream scheme: changing it changes every C-network
# and evaluate result for a given seed.
CHUNK_POINTS = 1024

CHECKPOINT_MAGIC = b"GSVAE001"
CHECKPOINT_VERSION = 1


def _check_params(params: np.ndarray, count: int, what: str) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape != (count,):
        raise InvalidParams(f"{what} needs {count} parameters, got {params.shape}")
    if not np.isfinite(params).all():
        raise NonFiniteParams(f"{what} parameters contain NaN or inf")
    return params


@dataclass
class ToyVae:
    """Flat parameter vector plus the fixed decoder variance."""

    params: np.ndarray
    decoder_var: float = DEFAULT_DECODER_VAR

    def __post_init__(self) -> None:
        self.params = _check_params(self.params, VAE_PARAM_COUNT, "ToyVae")
        if not (self.decoder_var > 0.0 and math.isfinite(self.decoder_var)):
            raise InvalidParams(f"decoder_var must be positive, got {self.decoder_var}")

    @classmethod
    def init(cls, seed: int, decoder_var: float = DEFAULT_DECODER_VAR) -> "ToyVae":
        """Uniform[-0.5, 0.5] init; the log-stddev head starts at zero so the
        posterior begins with unit spread."""
        p = generator(seed).uniform(-0.5, 0.5, VAE_PARAM_COUNT)
        p[13:18] = 0.0
        return cls(p, decoder_var)


@dataclass
class CNet:
    """Datapoint -> bound parameter C regressor (1 -> 4 ReLU -> 1)."""

    params: np.ndarray

    def __post_init__(self) -> None:
        self.params = _check_params(self.params, CNET_PARAM_COUNT, "CNet")

    @classmethod
    def init(cls, seed: int) -> "CNet":
        return cls(generator(seed).uniform(-0.5, 0.5, CNET_PARAM_COUNT))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _mlp(self.params, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Objective:
    """Training objective: plain ELBO or the importance-weighted bound.

    k counts the Monte Carlo draws per datapoint per step (inner importance
    samples for iwae, averaged log-ratio draws for elbo).
    """

    kind: str
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("elbo", "iwae"):
            raise ParseError(f"unknown objective kind {self.kind!r}")
        if self.k < 1:
            raise ParseError(f"objective k must be >= 1, got {self.k}")

    @classmethod
    def parse(cls, text: str) -> "Objective":
        head, _, tail = text.strip().lower().partition(":")
        if head == "elbo":
            if not tail:
                return cls("elbo", 1)
            try:
                return cls("elbo", int(tail))
            except ValueError:
                raise ParseError(f"objective 'elbo' needs an integer: {tail!r}")
        if head == "iwae":
            if not tail:
                raise ParseError("objective 'iwae' needs a sample count, e.g. iwae:5")
            try:
                return cls("iwae", int(tail))
            except ValueError:
                raise ParseError(f"objective 'iwae' needs an integer: {tail!r}")
        raise ParseError(f"unknown objective {text!r}")


# ---------------------------------------------------------------------------
# Forward passes (vectorized over any leading batch shape)
# ---------------------------------------------------------------------------

def _relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden ReLU activations of a scalar-input layer, unit-major.

    Returns a C-ordered (w.size, N) array over the N = x.size inputs taken
    in C order: row j is unit j, bit for bit the transpose of
    np.maximum(x.reshape(-1, 1) * w + b, 0.0), and bit for bit the unit
    _network streams.
    """
    h = np.multiply.outer(w, x.ravel())
    h += b[:, None]
    return np.maximum(h, 0.0, out=h)


def _network(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
             b2: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The 1 -> 4 ReLU -> J network at the flat inputs x, into the (J, N)
    out, with w2 of shape (J, 4) and b2 of shape (J,).

    The hidden units stream through the N-length temporary tmp: unit j's
    activations h = max(w1[j] x + b1[j], 0) are formed there and added into
    each output as w2[r, j] h, so output r is
    ((w2[r, 0] h0 + w2[r, 1] h1) + w2[r, 2] h2) + w2[r, 3] h3 + b2[r], the
    units added in order.  An input's value therefore does not depend on
    how many come with it.  The last output takes its product in place of
    h; the others, the encoder's mean head only, through a numpy temporary.
    """
    last = w2.shape[0] - 1
    for j in range(HIDDEN):
        h = np.multiply(w1[j], x, out=tmp)
        h += b1[j]
        np.maximum(h, 0.0, out=h)
        for r in range(last + 1):
            if j == 0:
                np.multiply(w2[r, 0], h, out=out[r])
            elif r < last:
                out[r] += w2[r, j] * h
            else:
                h *= w2[r, j]
                out[r] += h
    out += b2[:, None]
    return out


def _encode(params: np.ndarray, x: np.ndarray):
    """The posterior mean mu and log-std t, shaped like x."""
    n = x.size
    heads = params[8:18].reshape(2, HIDDEN + 1)
    mu, t = _network(x.ravel(), params[0:4], params[4:8], heads[:, :HIDDEN],
                     heads[:, HIDDEN], np.empty((2, n)), np.empty(n))
    return mu.reshape(x.shape), t.reshape(x.shape)


def _mlp(p: np.ndarray, x: np.ndarray, out=None, tmp=None):
    """The 1 -> 4 ReLU -> 1 network with the 13 parameters p = w1[4], b1[4],
    w2[4], b2: the decoder on params[18:31] and the C network.  Returns the
    output shaped like x, in the flat out where given, streaming the hidden
    units through the flat N-length tmp where given (see _network)."""
    n = x.size
    out = np.empty(n) if out is None else out
    tmp = np.empty(n) if tmp is None else tmp
    _network(x.ravel(), p[0:4], p[4:8], p[8:12].reshape(1, HIDDEN), p[12:13],
             out[None], tmp)
    return out.reshape(x.shape)


def _mlp_backward(p: np.ndarray, x: np.ndarray, g_y: np.ndarray,
                  grad: np.ndarray) -> None:
    """Backward pass of _mlp(p, x), for the gradient g_y at its flat output:
    recomputes the (4, N) hidden layer and writes the 13 parameter
    gradients into grad."""
    h = _relu_layer(x, p[0:4], p[4:8])
    grad[8:12] = h @ g_y
    grad[12] = g_y.sum()
    g_a = np.multiply.outer(p[8:12], g_y)
    g_a *= h > 0.0
    grad[0:4] = g_a @ x
    grad[4:8] = g_a.sum(axis=1)


class _Workspace:
    """One worker's scratch for the log-ratio kernel over up to size draws:
    eps, z, m (then resid, then log R) and the decoder's temporary, 4 size
    floats in all."""

    def __init__(self, size: int) -> None:
        self.eps, self.z, self.m, self.tmp = np.empty((4, size))


def _log_r(resid, z, t, eps, decoder_var, out, tmp):
    """logR = C - resid^2 / (2 var) - z z / 2 + t + eps eps / 2, left to
    right, into out, with tmp as scratch; t broadcasts against eps."""
    logR = np.multiply(resid, resid, out=out)
    logR /= 2.0 * decoder_var
    np.subtract(-0.5 * (_LOG_2PI + math.log(decoder_var)), logR, out=logR)
    half_sq = np.multiply(0.5, z, out=tmp)
    half_sq *= z
    logR -= half_sq
    logR += t
    np.multiply(0.5, eps, out=half_sq)
    half_sq *= eps
    logR += half_sq
    return logR


def _log_r_reparam(params, decoder_var, x, eps, ws: _Workspace | None = None):
    """log R at z = mu + exp(t) * eps, with the posterior term simplified to
    t + eps^2/2; exact as a function of (mu, t, eps).

    x has shape (B,) and eps (B, ...); x, mu, t and sigma broadcast over the
    trailing sample axes of eps.  Returns (logR, z), both shaped like eps.
    This is the estimator kernel: the C-network ratio estimates and
    evaluate call it, and its networks add their hidden units in order (see
    _network), so a datapoint's bits do not depend on the block it is in.
    Training takes the fused step in iw_objective_and_grad instead.

    z, m (then resid, then log R, each elementwise in place of the last)
    and the decoder's temporary go into the buffers of the workspace ws,
    over at least eps.size draws, or of a new _Workspace(eps.size) when ws
    is None; the returned arrays are views of ws.z and ws.m, and ws.tmp is
    free once the call returns.
    """
    n = eps.size
    if ws is None:
        ws = _Workspace(n)
    z_out, tmp = ws.z[:n].reshape(eps.shape), ws.tmp[:n].reshape(eps.shape)
    mu, t = _encode(params, x)
    sg = np.exp(t)
    trailing = (slice(None),) + (None,) * (eps.ndim - 1)
    z = np.multiply(sg[trailing], eps, out=z_out)
    z += mu[trailing]
    m = _mlp(params[18:31], z, ws.m[:n], ws.tmp[:n])
    resid = np.subtract(x[trailing], m, out=m)
    logR = _log_r(resid, z, t[trailing], eps, decoder_var, resid, tmp)
    return logR, z


# ---------------------------------------------------------------------------
# Objective values and hand-derived gradients
# ---------------------------------------------------------------------------

class _StepSpace:
    """A training step's buffers for B datapoints at K draws each.

    Each layer's input carries a row of ones under its values, so the
    layer's stacked (weights, bias) block applies to it in one product: x1
    is (x; 1) and h1 (h; 1) over the B datapoints, z1 (z; 1) and hd1
    (hd; 1) over the N = B K draws.  eps holds the step's normals, which
    the caller draws into it, sg_eps = z - mu, w the per-draw weights, mt
    the posterior mean and log-std, and g_z the latent gradient and its
    product with sg_eps.
    """

    def __init__(self, B: int, K: int) -> None:
        N = B * K
        self.eps, self.sg_eps, self.w = np.empty((3, B, K))
        self.x1 = np.ones((2, B))
        self.h1 = np.ones((HIDDEN + 1, B))
        self.z1 = np.ones((2, N))
        self.hd1 = np.ones((HIDDEN + 1, N))
        self.mt, self.g_mt = np.empty((2, 2, B))
        self.sg, self.lse, self.top = np.empty((3, B))
        self.m = np.empty(N)
        self.g_z = np.empty((2, B, K))
        self.ones = np.ones(K)
        self.g_h = np.empty((HIDDEN, B))
        self.grad = np.empty(VAE_PARAM_COUNT)
        self.finite = np.empty(VAE_PARAM_COUNT, dtype=bool)


def iw_objective_and_grad(
    params: np.ndarray,
    decoder_var: float,
    xs: np.ndarray,
    eps: np.ndarray,
    kind: str = "iwae",
    ws: _StepSpace | None = None,
) -> tuple[float, np.ndarray]:
    """Batch objective (mean over datapoints) and its exact parameter gradient.

    kind "iwae": per datapoint log-mean-exp of the K ratios; the gradient
    weights each sample by its normalized importance weight.  kind "elbo":
    plain mean of log R; every sample weighs the scalar 1/(B K).  Any other
    kind raises ParseError.

    One fused pass, the training step: each layer's forward is one product
    of its stacked (weights, bias) block with its input and a row of ones,
    plus a ReLU, and each layer's weight-and-bias gradient is one product.
    The ELBO value comes from four sums (of resid^2, z^2, eps^2 and t)
    without forming log R.  BLAS rounds a product's columns by where they
    fall in its blocks, so a datapoint's bits depend on its batch; the
    estimator passes use _log_r_reparam, whose bits do not, and which the
    tests check this step against.

    The pass works in the buffers of ws, a _StepSpace(B, K) for eps's
    (B, K) shape, or of a new one when ws is None; the returned gradient is
    ws.grad, overwritten by the next call with ws.
    """
    if kind not in ("elbo", "iwae"):
        raise ParseError(f"unknown objective kind {kind!r}")
    xs = np.asarray(xs, dtype=float)
    eps = np.asarray(eps, dtype=float)
    B, K = eps.shape
    N = B * K
    if ws is None:
        ws = _StepSpace(B, K)
    # Stacked blocks: the (4, 2) columns (w1, b1) of each hidden layer, the
    # (2, 5) encoder heads [w_mu, b_mu; w_ls, b_ls] and the decoder's
    # (w2, b2).
    enc, heads = params[0:8].reshape(2, HIDDEN).T, params[8:18].reshape(2, HIDDEN + 1)
    dec, dec_out = params[18:26].reshape(2, HIDDEN).T, params[26:31]
    grad = ws.grad

    ws.x1[0] = xs
    h = np.matmul(enc, ws.x1, out=ws.h1[:HIDDEN])
    np.maximum(h, 0.0, out=h)
    mu, t = np.matmul(heads, ws.h1, out=ws.mt)
    sg = np.exp(t, out=ws.sg)
    sg_eps = np.multiply(sg[:, None], eps, out=ws.sg_eps)
    z = np.add(sg_eps, mu[:, None], out=ws.z1[0].reshape(B, K))
    hd = np.matmul(dec, ws.z1, out=ws.hd1[:HIDDEN])
    np.maximum(hd, 0.0, out=hd)
    resid = np.matmul(dec_out, ws.hd1, out=ws.m).reshape(B, K)
    np.subtract(xs[:, None], resid, out=resid)

    if kind == "elbo":
        # mean log R = C - (sum r^2 / (2 var) + sum z^2 / 2 - sum eps^2 / 2) / N
        #              + sum t / B
        r, zf, ef = ws.m, ws.z1[0], eps.ravel()
        log_norm = -0.5 * (_LOG_2PI + math.log(decoder_var))
        value = float(log_norm - (np.dot(r, r) / (2.0 * decoder_var)
                                  + 0.5 * (np.dot(zf, zf) - np.dot(ef, ef))) / N
                      + t.sum() / B)
        g_logR = 1.0 / N
        g_m = np.multiply(resid, g_logR / decoder_var, out=resid)
    else:
        # log R into w, then w = exp(log R - lse) / B, the gradient weights.
        w = _log_r(resid, z, t[:, None], eps, decoder_var, ws.w, ws.g_z[0])
        top = np.max(w, axis=1, out=ws.top)
        w -= top[:, None]
        np.exp(w, out=w)
        lse = np.sum(w, axis=1, out=ws.lse)
        w /= lse[:, None]
        np.log(lse, out=lse)
        lse += top
        value = float(lse.mean()) - math.log(K)
        w /= B
        g_logR = w
        g_m = np.multiply(resid, w, out=resid)
        g_m /= decoder_var

    # Decoder: g_m = resid g_logR / var at the output, in place of resid,
    # then the hidden layer masked to its pre-activations, in place of hd:
    # hd >= 0, so its sign is the ReLU's 0/1 mask.
    g_m = g_m.reshape(N)
    np.matmul(ws.hd1, g_m, out=grad[26:31])
    g_ad = np.sign(hd, out=hd)
    g_ad *= dec_out[:HIDDEN, None]
    g_ad *= g_m
    np.matmul(ws.z1, g_ad.T, out=grad[18:26].reshape(2, HIDDEN))
    # Latent path: explicit -z^2/2 plus the decoder sensitivity.  G holds
    # g_mu and g_t per datapoint, the sums of g_z and g_z sigma eps over its
    # draws; the +t term of log R adds each datapoint's total weight, 1/B,
    # to g_t.
    g_z, g_z_eps = ws.g_z
    np.matmul(params[18:22], g_ad, out=g_z.reshape(N))
    g_z -= np.multiply(z, g_logR, out=ws.w)
    np.multiply(g_z, sg_eps, out=g_z_eps)
    # The sums over each datapoint's draws as one product with ones; a
    # single draw is its own sum.
    if K == 1:
        G = ws.g_z.reshape(2, B)
    else:
        G = np.matmul(ws.g_z.reshape(2 * B, K), ws.ones,
                      out=ws.g_mt.reshape(2 * B)).reshape(2, B)
    G[1] += 1.0 / B
    # Encoder: the heads, then the hidden layer masked in place of h.
    np.matmul(G, ws.h1.T, out=grad[8:18].reshape(2, HIDDEN + 1))
    g_a = np.sign(h, out=h)
    g_a *= np.matmul(heads[:, :HIDDEN].T, G, out=ws.g_h)
    np.matmul(ws.x1, g_a.T, out=grad[0:8].reshape(2, HIDDEN))
    return value, grad


def cnet_objective_and_grad(
    cparams: np.ndarray,
    xs: np.ndarray,
    log_r_hat: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean of C(x) - 1 + exp(log_r_hat(x) - C(x)) and its CNet gradient.

    log_r_hat, the log of the ratio estimate, is treated as a constant (it
    does not depend on CNet parameters).
    """
    xs = np.asarray(xs, dtype=float)
    log_r_hat = np.asarray(log_r_hat, dtype=float)
    c = _mlp(cparams, xs)
    expterm = np.exp(np.minimum(log_r_hat - c, EXP_SATURATION))
    value = float(np.mean(c - 1.0 + expterm))
    g_c = (1.0 - expterm) / xs.size
    grad = np.empty(CNET_PARAM_COUNT)
    _mlp_backward(cparams, xs, g_c, grad)
    return value, grad


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: ToyVae
    loss_history: list[float] = field(default_factory=list)


@dataclass
class CNetTrainResult:
    cnet: CNet
    loss_history: list[float] = field(default_factory=list)


def train(
    model: ToyVae,
    data: np.ndarray,
    objective: Objective,
    epochs: int,
    batch: int,
    lr: float,
    seed: int,
) -> TrainResult:
    """Plain SGD on the negative objective; sequential over shuffled batches.

    Each epoch draws a permutation of the data, then each batch its eps, one
    standard_normal draw of (rows, K) per batch, so memory is O(batch K).
    numpy fills normals in C order, so these are the same draws as one call
    per epoch.  Each step is one iw_objective_and_grad in a _StepSpace made
    once per call for its batch size, so no step allocates an array.
    Raises DivergenceDetected the moment the loss or a parameter goes
    non-finite.  lr = 0 leaves the parameters bit-identical.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParams("training data is empty")
    if not (0.0 <= lr < math.inf) or batch < 1 or epochs < 0:
        raise InvalidParams(f"bad training config: epochs={epochs} batch={batch} lr={lr}")
    params = model.params.copy()
    rng = generator(seed)
    history: list[float] = []
    n = data.size
    # One step space per batch size: a full batch, and a short last one.
    spaces: dict[int, _StepSpace] = {}
    # Overflow here is the divergence signal, detected just below.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            shuffled = data[rng.permutation(n)]
            epoch_loss = 0.0
            for start in range(0, n, batch):
                xs = shuffled[start:start + batch]
                ws = spaces.get(xs.size)
                if ws is None:
                    ws = spaces[xs.size] = _StepSpace(xs.size, objective.k)
                value, grad = iw_objective_and_grad(
                    params, model.decoder_var, xs, rng.standard_normal(out=ws.eps),
                    objective.kind, ws,
                )
                if not math.isfinite(value):
                    raise DivergenceDetected(
                        f"non-finite loss at epoch {epoch}, batch start {start}"
                    )
                if lr != 0.0:
                    grad *= lr
                    params += grad
                    if not np.isfinite(params, out=ws.finite).all():
                        raise DivergenceDetected(
                            f"non-finite parameters at epoch {epoch}, "
                            f"batch start {start}"
                        )
                epoch_loss += -value * xs.size
            history.append(epoch_loss / n)
    return TrainResult(ToyVae(params, model.decoder_var), history)


def _block_workspaces(n: int, draws: int) -> list[_Workspace]:
    """New workspaces for a _map_blocks pass over n datapoints at draws
    log-ratios each, one per worker: resolve_threads() of them, capped by
    the chunk count and so that each worker gets at least WORKER_RATIOS
    log-ratios, each of max(BLOCK_RATIOS, draws) draws."""
    workers = max(1, min(resolve_threads(), -(-n // CHUNK_POINTS),
                         n * draws // WORKER_RATIOS))
    return [_Workspace(max(BLOCK_RATIOS, draws)) for _ in range(workers)]


def _map_blocks(n: int, trailing: tuple[int, ...], stream: tuple[int, ...],
                step, workspaces: list[_Workspace] | None = None) -> None:
    """Run step(start, stop, eps, ws) on every block of the datapoints
    [0, n), with eps of shape (stop - start, *trailing) in the worker's
    workspace ws.

    Chunk j holds datapoints [j CHUNK_POINTS, (j + 1) CHUNK_POINTS) and
    fills its blocks' eps in order, in C order, from generator(*stream, j).
    numpy fills normals in C order, so the draws do not depend on the block
    size, and a datapoint's draws depend only on its index.  The chunks run
    through map_chunks, one worker per workspace, and each step writes only
    its own datapoints' results.  The workspaces are the given list, which
    a caller may reuse across passes, or else _block_workspaces(n, draws),
    so a call holds O(threads BLOCK_RATIOS) floats whatever k is.
    Floating-point warnings are off: callers check the results.
    """
    draws = math.prod(trailing)
    block = max(1, BLOCK_RATIOS // draws)
    if workspaces is None:
        workspaces = _block_workspaces(n, draws)

    def chunk(j: int, ws: _Workspace) -> None:
        rng = generator(*stream, j)
        end = min((j + 1) * CHUNK_POINTS, n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for start in range(j * CHUNK_POINTS, end, block):
                stop = min(start + block, end)
                eps = ws.eps[:(stop - start) * draws].reshape(stop - start, *trailing)
                rng.standard_normal(out=eps)
                step(start, stop, eps, ws)

    map_chunks(chunk, -(-n // CHUNK_POINTS), workspaces)


def _ratio_estimates(
    model: ToyVae,
    xs: np.ndarray,
    k: int,
    n_pairs: int,
    seed: int,
    epoch: int,
    workspaces: list[_Workspace] | None = None,
) -> np.ndarray:
    """Per-datapoint log r_hat(x), where r_hat(x) estimates
    E[mean_k R(x, z~) / mean_k R(x, z)] over n_pairs independent (z, z~)
    tuples, as a log-mean-exp so that no ratio under- or overflows.

    Datapoint i's (n_pairs, 2, k) normals come from its chunk's stream
    derive_key(seed, epoch, j) (see _map_blocks), so the result depends on
    neither the block size nor the thread count, and xs[:m] gives the first
    m values.  Memory is O(threads BLOCK_RATIOS) for the workspaces, given
    or made as in _map_blocks, plus O(n) for the result.
    """
    out = np.empty(xs.size)

    def step(start: int, stop: int, eps: np.ndarray, ws: _Workspace) -> None:
        logR, _ = _log_r_reparam(model.params, model.decoder_var,
                                 xs[start:stop], eps, ws)
        # ws.tmp is free once the kernel returns.
        lse = LogSumExp.of(logR, axis=3, scratch=ws.tmp).log_sum()
        out[start:stop] = log_mean_exp(lse[:, :, 1, 0] - lse[:, :, 0, 0],
                                       axis=1)

    _map_blocks(xs.size, (n_pairs, 2, k), (seed, epoch), step, workspaces)
    return out


def train_cnet(
    cnet: CNet,
    model: ToyVae,
    data: np.ndarray,
    k: int,
    n_pairs: int,
    epochs: int,
    lr: float,
    seed: int,
) -> CNetTrainResult:
    """Full-batch gradient descent on the mean gap bound, with fresh
    (z, z~) ratio estimates drawn every epoch from the streams
    derive_key(seed, epoch, j).  Each epoch's estimates run on
    _block_workspaces' workers, in workspaces made once per call, and the
    result is bit-identical at any thread count."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParams("cnet training data is empty")
    if k < 1 or n_pairs < 1 or not (0.0 <= lr < math.inf) or epochs < 0:
        raise InvalidParams(
            f"bad cnet config: k={k} n_pairs={n_pairs} epochs={epochs} lr={lr}"
        )
    cparams = cnet.params.copy()
    history: list[float] = []
    workspaces = _block_workspaces(data.size, n_pairs * 2 * k)
    for epoch in range(epochs):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_r_hat = _ratio_estimates(model, data, k, n_pairs, seed, epoch,
                                         workspaces)
            value, grad = cnet_objective_and_grad(cparams, data, log_r_hat)
        if not math.isfinite(value):
            raise DivergenceDetected(f"non-finite cnet loss at epoch {epoch}")
        if lr != 0.0:
            cparams = cparams - lr * grad
            if not np.isfinite(cparams).all():
                raise DivergenceDetected(f"non-finite cnet parameters at epoch {epoch}")
        history.append(value)
    return CNetTrainResult(CNet(cparams), history)


# ---------------------------------------------------------------------------
# Evaluation: paired lower/upper evidence estimates per datapoint
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRecord:
    x: float
    s: float
    S: float
    c: float
    k: int


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Per-datapoint vectors x, s (the lower terms), S (the upper terms) and
    c, and their summary: elbo and report, the pairs' bounds.BoundReport,
    whose k is the one they were drawn at."""

    x: np.ndarray
    s: np.ndarray
    S: np.ndarray
    c: np.ndarray
    elbo: float
    report: bounds.BoundReport

    @property
    def saturated(self) -> int:
        return self.report.saturated_pairs

    @property
    def records(self) -> tuple[EvalRecord, ...]:
        """The vectors as one EvalRecord per datapoint, built on access."""
        return tuple(EvalRecord(*row, self.report.k) for row in zip(
            self.x.tolist(), self.s.tolist(), self.S.tolist(), self.c.tolist()))


def evaluate(
    model: ToyVae,
    c_source: CNet | float,
    data: np.ndarray,
    k: int,
    seed: int,
) -> EvalResult:
    """Paired lower/upper evidence estimates, one pair per datapoint.

    Datapoint i draws two independent k-tuples from q(.|x): its (2, k)
    normals come from its chunk's stream derive_key(seed, j) (see
    _map_blocks).  The results therefore depend on neither the block size
    nor the thread count, and data[:m] gives the first m of them.
    Datapoint i's pair is lx = s = log mean R, the IWAE bound, and
    d = log sum R~ - log sum R, and bounds.pairwise_at gives its
    S = s + C - 1 + exp(d - C).  The report is bounds.bound_report of the
    pairs' UpperPartial and pairwise_at at their Cs, as sandwich reports a
    batch, with the mean of the Cs as c_used.  A float C must be finite, a
    C network that gives a non-finite C raises NonFiniteParams, and
    non-finite log-ratios raise NonPositiveSample.
    elbo is the mean log R over the primal draws.

    The chunks run on _block_workspaces' workers, each in a workspace of
    max(BLOCK_RATIOS, 2k) draws made for this call, so memory is
    O(threads BLOCK_RATIOS + n) whatever k is.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParams("evaluation data is empty")
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if not isinstance(c_source, CNet) and not math.isfinite(c_source):
        raise InvalidParams(f"C must be finite, got {c_source!r}")
    n = data.size
    with np.errstate(over="ignore", invalid="ignore"):
        c_vals = c_source(data) if isinstance(c_source, CNet) else np.full(n, float(c_source))
    if not np.isfinite(c_vals).all():
        raise NonFiniteParams("the C network gives a non-finite C")
    lse = np.empty((n, 2))
    primal_sums = np.empty(n)

    def step(start: int, stop: int, eps: np.ndarray, ws: _Workspace) -> None:
        logR, _ = _log_r_reparam(model.params, model.decoder_var,
                                 data[start:stop], eps, ws)
        lse[start:stop] = LogSumExp.of(logR, axis=2,
                                       scratch=ws.tmp).log_sum()[:, :, 0]
        primal_sums[start:stop] = logR[:, 0, :].sum(axis=1)

    _map_blocks(n, (2, k), (seed,), step)
    # Overflow leaves non-finite pairs, which PairedSamples rejects.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pairs = PairedSamples(lse[:, 0] - math.log(k), lse[:, 1] - lse[:, 0], k)
    # lse is free once the pairs are formed: its halves take the temporaries.
    free, S_vals = lse.reshape(-1), np.empty(n)
    partial = bounds.UpperPartial.of(pairs.lx, pairs.d, out=(free[:n], free[n:]))
    at_c = bounds.pairwise_at(pairs.lx, pairs.d, c_vals, out=(free[:n], S_vals))
    return EvalResult(
        x=data,
        s=pairs.lx,
        S=S_vals,
        c=c_vals,
        elbo=float(primal_sums.sum() / (n * k)),
        report=bounds.bound_report([(partial, at_c)], float(np.mean(c_vals)), k),
    )


# ---------------------------------------------------------------------------
# Checkpoints: magic GSVAE001, u32 version, u32 param count, then float64 LE
# payload in declared order.  ToyVae appends one extra float64 (the decoder
# variance) after its 31 parameters; CNet stores exactly its 13 parameters.
# ---------------------------------------------------------------------------

def _write_checkpoint(path: str, payload: np.ndarray, count: int) -> None:
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, count)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(payload, dtype="<f8").tobytes())


def _read_checkpoint(path: str, expected_count: int, extra: int, build):
    """build(payload) for the checkpoint at path.  Bad framing, and values
    that build rejects, which no save_* writes, raise CheckpointError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if len(blob) < 16 or blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path!r}")
    version, count = struct.unpack("<II", blob[8:16])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} in {path!r}")
    if count != expected_count:
        raise CheckpointError(
            f"checkpoint {path!r} holds {count} parameters, expected {expected_count}"
        )
    expected_size = 16 + 8 * (count + extra)
    if len(blob) != expected_size:
        raise CheckpointError(
            f"checkpoint {path!r} is {len(blob)} bytes, expected {expected_size}"
        )
    try:
        return build(np.frombuffer(blob[16:], dtype="<f8").astype(float))
    except (InvalidParams, NonFiniteParams) as exc:
        raise CheckpointError(f"checkpoint {path!r} holds bad values: {exc}") from exc


def save_model(path: str, model: ToyVae) -> None:
    _write_checkpoint(
        path, np.append(model.params, model.decoder_var), VAE_PARAM_COUNT
    )


def load_model(path: str) -> ToyVae:
    return _read_checkpoint(path, VAE_PARAM_COUNT, 1, lambda payload: ToyVae(
        payload[:VAE_PARAM_COUNT], float(payload[VAE_PARAM_COUNT])))


def save_cnet(path: str, cnet: CNet) -> None:
    _write_checkpoint(path, cnet.params, CNET_PARAM_COUNT)


def load_cnet(path: str) -> CNet:
    return _read_checkpoint(path, CNET_PARAM_COUNT, 0, CNet)
