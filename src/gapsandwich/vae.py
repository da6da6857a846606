"""Minimal 1-D Gaussian VAE/IWAE with hand-written gradients.

Encoder and decoder are single-hidden-layer MLPs (4 ReLU units each side);
the encoder outputs the posterior mean and log-stddev, the decoder outputs
the observation mean with a fixed variance.  Importance ratios
R(x, z) = p(x|z) p(z) / q(z|x) drive the ELBO / IW-ELBO objectives and the
paired lower/upper evidence estimates, and a second tiny MLP maps each
datapoint to its bound parameter C.

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

from .accumulate import EXP_SATURATION, logsumexp
from .errors import (
    CheckpointError,
    DivergenceDetected,
    InvalidParams,
    NonFiniteParams,
    ParseError,
)
from .rng import generator, streams

HIDDEN = 4
VAE_PARAM_COUNT = 31
CNET_PARAM_COUNT = 13
DEFAULT_DECODER_VAR = 0.3
_LOG_2PI = math.log(2.0 * math.pi)

# Log-ratios per block in _ratio_estimates and evaluate: a block holds
# max(1, BLOCK_RATIOS // draws per datapoint) datapoints, so its hidden
# activations stay cache-sized.  Results do not depend on it.
BLOCK_RATIOS = 1 << 15

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
        c, _ = _cnet_forward(self.params, np.asarray(x, dtype=float))
        return c


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
                raise ParseError(f"objective key 'elbo' needs an integer: {tail!r}")
        if head == "iwae":
            if not tail:
                raise ParseError("objective 'iwae' needs a sample count, e.g. iwae:5")
            try:
                return cls("iwae", int(tail))
            except ValueError:
                raise ParseError(f"objective key 'iwae' needs an integer: {tail!r}")
        raise ParseError(f"unknown objective {text!r}")

    def spec_string(self) -> str:
        return "elbo" if self.kind == "elbo" and self.k == 1 else f"{self.kind}:{self.k}"


# ---------------------------------------------------------------------------
# Forward passes (vectorized over any leading batch shape)
# ---------------------------------------------------------------------------

def _relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden ReLU activations of a scalar-input layer, shape x.shape + w.shape.

    Computed unit-major, so numpy's inner loop runs over x rather than over
    the 4 units, and written into a C-ordered result: the values, and the
    bits of every later reduction over the unit axis, equal those of
    np.maximum(x[..., None] * w + b, 0.0).
    """
    h = np.multiply.outer(w, x.ravel())
    h += b[:, None]
    out = np.empty(x.shape + w.shape)
    np.maximum(h, 0.0, out=out.reshape(-1, w.size).T)
    return out


def _encode(params: np.ndarray, x: np.ndarray):
    """Returns hidden h, posterior mean mu and log-std t."""
    h = _relu_layer(x, params[0:4], params[4:8])
    mu = h @ params[8:12] + params[12]
    t = h @ params[13:17] + params[17]
    return h, mu, t


def _decode(params: np.ndarray, z: np.ndarray):
    """Returns hidden hd and the decoded mean."""
    hd = _relu_layer(z, params[18:22], params[22:26])
    return hd, hd @ params[26:30] + params[30]


def _cnet_forward(params: np.ndarray, x: np.ndarray):
    """Returns C(x) and the hidden h."""
    h = _relu_layer(x, params[0:4], params[4:8])
    return h @ params[8:12] + params[12], h


def _gaussian_logpdf(x, mean, var):
    return -0.5 * (_LOG_2PI + math.log(var)) - (x - mean) ** 2 / (2.0 * var)


def log_r(model: ToyVae, x, z):
    """log of the importance ratio p(x|z) p(z) / q(z|x).

    x and z must broadcast against each other (e.g. scalar x with a vector
    of z draws); scalars in give a scalar out.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    _, mu, t = _encode(model.params, x)
    m = _decode(model.params, z)[1]
    recon = _gaussian_logpdf(x, m, model.decoder_var)
    prior = -0.5 * _LOG_2PI - 0.5 * z * z
    log_q = -0.5 * _LOG_2PI - t - (z - mu) ** 2 / (2.0 * np.exp(2.0 * t))
    out = recon + prior - log_q
    return float(out) if np.ndim(out) == 0 else out


def _log_r_reparam(params, decoder_var, x, eps):
    """log R at z = mu + exp(t) * eps, with the posterior term simplified to
    t + eps^2/2; exact as a function of (mu, t, eps).

    x has shape (B,) and eps (B, ...); x, mu, t and sigma broadcast over the
    trailing sample axes of eps.  Returns (logR, z, caches), logR and z
    shaped like eps, caches = (h, mu, t, sigma, hd, resid) for the gradient.
    """
    h, mu, t = _encode(params, x)
    sg = np.exp(t)
    trailing = (slice(None),) + (None,) * (eps.ndim - 1)
    z = mu[trailing] + sg[trailing] * eps
    hd, m = _decode(params, z)
    resid = x[trailing] - m
    logR = (
        -0.5 * (_LOG_2PI + math.log(decoder_var))
        - resid**2 / (2.0 * decoder_var)
        - 0.5 * z * z
        + t[trailing]
        + 0.5 * eps * eps
    )
    return logR, z, (h, mu, t, sg, hd, resid)


# ---------------------------------------------------------------------------
# Objective values and hand-derived gradients
# ---------------------------------------------------------------------------

def iw_objective_and_grad(
    params: np.ndarray,
    decoder_var: float,
    xs: np.ndarray,
    eps: np.ndarray,
    kind: str = "iwae",
) -> tuple[float, np.ndarray]:
    """Batch objective (mean over datapoints) and its exact parameter gradient.

    kind "iwae": per datapoint log-mean-exp of the K ratios; the gradient
    weights each sample by its normalized importance weight.  kind "elbo":
    plain mean of log R; uniform weights.
    """
    xs = np.asarray(xs, dtype=float)
    eps = np.asarray(eps, dtype=float)
    B, K = eps.shape
    logR, z, (h, mu, t, sg, hd, resid) = _log_r_reparam(
        params, decoder_var, xs, eps
    )

    if kind == "iwae":
        shifted = logR - logR.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        w = expd / expd.sum(axis=1, keepdims=True)
        value = float(np.mean(logsumexp(logR, axis=1) - math.log(K)))
    else:
        w = np.full_like(logR, 1.0 / K)
        value = float(logR.mean())

    g_logR = w / B
    # Decoder path.
    g_m = g_logR * resid / decoder_var
    dw2 = params[26:30]
    g_ad = (g_m[..., None] * dw2) * (hd > 0.0)
    grad = np.zeros(VAE_PARAM_COUNT)
    grad[26:30] = np.einsum("bk,bkh->h", g_m, hd)
    grad[30] = g_m.sum()
    grad[18:22] = np.einsum("bkh,bk->h", g_ad, z)
    grad[22:26] = g_ad.sum(axis=(0, 1))
    # Latent path: explicit -z^2/2 plus the decoder sensitivity.
    g_z = g_ad @ params[18:22] - g_logR * z
    g_mu = g_z.sum(axis=1)
    g_t = (g_z * eps).sum(axis=1) * sg + g_logR.sum(axis=1)
    # Encoder heads and trunk.
    wmu, wls = params[8:12], params[13:17]
    grad[8:12] = g_mu @ h
    grad[12] = g_mu.sum()
    grad[13:17] = g_t @ h
    grad[17] = g_t.sum()
    g_a = (g_mu[:, None] * wmu + g_t[:, None] * wls) * (h > 0.0)
    grad[0:4] = xs @ g_a
    grad[4:8] = g_a.sum(axis=0)
    return value, grad


def cnet_objective_and_grad(
    cparams: np.ndarray,
    xs: np.ndarray,
    r_hat: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean of C(x) - 1 + exp(-C(x)) * r_hat(x) and its CNet gradient.

    r_hat is treated as a constant (it does not depend on CNet parameters).
    """
    xs = np.asarray(xs, dtype=float)
    r_hat = np.asarray(r_hat, dtype=float)
    c, h = _cnet_forward(cparams, xs)
    log_r_hat = np.log(r_hat)
    expterm = np.exp(np.minimum(-c + log_r_hat, EXP_SATURATION))
    value = float(np.mean(c - 1.0 + expterm))
    g_c = (1.0 - expterm) / xs.size
    grad = np.zeros(CNET_PARAM_COUNT)
    grad[8:12] = g_c @ h
    grad[12] = g_c.sum()
    g_a = (g_c[:, None] * cparams[8:12]) * (h > 0.0)
    grad[0:4] = xs @ g_a
    grad[4:8] = g_a.sum(axis=0)
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

    Raises DivergenceDetected the moment the loss or a parameter goes
    non-finite.  lr = 0 leaves the parameters bit-identical.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParams("training data is empty")
    if lr < 0.0 or batch < 1 or epochs < 0:
        raise InvalidParams(f"bad training config: epochs={epochs} batch={batch} lr={lr}")
    params = model.params.copy()
    rng = generator(seed)
    history: list[float] = []
    n = data.size
    for epoch in range(epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            xs = data[perm[start:start + batch]]
            eps = rng.standard_normal((xs.size, objective.k))
            # Overflow here is the divergence signal, detected just below.
            with np.errstate(over="ignore", invalid="ignore"):
                value, grad = iw_objective_and_grad(
                    params, model.decoder_var, xs, eps, objective.kind
                )
            if not math.isfinite(value):
                raise DivergenceDetected(
                    f"non-finite loss at epoch {epoch}, batch start {start}"
                )
            if lr != 0.0:
                params = params + lr * grad
                if not np.isfinite(params).all():
                    raise DivergenceDetected(
                        f"non-finite parameters at epoch {epoch}, batch start {start}"
                    )
            epoch_loss += -value * xs.size
        history.append(epoch_loss / n)
    return TrainResult(ToyVae(params, model.decoder_var), history)


def _ratio_estimates(
    model: ToyVae,
    xs: np.ndarray,
    k: int,
    n_pairs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-datapoint MC estimate of E[mean_k R(x, z~) / mean_k R(x, z)],
    averaging n_pairs independent (z, z~) tuple ratios.

    Datapoints go through in blocks of max(1, BLOCK_RATIOS // (2 k n_pairs)),
    each block drawing its eps from rng in order.  numpy fills normals in C
    order, so the draws, and the result, do not depend on the block size.
    Memory is O(BLOCK_RATIOS) for the activations plus O(n) for the result.
    """
    block = max(1, BLOCK_RATIOS // (n_pairs * 2 * k))
    out = np.empty(xs.size)
    for start in range(0, xs.size, block):
        xb = xs[start:start + block]
        eps = rng.standard_normal((xb.size, n_pairs, 2, k))
        logR, _, _ = _log_r_reparam(model.params, model.decoder_var, xb, eps)
        lse = np.asarray(logsumexp(logR, axis=3))
        delta = lse[:, :, 1] - lse[:, :, 0]
        ratios = np.exp(np.minimum(delta, EXP_SATURATION))
        out[start:start + block] = ratios.mean(axis=1)
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
    (z, z~) ratio estimates drawn every epoch."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParams("cnet training data is empty")
    if k < 1 or n_pairs < 1 or lr < 0.0 or epochs < 0:
        raise InvalidParams(
            f"bad cnet config: k={k} n_pairs={n_pairs} epochs={epochs} lr={lr}"
        )
    cparams = cnet.params.copy()
    rng = generator(seed)
    history: list[float] = []
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            r_hat = _ratio_estimates(model, data, k, n_pairs, rng)
            value, grad = cnet_objective_and_grad(cparams, data, r_hat)
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
    saturated: bool = False


@dataclass(frozen=True)
class EvalResult:
    records: tuple[EvalRecord, ...]
    lower: float
    upper: float
    lower_stderr: float
    upper_stderr: float
    elbo: float
    saturated: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def evaluate(
    model: ToyVae,
    c_source: CNet | float,
    data: np.ndarray,
    k: int,
    seed: int,
) -> EvalResult:
    """Per datapoint draw two independent k-tuples from q(.|x) and compute
    the lower estimate s = log mean R and the upper estimate
    S = s + C - 1 + exp(-C) * (sum R~ / sum R).  A float C must be finite.

    Datapoint i uses the derived stream (seed, i), so any chunking or
    parallel split of the data reproduces identical records.  The returned
    elbo is the mean log R over the same primal draws.

    Datapoints go through in blocks of max(1, BLOCK_RATIOS // 2k).  Memory
    is O(BLOCK_RATIOS) for the activations plus the (n, 2, k) log-ratios
    kept for the elbo, so O(block k + n k) in all.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParams("evaluation data is empty")
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if not isinstance(c_source, CNet) and not math.isfinite(c_source):
        raise InvalidParams(f"C must be finite, got {c_source!r}")
    n = data.size
    block = max(1, BLOCK_RATIOS // (2 * k))
    logR = np.empty((n, 2, k))
    lse = np.empty((n, 2))
    draws = streams(seed, range(n))
    for start in range(0, n, block):
        xb = data[start:start + block]
        eps = np.empty((xb.size, 2, k))
        for row in eps:
            next(draws).standard_normal(out=row)
        block_logR, _, _ = _log_r_reparam(model.params, model.decoder_var, xb, eps)
        logR[start:start + block] = block_logR
        lse[start:start + block] = logsumexp(block_logR, axis=2)
    s_vals = lse[:, 0] - math.log(k)
    delta = lse[:, 1] - lse[:, 0]
    c_vals = c_source(data) if isinstance(c_source, CNet) else np.full(n, float(c_source))
    exponents = -c_vals + delta
    saturated_mask = exponents > EXP_SATURATION
    S_vals = s_vals + c_vals - 1.0 + np.exp(np.minimum(exponents, EXP_SATURATION))

    records = tuple(
        EvalRecord(float(data[i]), float(s_vals[i]), float(S_vals[i]),
                   float(c_vals[i]), k, bool(saturated_mask[i]))
        for i in range(n)
    )
    ddof = 1 if n > 1 else 0
    return EvalResult(
        records=records,
        lower=float(s_vals.mean()),
        upper=float(S_vals.mean()),
        lower_stderr=float(s_vals.std(ddof=ddof) / math.sqrt(n)) if n > 1 else math.inf,
        upper_stderr=float(S_vals.std(ddof=ddof) / math.sqrt(n)) if n > 1 else math.inf,
        elbo=float(logR[:, 0, :].mean()),
        saturated=int(saturated_mask.sum()),
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


def _read_checkpoint(path: str, expected_count: int, extra: int) -> np.ndarray:
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
    return np.frombuffer(blob[16:], dtype="<f8").astype(float)


def save_model(path: str, model: ToyVae) -> None:
    _write_checkpoint(
        path, np.append(model.params, model.decoder_var), VAE_PARAM_COUNT
    )


def load_model(path: str) -> ToyVae:
    payload = _read_checkpoint(path, VAE_PARAM_COUNT, extra=1)
    return ToyVae(payload[:VAE_PARAM_COUNT], float(payload[VAE_PARAM_COUNT]))


def save_cnet(path: str, cnet: CNet) -> None:
    _write_checkpoint(path, cnet.params, CNET_PARAM_COUNT)


def load_cnet(path: str) -> CNet:
    return CNet(_read_checkpoint(path, CNET_PARAM_COUNT, extra=0))
