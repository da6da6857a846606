"""Samplers plus closed-form quantities used to validate the bound estimators.

Each distribution carries its exact mean, mean-log and (where a closed
form exists) log E[Y/X], so Monte Carlo estimates can be checked
against ground truth.  Sampling is deterministic in (dist, n, seed) and uses
the package's keyed streams.

Gamma draws integer shapes 1 <= a <= ERLANG_MAX_SHAPE as Erlang variates,
-theta log(U_1 ... U_a) (Devroye, Non-Uniform Random Variate Generation,
1986, IX.3), and every other shape with numpy's Marsaglia-Tsang
standard_gamma.  Each U_i is rng.random() + 2^-55, which lies in
[2^-55, 1 - 2^-53]: the shift lifts 0 and is under half an ulp at the top,
so no U_i rounds to 1.  A product of a <= 4 of them therefore lies in
[2^-220, 1 - 2^-53], and every draw is positive and finite.  The uniforms
are drawn factor by factor, all of U_1 into out and then each later factor
over the whole vector in sub-blocks of a small scratch, so the bits do not
depend on the sub-block size.  Per draw, the Erlang path's time over
standard_gamma's on one 2^20-draw SFC64 fill (medians of 11 fills, two
runs, on a 2-CPU AVX-512 x86-64 machine):

    a      1          2          3     4     5          6          8
    ratio  0.66-0.75  0.38-0.40  0.56  0.76  0.91-0.96  0.94-1.06  1.39-1.58

so ERLANG_MAX_SHAPE = 4 leaves a margin below the crossover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from .errors import InvalidParams, ParseError
from .rng import generator, philox


@dataclass(frozen=True)
class AnalyticDist:
    """Base descriptor: a sampler plus closed-form accessors.

    Accessors return None when no closed form exists for that kind.  kind
    and the dataclass fields are the spec grammar, `kind:field=val,...`.
    Every field must be finite; each kind checks its own domain after that,
    in check_domain.
    """

    kind: ClassVar[str]

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise InvalidParams(
                    f"{self.kind} parameter {f.name} must be finite, "
                    f"got {getattr(self, f.name)}"
                )
        self.check_domain()

    def check_domain(self) -> None:
        """Raise InvalidParams if the finite fields are outside the kind's
        domain."""

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Overwrite the float64 vector out with out.size i.i.d. draws."""
        raise NotImplementedError

    @property
    def mean(self) -> float | None:
        return None

    @property
    def mean_log(self) -> float | None:
        """E log X."""
        return None

    @property
    def log_ratio_mean(self) -> float | None:
        """log E[Y/X] for an independent copy Y."""
        return None

    def spec_string(self) -> str:
        values = ",".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{self.kind}:{values}"


@dataclass(frozen=True)
class Constant(AnalyticDist):
    kind = "constant"
    c: float

    def check_domain(self) -> None:
        if self.c <= 0.0:
            raise InvalidParams(f"constant c must be positive, got {self.c}")

    def fill(self, rng, out):
        out.fill(self.c)

    @property
    def mean(self):
        return self.c

    @property
    def mean_log(self):
        return math.log(self.c)

    @property
    def log_ratio_mean(self):
        return 0.0


# Largest integer shape drawn as an Erlang variate; see the module docstring
# for the measured crossover.
ERLANG_MAX_SHAPE = 4
# Lifts rng.random()'s 0 off zero and leaves 1 - 2^-53 below 1.
_OPEN_SHIFT = 2.0**-55
# Draws per sub-block of an Erlang fill's scratch: 128 KB.
_ERLANG_BLOCK = 1 << 14


def _fill_erlang(rng: np.random.Generator, shape: int, theta: float,
                 out: np.ndarray) -> None:
    """out <- -theta log(U_1 ... U_shape), factor-major.

    U_1 fills out; each later factor is drawn over the whole vector, one
    sub-block at a time, and multiplied in.  The first pass over the blocks
    also shifts U_1 into the open interval, and the last takes the log, so
    every block is finished while it is in cache.
    """
    rng.random(out=out)
    scratch = np.empty(min(_ERLANG_BLOCK, out.size)) if shape > 1 else None
    passes = max(shape - 1, 1)
    for p in range(passes):
        for start in range(0, out.size, _ERLANG_BLOCK):
            part = out[start:start + _ERLANG_BLOCK]
            if p == 0:
                part += _OPEN_SHIFT
            if scratch is not None:
                u = scratch[:part.size]
                rng.random(out=u)
                u += _OPEN_SHIFT
                part *= u
            if p == passes - 1:
                np.log(part, out=part)
                part *= -theta


@dataclass(frozen=True)
class Gamma(AnalyticDist):
    kind = "gamma"
    a: float
    theta: float

    def check_domain(self) -> None:
        if self.a <= 0.0 or self.theta <= 0.0:
            raise InvalidParams(
                f"gamma needs a>0 and theta>0, got a={self.a}, theta={self.theta}"
            )

    def fill(self, rng, out):
        # A theta near the float limit overflows the draws to inf, which
        # PairedSamples rejects.
        with np.errstate(over="ignore"):
            if float(self.a).is_integer() and 1 <= self.a <= ERLANG_MAX_SHAPE:
                _fill_erlang(rng, int(self.a), self.theta, out)
            else:
                rng.standard_gamma(self.a, out=out)
                out *= self.theta

    @property
    def mean(self):
        return self.a * self.theta

    @property
    def mean_log(self):
        # Imported here: scipy.special adds ~0.3 s and ~20 MB to every import.
        from scipy.special import digamma

        return float(digamma(self.a)) + math.log(self.theta)

    @property
    def log_ratio_mean(self):
        # E[1/X] = 1/(theta*(a-1)) exists only for a > 1.
        if self.a <= 1.0:
            return None
        return math.log(self.a / (self.a - 1.0))


@dataclass(frozen=True)
class LogNormal(AnalyticDist):
    kind = "lognormal"
    m: float
    sigma: float

    def check_domain(self) -> None:
        if self.sigma <= 0.0:
            raise InvalidParams(
                f"lognormal needs sigma>0, got m={self.m}, sigma={self.sigma}"
            )

    def fill(self, rng, out):
        rng.standard_normal(out=out)
        # Finite m and sigma can still overflow the draws to inf, which
        # PairedSamples rejects.
        with np.errstate(over="ignore"):
            out *= self.sigma
            out += self.m
            np.exp(out, out=out)

    @property
    def mean(self):
        return math.exp(self.m + 0.5 * self.sigma**2)

    @property
    def mean_log(self):
        return self.m

    @property
    def log_ratio_mean(self):
        return self.sigma**2


@dataclass(frozen=True)
class UniformPos(AnalyticDist):
    kind = "uniform"
    lo: float
    hi: float

    def check_domain(self) -> None:
        if self.lo <= 0.0 or self.hi <= self.lo:
            raise InvalidParams(
                f"uniform needs 0 < lo < hi, got lo={self.lo}, hi={self.hi}"
            )

    def fill(self, rng, out):
        rng.random(out=out)
        out *= self.hi - self.lo
        out += self.lo

    @property
    def mean(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def mean_log(self):
        lo, hi = self.lo, self.hi
        return (hi * (math.log(hi) - 1.0) - lo * (math.log(lo) - 1.0)) / (hi - lo)

    @property
    def log_ratio_mean(self):
        # E[1/X] = (log hi - log lo)/(hi - lo).
        inv_mean = (math.log(self.hi) - math.log(self.lo)) / (self.hi - self.lo)
        return math.log(self.mean * inv_mean)


@dataclass(frozen=True)
class Laplace(AnalyticDist):
    """Double-exponential data law; used as a data distribution for the toy
    VAE experiment, not as a positivity-constrained X."""

    kind = "laplace"
    loc: float
    b: float

    def check_domain(self) -> None:
        if self.b <= 0.0:
            raise InvalidParams(
                f"laplace needs b>0, got loc={self.loc}, b={self.b}"
            )

    def fill(self, rng, out):
        # loc - (b sign(u)) log1p(-2 |u|), with u = U(0, 1) - 0.5.
        rng.random(out=out)
        out -= 0.5
        scale = np.sign(out)
        scale *= self.b
        np.abs(out, out=out)
        out *= -2.0
        np.log1p(out, out=out)
        # A b near the float limit overflows to inf, which PairedSamples
        # rejects.
        with np.errstate(over="ignore"):
            out *= scale
            np.subtract(self.loc, out, out=out)

    @property
    def mean(self):
        return self.loc


def sample(d: AnalyticDist, n: int, seed: int,
           out: np.ndarray | None = None, *,
           bit_generator: Callable[[int], np.random.BitGenerator] = philox
           ) -> np.ndarray:
    """n i.i.d. draws from generator(seed, bit_generator=bit_generator),
    bit-identical for fixed (d, n, seed, bit_generator).

    With out, a C-contiguous float64 vector of n elements, the draws are
    written there and out is returned; otherwise a new array is.
    """
    if n < 1:
        raise InvalidParams(f"n must be >= 1, got {n}")
    if out is None:
        out = np.empty(n)
    elif out.shape != (n,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise InvalidParams(f"out must be a contiguous float64 vector of {n}")
    d.fill(generator(seed, bit_generator=bit_generator), out)
    return out


def k_averaged_law(d: AnalyticDist, k: int) -> AnalyticDist | None:
    """Closed-form law of the k-sample mean, when one exists.

    Gamma(a, theta) averages to Gamma(k*a, theta/k); constants are fixed
    points; other kinds (log-normal sums in particular) have none.
    """
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if isinstance(d, Gamma):
        return Gamma(k * d.a, d.theta / k)
    if isinstance(d, Constant):
        return d
    return None


def laplace_loglik(loc: float, b: float) -> float:
    """Exact expected log-density of Laplace(loc, b) under itself:
    the negative differential entropy -(1 + ln(2b))."""
    if b <= 0.0:
        raise InvalidParams(f"laplace scale b must be positive, got {b}")
    return -(1.0 + math.log(2.0 * b))


_KINDS = {cls.kind: cls for cls in (Constant, Gamma, LogNormal, UniformPos, Laplace)}


def parse_dist(text: str) -> AnalyticDist:
    """Parse `kind:key=val{,key=val}`, e.g. `gamma:a=2,theta=1`.

    Keys are lowercase and kind-specific; values are decimal literals.
    Raises ParseError with a message naming the offending key.
    """
    head, sep, tail = text.strip().partition(":")
    kind = head.strip().lower()
    if kind not in _KINDS:
        raise ParseError(
            f"unknown distribution kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    cls = _KINDS[kind]
    keys = [f.name for f in fields(cls)]
    if not sep:
        raise ParseError(f"missing parameters for {kind!r}; expected key=val list")
    params: dict[str, float] = {}
    for item in tail.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ParseError(f"malformed parameter {item!r}; expected key=val")
        if key not in keys:
            raise ParseError(f"unknown key {key!r} for {kind!r}")
        if key in params:
            raise ParseError(f"duplicate key {key!r}")
        try:
            params[key] = float(val.strip())
        except ValueError:
            raise ParseError(f"value for key {key!r} is not a decimal: {val!r}")
    missing = [k for k in keys if k not in params]
    if missing:
        raise ParseError(f"missing key {missing[0]!r} for {kind!r}")
    return cls(**params)
