import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_law
from scipy.stats import kstest

from gapsandwich import distributions, sweep
from gapsandwich.distributions import (
    Constant,
    Gamma,
    Laplace,
    LogNormal,
    UniformPos,
    k_averaged_law,
    laplace_loglik,
    parse_dist,
    sample,
)
from gapsandwich.errors import InvalidParams, ParseError
from gapsandwich.parallel import THREADS_ENV
from gapsandwich.rng import generator
from sweep_reference import reference_rows

N = 200_000


def gamma_density(a, theta):
    return lambda x: x ** (a - 1.0) * math.exp(-x / theta) / (
        math.gamma(a) * theta**a
    )


class TestClosedForms:
    """Accessors checked against quadrature, which never touches the sampler."""

    def test_gamma_mean_log(self):
        d = Gamma(2.0, 1.5)
        oracle, err = quad(lambda x: math.log(x) * gamma_density(2.0, 1.5)(x),
                           0.0, np.inf)
        assert err < 1e-6
        assert d.mean_log == pytest.approx(oracle, abs=1e-6)

    def test_gamma_log_ratio_mean(self):
        d = Gamma(3.0, 2.0)
        inv_mean, err = quad(lambda x: gamma_density(3.0, 2.0)(x) / x, 0.0, np.inf)
        assert err < 1e-8
        assert d.log_ratio_mean == pytest.approx(math.log(d.mean * inv_mean), abs=1e-8)

    def test_gamma_small_shape_has_no_ratio_mean(self):
        assert Gamma(0.5, 1.0).log_ratio_mean is None
        assert Gamma(1.0, 1.0).log_ratio_mean is None

    def test_lognormal_forms(self):
        d = LogNormal(0.3, 1.2)
        assert d.mean_log == pytest.approx(0.3)
        assert d.log_ratio_mean == pytest.approx(1.2**2)

    def test_uniform_mean_log(self):
        d = UniformPos(0.5, 1.5)
        oracle, err = quad(lambda x: math.log(x), 0.5, 1.5)
        assert err < 1e-10
        assert d.mean_log == pytest.approx(oracle, abs=1e-10)

    def test_constant_forms(self):
        d = Constant(3.0)
        assert d.mean == 3.0
        assert d.mean_log == pytest.approx(math.log(3.0))
        assert d.log_ratio_mean == 0.0


class TestLaplaceLoglik:
    def test_b_02(self):
        assert laplace_loglik(0.0, 0.2) == pytest.approx(-(1.0 + math.log(0.4)))
        assert laplace_loglik(0.0, 0.2) == pytest.approx(-0.08371, abs=1e-5)

    def test_b_05(self):
        assert laplace_loglik(1.0, 0.5) == pytest.approx(-1.0)

    def test_b_e_over_two(self):
        assert laplace_loglik(0.0, math.e / 2.0) == pytest.approx(-2.0)

    def test_invalid_scale(self):
        with pytest.raises(InvalidParams):
            laplace_loglik(0.0, 0.0)

    def test_matches_sampled_log_density(self):
        d = Laplace(0.0, 0.2)
        xs = sample(d, N, 31)
        vals = -np.abs(xs - d.loc) / d.b - math.log(2.0 * d.b)
        se = vals.std(ddof=1) / math.sqrt(N)
        assert abs(vals.mean() - laplace_loglik(0.0, 0.2)) <= 4.0 * se


def _laplace_reference(uniform):
    u = uniform - 0.5
    return 0.1 - 0.2 * np.sign(u) * np.log1p(-2.0 * np.abs(u))


class TestSampling:
    def test_constant(self):
        np.testing.assert_array_equal(sample(Constant(3.0), 2, 0), [3.0, 3.0])

    def test_deterministic_per_seed(self):
        for d in (Gamma(0.5, 1.0), Gamma(2.0, 1.0), LogNormal(0.0, 1.0),
                  UniformPos(0.5, 1.5), Laplace(0.0, 0.2)):
            np.testing.assert_array_equal(sample(d, 1000, 5), sample(d, 1000, 5))
            assert not np.array_equal(sample(d, 1000, 5), sample(d, 1000, 6))

    def test_lognormal_log_moments(self):
        xs = np.log(sample(LogNormal(0.0, 1.0), N, 7))
        assert abs(xs.mean()) <= 4.0 / math.sqrt(N)

    def test_gamma_moments(self):
        xs = sample(Gamma(2.0, 1.0), N, 8)
        se = xs.std(ddof=1) / math.sqrt(N)
        assert abs(xs.mean() - 2.0) <= 4.0 * se

    def test_gamma_small_shape_moments(self):
        # Shape below 1: mean a*theta, variance a*theta^2.
        a, theta = 0.5, 2.0
        xs = sample(Gamma(a, theta), N, 9)
        assert (xs > 0.0).all()
        se = xs.std(ddof=1) / math.sqrt(N)
        assert abs(xs.mean() - a * theta) <= 4.0 * se
        var_se = xs.var(ddof=1) * math.sqrt(8.0 / N)  # generous spread bound
        assert abs(xs.var(ddof=1) - a * theta**2) <= 4.0 * var_se

    def test_uniform_bounds(self):
        xs = sample(UniformPos(0.5, 1.5), 10_000, 10)
        assert xs.min() >= 0.5 and xs.max() <= 1.5

    def test_invalid_n(self):
        with pytest.raises(InvalidParams):
            sample(Constant(1.0), 0, 0)

    # The out-of-place draw formulas; fill computes the same operations in
    # place and must give the same bits.
    REFERENCE = [
        (Constant(3.0), lambda rng, n: np.full(n, 3.0)),
        (Gamma(0.5, 2.0), lambda rng, n: 2.0 * rng.standard_gamma(0.5, n)),
        (LogNormal(0.3, 1.5),
         lambda rng, n: np.exp(0.3 + 1.5 * rng.standard_normal(n))),
        (UniformPos(0.5, 1.5), lambda rng, n: 0.5 + (1.5 - 0.5) * rng.random(n)),
        (Laplace(0.1, 0.2), lambda rng, n: _laplace_reference(rng.random(n))),
    ]

    @pytest.mark.parametrize("d, reference", REFERENCE,
                             ids=[d.kind for d, _ in REFERENCE])
    def test_fill_is_the_out_of_place_formula(self, d, reference):
        expected = reference(generator(41), 1001)
        np.testing.assert_array_equal(sample(d, 1001, 41), expected)
        buf = np.full(1001, np.nan)
        assert sample(d, 1001, 41, out=buf) is buf
        np.testing.assert_array_equal(buf, expected)

    @pytest.mark.parametrize("out", [np.empty(9), np.empty(20)[::2],
                                     np.empty(10, dtype=np.float32)])
    def test_out_must_be_a_contiguous_float_vector_of_n(self, out):
        with pytest.raises(InvalidParams, match="out"):
            sample(Gamma(2.0, 1.0), 10, 0, out=out)


class StubUniforms:
    """Stands in for a Generator: random(out=...) hands out the next values
    of a fixed stream of doubles."""

    def __init__(self, stream):
        self.stream = np.asarray(stream, dtype=float)
        self.pos = 0

    def random(self, out):
        out[:] = self.stream[self.pos:self.pos + out.size]
        self.pos += out.size


class TestErlang:
    """Integer shapes up to ERLANG_MAX_SHAPE draw -theta log(U_1 ... U_a);
    every other shape draws numpy's standard_gamma."""

    SHAPES = range(1, distributions.ERLANG_MAX_SHAPE + 1)

    @pytest.mark.parametrize("a", [1.0, 2.0, 3.0, 4.0, 0.5, 2.5, 5.0])
    def test_matches_the_gamma_law(self, a):
        xs = sample(Gamma(a, 1.5), N, 31)
        assert kstest(xs, gamma_law(a, scale=1.5).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("a", SHAPES)
    def test_fill_is_the_factor_major_formula(self, a):
        u = generator(42).random((a, 1001)) + 2.0**-55
        expected = -1.5 * np.log(np.multiply.reduce(u, axis=0))
        np.testing.assert_array_equal(sample(Gamma(float(a), 1.5), 1001, 42),
                                      expected)

    def test_shapes_past_the_crossover_draw_standard_gamma(self):
        a = distributions.ERLANG_MAX_SHAPE + 1.0
        np.testing.assert_array_equal(sample(Gamma(a, 1.5), 1001, 43),
                                      1.5 * generator(43).standard_gamma(a, 1001))

    @pytest.mark.parametrize("a", SHAPES)
    def test_extreme_uniforms_give_positive_finite_draws(self, a, monkeypatch):
        # Element i takes rng.random()'s largest double, 1 - 2^-53, in factor
        # f when bit f of i is set and its smallest, 0, otherwise, so the
        # 2^a elements cover every mix; 3-draw sub-blocks cross elements.
        monkeypatch.setattr(distributions, "_ERLANG_BLOCK", 3)
        i = np.arange(2**a)
        stream = np.concatenate([np.where((i >> f) & 1, 1.0 - 2.0**-53, 0.0)
                                 for f in range(a)])
        out = np.empty(i.size)
        Gamma(float(a), 1.0).fill(StubUniforms(stream), out)
        assert np.isfinite(out).all() and (out > 0.0).all()
        assert out.max() == pytest.approx(55 * a * math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("a", SHAPES)
    def test_bits_do_not_depend_on_the_sub_block_size(self, a, monkeypatch):
        n = 2 * distributions._ERLANG_BLOCK + 3
        expected = sample(Gamma(float(a), 1.5), n, 44)
        for block in (1000, 4096, 1 << 20):
            monkeypatch.setattr(distributions, "_ERLANG_BLOCK", block)
            assert sample(Gamma(float(a), 1.5), n, 44).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("a", SHAPES)
    def test_cell_bits_do_not_depend_on_the_thread_count(self, a, monkeypatch):
        monkeypatch.setattr(sweep, "CHUNK_FLOATS", 4096)
        cfg = sweep.SweepConfig(k_values=(4,), n_pairs=3000, replications=1,
                                base_seed=45, c_policy=sweep.CPolicy("zero"))
        ref = reference_rows(Gamma(float(a), 1.0), cfg)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv(THREADS_ENV, threads)
            assert sweep.run_sweep(Gamma(float(a), 1.0), cfg).rows == ref, threads


class TestKAveragedLaw:
    def test_gamma_closes_under_averaging(self):
        law = k_averaged_law(Gamma(2.0, 1.0), 4)
        assert isinstance(law, Gamma)
        assert law.a == 8.0 and law.theta == 0.25

    def test_constant_is_fixed_point(self):
        d = Constant(2.0)
        assert k_averaged_law(d, 5) is d

    def test_lognormal_has_no_closed_form(self):
        assert k_averaged_law(LogNormal(0.0, 1.0), 2) is None

    def test_block_means_match_direct_law(self):
        k, n = 4, 50_000
        raw = sample(Gamma(2.0, 1.0), n * k, 11)
        averaged = raw.reshape(-1, k).mean(axis=1)
        direct = sample(k_averaged_law(Gamma(2.0, 1.0), k), n, 12)
        for f in (lambda v: v, lambda v: v * v):
            x, y = f(averaged), f(direct)
            se = math.sqrt(x.var(ddof=1) / n + y.var(ddof=1) / n)
            assert abs(x.mean() - y.mean()) <= 4.0 * se


class TestParseGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("constant:c=3", Constant(3.0)),
        ("gamma:a=2,theta=1", Gamma(2.0, 1.0)),
        ("lognormal:m=0,sigma=1", LogNormal(0.0, 1.0)),
        ("uniform:lo=0.5,hi=1.5", UniformPos(0.5, 1.5)),
        ("laplace:loc=0,b=0.2", Laplace(0.0, 0.2)),
    ])
    def test_grammar_examples(self, text, expected):
        assert parse_dist(text) == expected

    def test_round_trip(self):
        for text in ("gamma:a=2,theta=1", "lognormal:m=-1,sigma=0.5"):
            assert parse_dist(parse_dist(text).spec_string()) == parse_dist(text)

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="weibull"):
            parse_dist("weibull:k=1")

    def test_unknown_key_named_in_message(self):
        with pytest.raises(ParseError, match="'thata'"):
            parse_dist("gamma:a=2,thata=1")

    def test_missing_key_named_in_message(self):
        with pytest.raises(ParseError, match="'theta'"):
            parse_dist("gamma:a=2")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dist("gamma:a=2,a=3")

    def test_bad_decimal(self):
        with pytest.raises(ParseError, match="'sigma'"):
            parse_dist("lognormal:m=0,sigma=abc")

    def test_domain_validation(self):
        with pytest.raises(InvalidParams):
            parse_dist("gamma:a=-2,theta=1")
        with pytest.raises(InvalidParams):
            parse_dist("uniform:lo=2,hi=1")

    @pytest.mark.parametrize("text,field", [
        ("gamma:a=nan,theta=1", "a"),
        ("gamma:a=2,theta=inf", "theta"),
        ("lognormal:m=0,sigma=nan", "sigma"),
        ("lognormal:m=inf,sigma=1", "m"),
        ("uniform:lo=nan,hi=2", "lo"),
        ("uniform:lo=1,hi=inf", "hi"),
        ("laplace:loc=-inf,b=1", "loc"),
        ("laplace:loc=0,b=nan", "b"),
    ])
    def test_non_finite_parameter_is_named(self, text, field):
        with pytest.raises(InvalidParams, match=f"parameter {field} must be finite"):
            parse_dist(text)

    def test_non_finite_parameter_rejected_by_the_constructor(self):
        with pytest.raises(InvalidParams, match="parameter a must be finite"):
            Gamma(math.nan, 1.0)
