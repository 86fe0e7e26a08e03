import random
from fractions import Fraction as F
from math import factorial

import mpmath
import pytest

from posroot.scalars import BigFloat, DomainMismatch, RationalFunction
from posroot.series import (
    NotEven,
    NotNormalized,
    TruncatedSeries,
    elementary_from_series,
    even_sqrt_reduce,
    log_derivative_series,
    power_sums_from_log_derivative,
    series_from_elementary,
    taylor_shift,
)
from posroot.symfun import power_sums_from_elementary

from test_symfun import direct_power_sums, elementary_of


def poly_series(roots, order):
    """prod (1 - l z) expanded to `order` (exact)."""
    return series_from_elementary(elementary_of(roots, order))


@pytest.mark.parametrize("coefficients, type_name", [
    ([1.5, 2], "float"),
    ([mpmath.mpf(1), mpmath.mpf(2)], "mpf"),
    ([F(1), mpmath.mpc(1, 1)], "mpc"),
])
def test_foreign_coefficient_type_is_rejected(coefficients, type_name):
    # only int, Fraction, RationalFunction and BigFloat are coefficient domains
    with pytest.raises(DomainMismatch, match=f"unsupported coefficient type {type_name}$"):
        TruncatedSeries(coefficients)


class TestElementaryFromSeries:
    def test_sinc_sign_flip(self):
        t = RationalFunction.variable(("t",), "t")
        one = RationalFunction.constant(("t",), 1)
        coeffs = [one]
        for k in range(1, 5):
            c = t ** k * F(1, factorial(2 * k + 1))
            coeffs.append(c if k % 2 == 0 else -c)
        e = elementary_from_series(TruncatedSeries(coeffs))
        for k in range(1, 5):
            assert e[k] == t ** k * F(1, factorial(2 * k + 1))

    def test_constant_series(self):
        e = elementary_from_series(TruncatedSeries([F(1), F(0), F(0)]))
        assert list(e.values) == [F(1), F(0), F(0)]

    def test_bessel_reduction_symbolic(self):
        nu = RationalFunction.variable(("nu",), "nu")
        one = RationalFunction.constant(("nu",), 1)
        poch = one
        coeffs = [one]
        for k in range(1, 4):
            poch = poch * (nu + k)
            c = 1 / (poch * F(factorial(k) * 4 ** k))
            coeffs.append(c if k % 2 == 0 else -c)
        e = elementary_from_series(TruncatedSeries(coeffs))
        assert e[1] == 1 / (4 * (nu + 1))
        assert e[2] == 1 / (32 * (nu + 1) * (nu + 2))

    def test_requires_normalization(self):
        with pytest.raises(NotNormalized):
            elementary_from_series(TruncatedSeries([F(2), F(1)]))


class TestLogDerivative:
    def test_single_root_geometric(self):
        f = TruncatedSeries([F(1), F(-1)] + [F(0)] * 6)
        g = log_derivative_series(f)
        # f'/f = -1/(1-z) = -(1 + z + z^2 + ...)
        assert all(c == -1 for c in g.coefficients)
        p = power_sums_from_log_derivative(f, 7)
        assert all(p[k] == 1 for k in range(1, 8))

    def test_two_roots_p2(self):
        f = poly_series([F(1, 2), F(1, 3)], 6)
        p = power_sums_from_log_derivative(f, 6)
        assert p[2] == F(13, 36)
        assert [p[k] for k in range(1, 7)] == direct_power_sums([F(1, 2), F(1, 3)], 6)

    def test_sinc_leading_term_is_zeta2(self):
        # -g_0 = p_1 = t/6; numeric oracle: direct summation of 1/n^2
        t = RationalFunction.variable(("t",), "t")
        one = RationalFunction.constant(("t",), 1)
        coeffs = [one]
        for k in range(1, 5):
            c = t ** k * F(1, factorial(2 * k + 1))
            coeffs.append(c if k % 2 == 0 else -c)
        g = log_derivative_series(TruncatedSeries(coeffs))
        assert -g[0] == t / 6
        with mpmath.workprec(100):
            pi2 = mpmath.pi ** 2
            direct = sum(mpmath.mpf(1) / (n * n) for n in range(1, 200001))
            tail = mpmath.mpf(1) / 200000  # integral tail of 1/n^2
            got = (-g[0]).evaluate({"t": BigFloat(pi2, 96)})
            assert abs(float(got) - float(direct + tail)) < 1e-9

    def test_derivative_consistency(self):
        # coefficientwise: f' = f * (f'/f) to truncation order
        rng = random.Random(31415)
        for _ in range(20):
            roots = [F(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(4)]
            f = poly_series(roots, 9)
            g = log_derivative_series(f)
            lhs = f.derivative()
            rhs = f * g
            for i in range(min(lhs.order, rhs.order) + 1):
                assert lhs[i] == rhs[i]

    def test_agrees_with_newton_route(self):
        rng = random.Random(2718)
        for _ in range(20):
            roots = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(5)]
            f = poly_series(roots, 12)
            p_series = power_sums_from_log_derivative(f, 12)
            p_newton = power_sums_from_elementary(elementary_from_series(f), 12)
            assert all(p_series[k] == p_newton[k] for k in range(1, 13))

    def test_two_routes_agree_across_catalog(self):
        # exact where the domain allows, within 2^(-prec/2) in float mode
        from posroot.catalog import FunctionKind, FunctionSpec
        exact = [
            FunctionSpec(FunctionKind.SINC, mode="ratfunc"),
            FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact"),
            FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": F(1, 3)}, mode="exact"),
            FunctionSpec(FunctionKind.QBESSEL, params={"q": F(1, 2), "nu": F(0)},
                         mode="exact"),
        ]
        for spec in exact:
            f = spec.series(12)
            p_series = power_sums_from_log_derivative(f, 12)
            p_newton = power_sums_from_elementary(spec.elementary(12), 12)
            assert all(p_series[k] == p_newton[k] for k in range(1, 13))
        floats = [
            FunctionSpec(FunctionKind.AIRY_PRODUCT, mode="float", precision=192),
            FunctionSpec(FunctionKind.RIEMANN_XI, mode="float", precision=192),
        ]
        for spec in floats:
            f = spec.series(12)
            p_series = power_sums_from_log_derivative(f, 12)
            p_newton = power_sums_from_elementary(spec.elementary(12), 12)
            for k in range(1, 13):
                d = abs(float((p_series[k] - p_newton[k])))
                assert d <= 2.0 ** (-spec.precision // 2)


class TestTaylorShift:
    def test_linear(self):
        g = taylor_shift(TruncatedSeries([F(1), F(1)]), F(1))
        assert list(g.coefficients) == [F(2), F(1)]

    def test_float_shift_matches_exact_shift(self):
        # positive coefficients and shift: no cancellation, so every
        # coefficient carries the working precision
        rng = random.Random(2718)
        f = TruncatedSeries([F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(11)])
        c = F(7, 3)
        exact = taylor_shift(f, c)
        g = taylor_shift(f, BigFloat(c, 128))
        with mpmath.workprec(160):
            for x, want in zip(g.coefficients, exact.coefficients):
                assert isinstance(x, BigFloat) and x.prec == 128
                want = mpmath.mpf(want.numerator) / want.denominator
                assert abs(x.value - want) <= want * mpmath.mpf(2) ** -120

    def test_degree10_random_poly_pointwise_oracle(self):
        rng = random.Random(161803)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(11)]
        coeffs[0] += 1
        f = TruncatedSeries(coeffs)
        c = F(1, 3)
        g = taylor_shift(f, c)
        for _ in range(5):
            w = F(rng.randint(-20, 20), rng.randint(1, 11))
            assert g.evaluate(w) == f.evaluate(w + c)

    def test_shift_inverse(self):
        rng = random.Random(55)
        for _ in range(15):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)]
            f = TruncatedSeries(coeffs)
            c = F(rng.randint(-5, 5), rng.randint(1, 4))
            back = taylor_shift(taylor_shift(f, c), -c)
            assert list(back.coefficients) == list(f.coefficients)


class TestEvenSqrtReduce:
    def test_cos_type(self):
        g = even_sqrt_reduce(TruncatedSeries([F(1), F(0), F(-1, 2), F(0), F(1, 24)]))
        assert list(g.coefficients) == [F(1), F(-1, 2), F(1, 24)]

    def test_odd_perturbation_rejected(self):
        with pytest.raises(NotEven):
            even_sqrt_reduce(TruncatedSeries([F(1), F(0), F(-1, 2), F(1), F(1, 24)]))

    def test_float_tolerance(self):
        tiny = BigFloat("1e-60", 128)
        s = TruncatedSeries([BigFloat(1, 128), tiny, BigFloat(-0.5, 128)])
        g = even_sqrt_reduce(s)
        assert len(g) == 2

    def test_even_series_roundtrip_semantics(self):
        # reducing sum c_{2n} z^{2n} then evaluating at w^2 equals the original
        rng = random.Random(8)
        even_coeffs = []
        for i in range(9):
            even_coeffs.append(F(rng.randint(-5, 5), rng.randint(1, 5)) if i % 2 == 0 else F(0))
        even_coeffs[0] = F(1)
        G = TruncatedSeries(even_coeffs)
        R = even_sqrt_reduce(G)
        w = F(2, 3)
        assert R.evaluate(w * w) == G.evaluate(w)
