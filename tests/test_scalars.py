import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from posroot.scalars import (
    BigFloat,
    DenominatorVanishes,
    DomainMismatch,
    NonFinite,
    Polynomial,
    RationalFunction,
    SignPolicy,
    UnboundSymbol,
    Verdict,
    bigfloat_str,
    eval_rational_function,
    parse_bigfloat,
    parse_rational,
    rational_str,
    sign_decide,
)


def rf_var(*symbols):
    return {s: RationalFunction.variable(symbols, s) for s in symbols}


class TestEvalRationalFunction:
    def test_bessel_first_sum_at_zero(self):
        nu = rf_var("nu")["nu"]
        f = 1 / (4 * (nu + 1))
        assert eval_rational_function(f, {"nu": F(0)}) == F(1, 4)

    def test_geometric_first_sum_at_half(self):
        q = rf_var("q")["q"]
        f = q / (1 - q)
        assert eval_rational_function(f, {"q": F(1, 2)}) == 1

    def test_bessel_second_sum_at_one(self):
        # 16 * (1+1)^2 * (1+2) = 16 * 4 * 3 = 192
        nu = rf_var("nu")["nu"]
        f = 1 / (16 * (nu + 1) ** 2 * (nu + 2))
        assert eval_rational_function(f, {"nu": F(1)}) == F(1, 192)

    def test_denominator_vanishes(self):
        nu = rf_var("nu")["nu"]
        f = 1 / (nu + 1)
        with pytest.raises(DenominatorVanishes):
            f.evaluate({"nu": F(-1)})

    def test_unbound_symbol(self):
        nu = rf_var("nu")["nu"]
        with pytest.raises(UnboundSymbol):
            (nu + 1).evaluate({})

    def test_float_binding_gives_bigfloat(self):
        nu = rf_var("nu")["nu"]
        f = 1 / (4 * (nu + 1))
        v = f.evaluate({"nu": BigFloat(1, 128)})
        assert isinstance(v, BigFloat)
        assert abs(float(v) - 1 / 8) < 1e-30


class TestRationalFunctionAlgebra:
    def test_arithmetic_field_axioms_random_triples(self):
        rng = random.Random(20240901)
        nu = rf_var("nu")["nu"]

        def rand_rf():
            num = sum((F(rng.randint(-9, 9)) * nu ** i for i in range(3)),
                      RationalFunction.constant(("nu",), 0))
            den = nu ** 2 + F(rng.randint(1, 9))
            return num / den + F(rng.randint(-3, 3))

        for _ in range(40):
            a, b, c = rand_rf(), rand_rf(), rand_rf()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_eval_is_multiplicative(self):
        rng = random.Random(7)
        nu = rf_var("nu")["nu"]
        for _ in range(25):
            f = (nu + F(rng.randint(1, 5))) / (nu ** 2 + F(rng.randint(1, 7)))
            g = (nu ** 2 - F(rng.randint(1, 5))) / (nu + F(rng.randint(1, 9)))
            x = F(rng.randint(0, 30), rng.randint(1, 7))
            assert (f * g).evaluate({"nu": x}) == f.evaluate({"nu": x}) * g.evaluate({"nu": x})

    def test_univariate_reduction_cancels(self):
        nu = rf_var("nu")["nu"]
        f = ((nu + 1) * (nu + 2)) / ((nu + 1) * (nu + 3))
        assert f == (nu + 2) / (nu + 3)
        assert f.num.total_degree() == 1

    def test_cross_multiplication_equality(self):
        q = rf_var("q")["q"]
        assert q / (1 - q) == (q * q + q) / ((1 - q) * (1 + q))

    def test_zero_denominator_rejected(self):
        nu = rf_var("nu")["nu"]
        with pytest.raises(DenominatorVanishes):
            nu / (nu - nu)

    def test_symbol_mismatch(self):
        nu = rf_var("nu")["nu"]
        q = rf_var("q")["q"]
        with pytest.raises(DomainMismatch):
            nu + q

    def test_hash_agrees_with_unreduced_equality(self):
        g = rf_var("x", "y")
        x, y = g["x"], g["y"]
        a = (x * x - y * y) / (x - y)
        assert a == x + y
        assert hash(a) == hash(x + y)
        assert len({a, x + y}) == 1
        half = (x + y) / (2 * x + 2 * y)
        assert half == F(1, 2) and hash(half) == hash(F(1, 2))
        three = RationalFunction.constant(("x", "y"), 3)
        assert three == 3 and hash(three) == hash(3)


XY = ("x", "y")
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3), max_size=3,
).map(lambda terms: Polynomial(XY, terms))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=150, deadline=None)
@given(small_polys, nonzero_polys, nonzero_polys, st.integers(-3, 3))
def test_hash_consistent_with_eq(num, den, common, k):
    """a == b implies hash(a) == hash(b), also against int and Fraction constants."""
    a = RationalFunction(num, den)
    b = RationalFunction(num * common, den * common)
    assert a == b
    assert hash(a) == hash(b)
    c = RationalFunction(common * k, common)
    assert c == k and c == F(k)
    assert hash(c) == hash(k) == hash(F(k))
    if a == c:
        assert hash(a) == hash(c)


class TestSignDecide:
    def test_rational_zero_boundary(self):
        sv = sign_decide(F(0))
        assert sv.verdict is Verdict.NONNEGATIVE
        assert sv.margin == 0

    def test_rational_negative(self):
        assert sign_decide(F(-13, 36)).verdict is Verdict.NEGATIVE

    def test_tiny_negative_float_is_indeterminate(self):
        # eps = 2^-128 ~ 2.9e-39 dwarfs 1e-200, so the sign cannot be called
        x = BigFloat("-1e-200", 256)
        sv = sign_decide(x, SignPolicy(scale=1.0, kappa=1.0))
        assert sv.verdict is Verdict.INDETERMINATE

    def test_clearly_signed_floats(self):
        assert sign_decide(BigFloat(3, 128)).verdict is Verdict.NONNEGATIVE
        assert sign_decide(BigFloat(-3, 128)).verdict is Verdict.NEGATIVE

    def test_monotone(self):
        rng = random.Random(99)
        policy = SignPolicy(scale=1.0, kappa=2.0)
        pts = [BigFloat(F(rng.randint(-1000, 1000), 997), 128) for _ in range(60)]
        for x in pts:
            for y in pts:
                if x <= y and sign_decide(x, policy).verdict is Verdict.NONNEGATIVE:
                    assert sign_decide(y, policy).verdict is Verdict.NONNEGATIVE

    def test_nonfinite_rejected(self):
        bad = BigFloat(1, 128)
        bad.value = bad.value * float("inf")
        with pytest.raises(NonFinite):
            sign_decide(bad)

    def test_exact_domains_never_indeterminate(self):
        rng = random.Random(5)
        for _ in range(200):
            x = F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
            assert sign_decide(x).verdict in (Verdict.NONNEGATIVE, Verdict.NEGATIVE)


class TestSerialization:
    def test_rational_roundtrip(self):
        assert rational_str(F(-13, 36)) == "-13/36"
        assert parse_rational("-13/36") == F(-13, 36)
        assert rational_str(F(7)) == "7"

    def test_bigfloat_roundtrip(self):
        for text in ("3.14159", "-1e-40", "0", "12345678901234567890.5"):
            x = BigFloat(text, 192)
            s = bigfloat_str(x)
            y = parse_bigfloat(s)
            assert y.value == x.value
            assert y.prec == 192

    def test_ratfunc_text_is_canonical(self):
        nu = rf_var("nu")["nu"]
        f = 1 / (16 * (nu + 1) ** 2 * (nu + 2))
        g = 1 / (16 * (nu + 2) * (nu + 1) ** 2)
        assert str(f) == str(g)


class TestBigFloatPrecision:
    def test_results_carry_max_precision(self):
        a = BigFloat(1, 128)
        b = BigFloat(3, 320)
        assert (a / b).prec == 320
        assert (b * a).prec == 320

    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            BigFloat(1, 32)

    def test_fraction_mixing(self):
        a = BigFloat(1, 128) + F(1, 3)
        assert abs(float(a) - 4 / 3) < 1e-30
