import math
import random
from fractions import Fraction as F
from math import comb
from operator import add

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mpmath.libmp import from_rational, round_nearest

from posroot import scalars
from posroot.scalars import (
    BigFloat,
    DenominatorVanishes,
    DomainMismatch,
    NonFinite,
    Polynomial,
    RationalFunction,
    UnboundSymbol,
    Verdict,
    _common_denominator,
    _dense,
    _euclid_gcd,
    _to_mp,
    bigfloat_str,
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
        assert f.evaluate({"nu": F(0)}) == F(1, 4)

    def test_geometric_first_sum_at_half(self):
        q = rf_var("q")["q"]
        f = q / (1 - q)
        assert f.evaluate({"q": F(1, 2)}) == 1

    def test_bessel_second_sum_at_one(self):
        # 16 * (1+1)^2 * (1+2) = 16 * 4 * 3 = 192
        nu = rf_var("nu")["nu"]
        f = 1 / (16 * (nu + 1) ** 2 * (nu + 2))
        assert f.evaluate({"nu": F(1)}) == F(1, 192)

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


def nfold_product(x, n):
    out = RationalFunction.constant(x.symbols, 1)
    for _ in range(n):
        out = out * x
    return out


class TestRationalFunctionPower:
    """``x ** n`` squares its numerator and denominator instead of multiplying n times."""

    def test_monomial_powers_match_nfold_product_term_for_term(self):
        q = rf_var("q")["q"]
        g = rf_var("q", "t_nu")
        qq, tt = g["q"], g["t_nu"]
        for x in (q, F(3, 5) * q, 1 / q, qq, tt, qq * tt / 7, tt / qq):
            for n in (0, 1, 2, 5, 9, 16):
                got, want = x ** n, nfold_product(x, n)
                # the same terms in the same order, so float evaluation rounds alike
                assert list(got.num.terms.items()) == list(want.num.terms.items())
                assert list(got.den.terms.items()) == list(want.den.terms.items())

    def test_fraction_powers_equal_nfold_product(self):
        q = rf_var("q")["q"]
        g = rf_var("q", "t_nu")
        qq, tt = g["q"], g["t_nu"]
        for x in ((1 - q) / (2 + q * q), (1 - qq * tt) / (qq + 3 * tt)):
            for n in (0, 1, 3, 6):
                assert x ** n == nfold_product(x, n)
            assert x ** -3 == 1 / nfold_product(x, 3)


XY = ("x", "y")
small_coeffs = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    small_coeffs, max_size=3,
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


def test_constant_polynomial_hashes_as_its_value():
    for symbols in (("q",), XY, ()):
        for v in (0, 3, F(-2, 7)):
            p = Polynomial.constant(symbols, v)
            assert p == v and hash(p) == hash(v)
            assert len({p, v}) == 1


@settings(max_examples=200, deadline=None)
@given(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6), st.sampled_from([64, 128, 256]),
       st.integers(-1, 1), st.integers(0, 400))
@example(F(1, 3), 64, 1, 200)
@example(F(1, 3), 64, 0, 0)
def test_bigfloat_hash_consistent_with_fraction_eq(x, prec, sign, bits):
    """a == b implies hash(a) == hash(b) for Fractions b within 2^-bits of a's value,
    and the order agrees with the exact values."""
    a = BigFloat(x, prec)
    exact = scalars._mpf_to_fraction(a.value)
    b = exact + sign * F(1, 2 ** bits)
    assert (a == b) == (sign == 0)
    if a == b:
        assert hash(a) == hash(b)
    assert (a < b, a <= b, a > b, a >= b) == (exact < b, exact <= b, exact > b, exact >= b)


def test_bigfloat_nonfinite_compares_with_fraction():
    inf, nan = BigFloat(mpmath.inf, 64), BigFloat(mpmath.nan, 64)
    assert inf > F(10 ** 100) and -inf < F(-10 ** 100) and inf != F(1)
    assert not (nan == F(0) or nan < F(0) or nan <= F(0) or nan > F(0) or nan >= F(0))


def termwise_product(a, b):
    """Fraction product term by term, dropping a term when its sum is 0."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            s = terms.get(e, F(0)) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return terms


@settings(max_examples=150)
@given(small_polys, small_polys)
def test_integer_product_matches_termwise_fractions(a, b):
    # list() compares the term order too: float evaluation sums in it
    assert list((a * b).terms.items()) == list(termwise_product(a, b).items())
    assert list((a * b * a).terms.items()) == \
        list(termwise_product(Polynomial(XY, termwise_product(a, b)), a).items())


def tuple_loop_product(a, b):
    """The product loop on exponent tuples, as ``Polynomial.__mul__`` ran it
    before exponents were packed into ints: integer numerators over the two
    common denominators, a term dropped the moment its partial sum is 0."""
    da, na = _common_denominator(a.terms.values())
    db, nb = _common_denominator(b.terms.values())
    acc = {}
    for e1, c1 in zip(a.terms, na):
        for e2, c2 in zip(b.terms, nb):
            e = tuple(map(add, e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    d = da * db
    return {e: F(n, d) for e, n in acc.items()}


# Each symbol's exponents lie in a window of three values, so monomials
# collide (partial sums hit 0 and keys come back); windows near 2^20 and
# 2^21 make the packed fields 21 to 23 bits wide.
EXPONENT_BASES = st.sampled_from([0, 0, 2 ** 20 - 1, 2 ** 21 - 2])
signed_coeffs = st.sampled_from([1, -1, 1, -1, F(-1, 2), F(1, 2), F(-5, 3), -3])


def poly_pairs(n):
    symbols = ("x", "y", "z")[:n]
    constants = st.dictionaries(st.just((0,) * n), signed_coeffs)

    def polys(bases):
        exponents = st.tuples(*[st.integers(b, b + 2) for b in bases])
        return st.dictionaries(exponents, signed_coeffs, min_size=1, max_size=8) | constants

    return st.lists(EXPONENT_BASES, min_size=n, max_size=n).flatmap(
        lambda bases: st.tuples(polys(bases), polys(bases))).map(
        lambda ab: (Polynomial(symbols, ab[0]), Polynomial(symbols, ab[1])))


def assert_canonical(p):
    """What ``Polynomial._from_terms`` relies on: only nonzero Fractions are stored."""
    assert all(type(c) is F and c != 0 for c in p.terms.values())


CANCEL_A = Polynomial(XY, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
CANCEL_B = Polynomial(XY, {(1, 1): 1, (0, 1): -1, (1, 0): 2})


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(poly_pairs))
@example((CANCEL_A, CANCEL_B))
@example((Polynomial(XY, {}), CANCEL_B))
@example((Polynomial.constant(XY, F(-7, 3)), CANCEL_A))
@example((Polynomial(("x",), {(2 ** 20,): F(3, 4)}), Polynomial(("x",), {(2 ** 20,): -2})))
def test_packed_product_matches_tuple_loop(ab):
    a, b = ab
    # (a+b)(a-b): the cross terms -ab and ba cancel, often partway through
    for p, q in ((a, b), (b, a), (a, a), (a + b, a - b)):
        product, expected = p * q, tuple_loop_product(p, q)
        assert product.terms == expected
        assert list(product.terms) == list(expected)  # float evaluation sums in this order
        assert_canonical(product)
    for p in (a + b, a - b, -a, a.scale(F(-2, 3)), a.scale(0), a * 3):
        assert_canonical(p)


def test_cancelled_key_is_inserted_again_at_the_end():
    # x*y from 1*(x*y) cancels against x*(-y) and comes back from y*(2x)
    product = CANCEL_A * CANCEL_B
    assert list(product.terms)[-1] == (1, 1) and product.terms[(1, 1)] == 2
    assert list(product.terms) == list(tuple_loop_product(CANCEL_A, CANCEL_B))


def test_packed_field_holds_the_largest_exponent_sum():
    # 2^20 + 2^20 needs 22 bits; a narrower field would carry into y
    x = Polynomial.variable(XY, "x")
    assert (x ** (2 ** 20) * x ** (2 ** 20)).terms == {(2 ** 21, 0): 1}
    assert (x ** (2 ** 21 - 1) * x).terms == {(2 ** 21, 0): 1}


@pytest.mark.parametrize("terms", [{(-1, 0): 1}, {(0, 0): 2, (3, -2): F(1, 2)}])
def test_negative_exponent_cannot_be_packed(terms):
    p, y = Polynomial(XY, terms), Polynomial.variable(XY, "y")
    for a, b in ((p, y), (y, p), (p, p)):
        with pytest.raises(DomainMismatch, match="negative exponent"):
            a * b


X = ("x",)
univariate_polys = st.lists(small_coeffs, max_size=5).map(
    lambda cs: Polynomial(X, {(i,): c for i, c in enumerate(cs)}))
nonconstant_polys = univariate_polys.filter(lambda p: p.total_degree() > 0)
nonzero_univariate = univariate_polys.filter(lambda p: not p.is_zero())


def fraction_divexact(a, y):
    """Exact quotient of ``a`` by the dense vector ``y`` over Fraction."""
    x = _dense(a)
    q = [F(0)] * (len(x) - len(y) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = x[i + len(y) - 1] / y[-1]
        for j, c in enumerate(y):
            x[i + j] -= q[i] * c
    assert not any(x)
    return Polynomial(X, {(i,): c for i, c in enumerate(q)})


def euclid_reduced(num, den):
    """Reference terms of RationalFunction(num, den) over one symbol: the
    Euclidean gcd divided out by Fraction long division, then the
    denominator scaled to content 1 and a positive leading coefficient."""
    if not num.is_zero():
        mg = tuple(map(min, num.monomial_gcd(), den.monomial_gcd()))
        num, den = num.shift_down(mg), den.shift_down(mg)
    if not num.is_zero() and not den.is_constant():
        g = _euclid_gcd(_dense(num), _dense(den))
        if len(g) > 1:
            num, den = fraction_divexact(num, g), fraction_divexact(den, g)
    c = den.content() * (1 if den.lead_coefficient() > 0 else -1)
    return (list(num.scale(1 / c).terms.items()),
            list(den.scale(1 / c).terms.items()))


def stored_terms(r):
    return list(r.num.terms.items()), list(r.den.terms.items())


@settings(max_examples=200)
@given(univariate_polys, univariate_polys.filter(lambda p: not p.is_zero()),
       nonconstant_polys, st.integers(0, 3))
def test_planted_common_factor_reduces_like_euclid(a, b, h, k):
    """(h*a)/(h*b) keeps exactly the terms, in order, of the Euclid reference."""
    num, den = h ** k * a, h ** k * b
    expected = euclid_reduced(num, den)
    assert stored_terms(RationalFunction(num, den)) == expected
    with pytest.MonkeyPatch.context() as mp:
        # no heuristic attempt at all: the Euclidean fallback decides
        mp.setattr(scalars, "HEU_GCD_TRIES", 0)
        assert stored_terms(RationalFunction(num, den)) == expected


def test_heuristic_gcd_divides_out_high_degree_factor():
    x = Polynomial.variable(X, "x")
    h = (x ** 7 - 3 * x ** 2 + F(1, 3)) ** 3
    a = (2 * x + 1) ** 5 * (x ** 3 - x + 5)
    b = (2 * x + 1) ** 2 * (x ** 4 + 7)
    r = RationalFunction(h * a, h * b)
    assert stored_terms(r) == euclid_reduced(h * a, h * b)
    assert r.num.total_degree() == 6 and r.den.total_degree() == 4


def test_heuristic_gcd_retries_at_a_larger_point(monkeypatch):
    # gcd (x+1); at xi = 2**16 the cofactors x+3 and x+65542 take values
    # 65539 and 2*65539, so the first candidate is all of (x+1)(x+3)
    points = []
    digits = scalars._symmetric_digits
    monkeypatch.setattr(scalars, "_symmetric_digits",
                        lambda n, xi: points.append(xi) or digits(n, xi))
    a, b = [3, 4, 1], [65542, 65543, 1]
    assert scalars._gcd_cofactors(a, b) == ([1, 1], [3, 1], [65542, 1])
    assert points == [2 ** 16, 2 ** 32]
    points.clear()
    monkeypatch.setattr(scalars, "HEU_GCD_TRIES", 1)
    assert scalars._gcd_cofactors(a, b) == ([1, 1], [3, 1], [65542, 1])
    assert points == [2 ** 16]


def henrici_cases(x, y):
    """Each operation on one-symbol fractions, with the reduction of its
    whole product as computed by ``RationalFunction.__init__``."""
    return [(x + y, RationalFunction(x.num * y.den + y.num * x.den, x.den * y.den)),
            (x - y, RationalFunction(x.num * y.den - y.num * x.den, x.den * y.den)),
            (x * y, RationalFunction(x.num * y.num, x.den * y.den)),
            (x / y, RationalFunction(x.num * y.den, x.den * y.num))]


@settings(max_examples=60, deadline=None)
@given(univariate_polys, nonzero_univariate, nonzero_univariate,
       nonzero_univariate, nonconstant_polys, st.integers(0, 2))
def test_one_symbol_operations_reduce_like_the_whole_product(a, b, c, d, h, k):
    """``x = a/(b h^k)`` and ``y = (b c)/(d h^k)`` share ``b`` across and
    ``h^k`` below, so Henrici's rule divides planted factors out of the
    operands' parts.  Each result has the terms of the whole product's
    reduction, compares and hashes equal to it, and a result with a
    non-constant denominator stores its terms in ascending order."""
    x, y = RationalFunction(a, b * h ** k), RationalFunction(b * c, d * h ** k)
    expected = [want for _, want in henrici_cases(x, y)]
    with pytest.MonkeyPatch.context() as mp:
        for tries in (scalars.HEU_GCD_TRIES, 0):
            mp.setattr(scalars, "HEU_GCD_TRIES", tries)  # 0: the Euclidean gcd decides
            for (got, _), want in zip(henrici_cases(x, y), expected):
                if want.is_zero():
                    continue
                assert term_dicts(got) == term_dicts(want)
                assert got == want and hash(got) == hash(want)
                if not got.den.is_constant():
                    assert all(list(p.terms) == sorted(p.terms) for p in (got.num, got.den))
    zero = x - x
    assert zero.is_zero() and zero.den.terms == x.den.terms


def test_zero_sum_keeps_its_denominator():
    q = rf_var("q")["q"]
    x = (q + 2) / (q - 1)
    assert str(x - x) == "(0)/(q-1)"
    assert str(x + (-x)) == "(0)/(q-1)"



# -- several symbols --------------------------------------------------------

nonconstant_polys_xy = nonzero_polys.filter(lambda p: not p.is_constant())
xy_fractions = st.tuples(nonzero_polys, nonzero_polys).map(lambda nd: RationalFunction(*nd))


def term_dicts(r):
    return r.num.terms, r.den.terms


@settings(max_examples=200, deadline=None)
@given(nonzero_polys, nonzero_polys, nonconstant_polys_xy, st.integers(1, 2))
def test_two_symbol_common_factor_is_divided_out(a, b, c, k):
    """(a*c^k)/(b*c^k) stores the terms of a/b: both are fully reduced."""
    assert term_dicts(RationalFunction(a * c ** k, b * c ** k)) == \
        term_dicts(RationalFunction(a, b))


@settings(max_examples=150, deadline=None)
@given(xy_fractions, xy_fractions)
def test_two_symbol_field_identities_keep_the_reduced_form(x, y):
    assert term_dicts(x + y - y) == term_dicts(x)
    assert term_dicts(x * y / y) == term_dicts(x)


def test_three_symbol_common_factor_is_divided_out():
    g = rf_var("x", "y", "z")
    x, y, z = g["x"], g["y"], g["z"]
    h = (x * y - 3 * z + 1) * (z ** 2 + x - 2 * y)
    r = (h * (x + y + z)) / (h * (x * z - 5))
    assert term_dicts(r) == term_dicts((x + y + z) / (x * z - 5))
    assert r.num.total_degree() == 1 and r.den.total_degree() == 2


# -- operations that skip normalization ------------------------------------

def general_path(op, a, c):
    """``op`` on the fraction ``a`` and the scalar ``c`` as normalization
    computes it: ``c`` as the fraction ``c/1``, the polynomial products and
    sums of the operator, then ``RationalFunction.__init__``."""
    n, d = a.num, a.den
    cp, one = Polynomial.constant(a.symbols, c), Polynomial.constant(a.symbols, 1)
    num, den = {
        "add": (n * one + cp * d, d * one),
        "sub": (n * one + (-cp) * d, d * one),
        "rsub": (cp * d + (-n) * one, one * d),
        "mul": (n * cp, d * one),
        "truediv": (n * one, d * cp),
        "rtruediv": (cp * d, one * n),
    }[op]
    return RationalFunction(num, den)


def fractions_over(symbols, polys):
    return st.tuples(polys, polys.filter(lambda p: not p.is_zero())).map(
        lambda nd: RationalFunction(nd[0], nd[1]))


one_or_two_symbol_fractions = fractions_over(X, univariate_polys) | fractions_over(XY, small_polys)


@settings(max_examples=300, deadline=None)
@given(one_or_two_symbol_fractions, small_coeffs, st.integers(-3, 3))
@example(RationalFunction(Polynomial(X, {}), Polynomial(X, {(1,): 2, (0,): 1})), 1, -1)
@example(RationalFunction(Polynomial(X, {(1,): 3}), Polynomial(X, {(1,): 1, (0,): 1})), 0, 2)
def test_scalar_operations_keep_the_general_terms(a, c, k):
    """Every operation with a scalar operand stores the terms, in order,
    that normalization would.  For a polynomial the order matters: float
    evaluation sums in it, and the sinc reports read those sums."""
    cases = [(a + c, "add"), (c + a, "add"), (a - c, "sub"), (c - a, "rsub"),
             (a * c, "mul"), (c * a, "mul")]
    if c:
        cases.append((a / c, "truediv"))
    else:
        with pytest.raises(DenominatorVanishes):
            a / c
    if a.is_zero():
        with pytest.raises(DenominatorVanishes):
            c / a
        with pytest.raises(DenominatorVanishes):
            a ** -1
    else:
        cases.append((c / a, "rtruediv"))
    for got, op in cases:
        assert stored_terms(got) == stored_terms(general_path(op, a, c)), op
    assert stored_terms(-a) == stored_terms(RationalFunction(-a.num, a.den))
    if k >= 0 or not a.is_zero():
        r = a if k >= 0 else RationalFunction(a.den, a.num)
        assert stored_terms(a ** k) == stored_terms(
            RationalFunction(r.num ** abs(k), r.den ** abs(k)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([X, XY]).flatmap(lambda sy: st.tuples(
    *[st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(sy)), small_coeffs, max_size=3)
      .map(lambda t, sy=sy: Polynomial(sy, t))] * 2)))
def test_polynomial_sum_keeps_the_general_terms(pq):
    """A sum over the constant denominator 1 skips normalization too."""
    p, q = pq
    one = Polynomial.constant(p.symbols, 1)
    got = RationalFunction(p, one) + RationalFunction(q, one)
    assert stored_terms(got) == stored_terms(RationalFunction(p + q, one))


def test_constructors_keep_the_general_terms():
    for sy in (X, XY, ()):
        one = Polynomial.constant(sy, 1)
        for c in (0, 3, F(-2, 7)):
            assert stored_terms(RationalFunction.constant(sy, c)) == \
                stored_terms(RationalFunction(Polynomial.constant(sy, c), one))
        for s in sy:
            assert stored_terms(RationalFunction.variable(sy, s)) == \
                stored_terms(RationalFunction(Polynomial.variable(sy, s), one))


@settings(max_examples=150, deadline=None)
@given(univariate_polys, nonzero_univariate, nonzero_univariate, nonzero_univariate,
       st.integers(-3, 3))
@example(Polynomial(X, {}), Polynomial(X, {(0,): 1}), Polynomial(X, {(1,): 1, (0,): 2}),
         Polynomial(X, {(2,): -3}), 0)
def test_one_symbol_hash_consistent_with_structural_eq(num, den, common, den2, k):
    """Over one symbol the stored form is unique: equality compares terms
    with no products, and equal values hash alike, constants as int and
    Fraction do and zeros over any denominator as 0."""
    a = RationalFunction(num, den)
    b = RationalFunction(num * common, den * common)
    c = RationalFunction(common * k, common)
    zeros = RationalFunction(num * 0, den), RationalFunction(num * 0, den2)
    a_is_c = (a - c).is_zero()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "__mul__", None)
        if not a.is_zero():
            assert a == b
            if k:
                assert (a == c) == a_is_c
    assert a == b and hash(a) == hash(b)
    assert c == k and c == F(k) and hash(c) == hash(k) == hash(F(k))
    if a == c:
        assert hash(a) == hash(c)
    assert zeros[0] == zeros[1] == 0 and hash(zeros[0]) == hash(zeros[1]) == 0


def test_one_symbol_values_hash_apart():
    t = rf_var("t")["t"]
    values = [t, t + 1, 1 / (t + 1), t ** 2, t / 3, (t - 1) / (t + 2)]
    assert len({hash(v) for v in values}) == len(values)
    assert len(set(values + [v * 1 for v in values])) == len(values)


def per_term_evaluate(p, bindings):
    """``Polynomial.evaluate`` at BigFloat bindings with each power taken
    anew in every term."""
    prec = max(v.prec for v in bindings.values())
    vals = [bindings[s].value for s in p.symbols]
    with mpmath.workprec(prec + 10):
        total = mpmath.mpf(0)
        for e, c in p.terms.items():
            term = mpmath.mpf(c.numerator) / c.denominator
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
    return BigFloat(total, prec)


@settings(max_examples=100, deadline=None)
@given(small_polys, st.sampled_from([64, 128, 256]))
def test_cached_powers_evaluate_bit_for_bit(p, prec):
    bindings = {"x": BigFloat.pi(prec) ** 2, "y": BigFloat(F(1, 3), prec)}
    got, want = p.evaluate(bindings), per_term_evaluate(p, bindings)
    assert got.value._mpf_ == want.value._mpf_ and got.prec == want.prec
    r = RationalFunction(p, Polynomial.constant(XY, 1))
    assert r.evaluate(bindings).value._mpf_ == (got / BigFloat(1, prec)).value._mpf_
    exact = {"x": F(2, 3), "y": -2}
    assert r.evaluate(exact) == sum(
        (c * F(2, 3) ** e[0] * F(-2) ** e[1] for e, c in p.terms.items()), F(0))

def band_rule(x: F, scale: F, prec: int) -> Verdict:
    """``sign_decide``'s float rule on Fractions alone: NONNEGATIVE iff ``x >=
    scale 2^(-prec/2)``, NEGATIVE iff ``x < -4 scale 2^(-prec/2)``, each side
    squared."""
    if x >= 0 and x * x * 2 ** prec >= scale * scale:
        return Verdict.NONNEGATIVE
    if x < 0 and x * x * 2 ** prec > 16 * scale * scale:
        return Verdict.NEGATIVE
    return Verdict.INDETERMINATE


def band_edge_floor(scale: F, prec: int, bits: int) -> tuple[int, int]:
    """``(n, e)``: ``n 2^-e`` is the largest ``bits``-bit dyadic at or below
    ``scale 2^(-prec/2)``, by an integer square root."""
    e = bits + prec // 2 + scale.denominator.bit_length() + 2   # eps 2^e > 2^(bits+1)
    t = math.isqrt((scale.numerator ** 2 << 2 * e - prec) // scale.denominator ** 2)
    shift = t.bit_length() - bits
    return t >> shift, e - shift


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
        sv = sign_decide(x, 1.0)
        assert sv.verdict is Verdict.INDETERMINATE

    def test_clearly_signed_floats(self):
        assert sign_decide(BigFloat(3, 128)).verdict is Verdict.NONNEGATIVE
        assert sign_decide(BigFloat(-3, 128)).verdict is Verdict.NEGATIVE

    def test_monotone(self):
        rng = random.Random(99)
        pts = [BigFloat(F(rng.randint(-1000, 1000), 997), 128) for _ in range(60)]
        for x in pts:
            for y in pts:
                if x <= y and sign_decide(x, 1.0).verdict is Verdict.NONNEGATIVE:
                    assert sign_decide(y, 1.0).verdict is Verdict.NONNEGATIVE

    def test_nonfinite_rejected(self):
        bad = BigFloat(1, 128)
        bad.value = bad.value * float("inf")
        with pytest.raises(NonFinite):
            sign_decide(bad)

    @pytest.mark.parametrize("prec", [64, 96, 161, 320, 1024])
    def test_eps_equals_uncached_formula(self, prec):
        # The verdicts change exactly at eps = scale 2^(-prec/2) and at -KAPPA eps.
        # On grids of prec + 16 and 3 prec bits, the last value at or below eps is
        # NONNEGATIVE only if it is eps itself, and the next one is; the last one at
        # or below KAPPA eps, negated, stays INDETERMINATE, and the next is NEGATIVE.
        # At prec = 161 the 177-bit value nearest to 2^-80.5 lies below it.
        for scale in (1, 3.5, 1e30, 2 ** 1100):
            s = F(scale)
            for bits in (prec + 16, 3 * prec):
                n, e = band_edge_floor(s, prec, bits)
                exact = (n * F(2) ** -e) ** 2 * 2 ** prec == s * s
                at = [BigFloat(m * F(2) ** -e, bits + 1) for m in (n, n + 1)]
                assert sign_decide(at[0], scale, prec).verdict is (
                    Verdict.NONNEGATIVE if exact else Verdict.INDETERMINATE)
                assert sign_decide(at[1], scale, prec).verdict is Verdict.NONNEGATIVE
                n, e = band_edge_floor(4 * s, prec, bits)
                at = [BigFloat(-m * F(2) ** -e, bits + 1) for m in (n, n + 1)]
                assert sign_decide(at[0], scale, prec).verdict is Verdict.INDETERMINATE
                assert sign_decide(at[1], scale, prec).verdict is Verdict.NEGATIVE
        n, e = band_edge_floor(F(1), 161, 177)
        with mpmath.workprec(177):
            nearest = mpmath.mpf(2) ** mpmath.mpf(-80.5)
        assert nearest == mpmath.ldexp(n, -e)

    @settings(max_examples=150)
    @example(prec=64, scale=1, edge=1, offset=0, extra=0)
    @example(prec=65, scale=2 ** 1100 + 1, edge=-4, offset=1, extra=40)
    @given(st.integers(64, 700),
           st.one_of(st.integers(1, 2 ** 1200),
                     st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6),
                     st.floats(1e-300, 1e300)),
           st.sampled_from([1, -4]), st.integers(-3, 3), st.integers(-16, 64))
    def test_matches_fraction_rule(self, prec, scale, edge, offset, extra):
        # values a few ulps either side of eps and of -KAPPA eps, on grids coarser
        # and finer than prec bits
        bits = max(64, prec + extra)
        n, e = band_edge_floor(abs(edge) * F(scale), prec, bits)
        x = (n + offset) * F(2) ** -e * (1 if edge > 0 else -1)
        got = sign_decide(BigFloat(x, bits + 1), scale, prec).verdict
        assert got is band_rule(x, F(scale), prec)

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

    def test_fraction_rounded_once(self):
        # a numerator wider than the precision used to be rounded before the division
        rng = random.Random(20261018)
        for _ in range(2000):
            x = F(rng.getrandbits(300) | 1 << 299, rng.getrandbits(200) | 1 << 199)
            want = from_rational(x.numerator, x.denominator, 128, round_nearest)
            assert BigFloat(x, 128).value._mpf_ == want
            assert _to_mp(x, 128)._mpf_ == want

    def test_integer_operands_rounded_at_working_precision(self):
        # both exceed 53 bits; mpmath's default context would round them
        assert int((BigFloat(1, 192) * comb(64, 32)).value) == comb(64, 32)
        assert int((3 ** 60 * BigFloat(1, 192)).value) == 3 ** 60
