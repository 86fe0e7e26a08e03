"""Coefficient domains shared by the whole library.

Every quantity handled downstream (Taylor coefficients, elementary symmetric
values, power sums, moments, difference-table cells) lives in one of three
domains:

* exact rationals -- ``fractions.Fraction``,
* exact multivariate rational functions over the rationals -- the sparse
  :class:`Polynomial` / :class:`RationalFunction` pair defined here,
* arbitrary-precision real binary floats -- :class:`BigFloat`, a thin
  wrapper over mpmath that carries its own working precision.

Symbols inside a rational function are treated as independent
transcendentals: there is no simplification of algebraic relations such as
``sqrt(3)**2 == 3``.  Fractions are fully reduced, which keeps deep
recurrences small.  The gcd comes from the heuristic GCDHEU algorithm (Char,
Geddes & Gonnet, J. Symbolic Comput. 7, 1989).  Over one symbol it is one
big-integer gcd of the two integer coefficient vectors evaluated at a point,
read back as a polynomial and accepted only when it divides both exactly; a
Euclidean gcd over ``Fraction`` is the fallback, so each value has one
stored form, equality compares terms and the hash reads them.  Over several
symbols the last symbol is set to a point, the gcd of the two images comes
from the same algorithm over the other symbols, and its digits are read back
as a candidate that must divide both sides exactly (Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 7).  When every point fails the
fraction keeps a partial reduction (shared monomial factors and the rational
content of the denominator removed), which is sound; so equality over
several symbols is decided by cross multiplication, exact regardless of
representation, and the hash reads the symbol tuple alone.  Operations
whose result is provably in normal form already (a rational scalar on either
side of ``+ - * /``, unary minus, a sum over the denominator 1, a power, the
constant and variable constructors) skip the normalization and its gcd, and
``+ - * /`` of two one-symbol fractions take gcds of the operands' parts only
(Henrici's rule); see :class:`RationalFunction`.

Sign decisions over the float domain are heuristic, not rigorous interval
arithmetic: ``sign_decide(x, scale)`` counts a value as NONNEGATIVE only
when it clears a noise threshold ``eps = scale * 2**(-precision/2)``, as
NEGATIVE only when it falls below ``-KAPPA*eps`` (``KAPPA = 4``), and reports
INDETERMINATE in between, with ``precision`` that of the value's inputs (an
exact difference cell's tag is wider).  The band is compared exactly, in
integers (:func:`_band_cmp`), with exact scales: ``max(1, sum_i C(j,i)
|m_(k+i)|)`` for a moment cell and ``max(1, |v|, (j+k)!)`` for a
derivative-form cell ``v``.  So any float verdict can be recomputed from the
printed report alone.  Exact domains always decide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import eq, ge, gt, le, lshift, lt
from typing import Iterable, Mapping, Optional, Union

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, from_rational, round_nearest

__all__ = [
    "Rational",
    "Polynomial",
    "RationalFunction",
    "BigFloat",
    "Verdict",
    "SignVerdict",
    "sign_decide",
    "DEFAULT_PRECISION_BITS",
    "MIN_PRECISION_BITS",
    "ScalarError",
    "DomainMismatch",
    "DenominatorVanishes",
    "UnboundSymbol",
    "NonFinite",
    "rational_str",
    "parse_rational",
    "bigfloat_str",
    "parse_bigfloat",
    "serialize_scalar",
]

Rational = Fraction

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64


class ScalarError(Exception):
    """Base class for coefficient-domain errors."""


class DomainMismatch(ScalarError):
    """Operands live in incompatible coefficient domains."""


class DenominatorVanishes(ScalarError):
    """A rational function was evaluated at a zero of its denominator."""


class UnboundSymbol(ScalarError):
    """A rational function was evaluated with a symbol left unbound."""


class NonFinite(ScalarError):
    """A float value is NaN or infinite."""


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients.

    Terms are stored as ``{exponent_tuple: Fraction}`` over a fixed, ordered
    tuple of symbol names.  Zero coefficients are never stored.
    """

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction]):
        self.symbols = tuple(symbols)
        self.terms = {e: Fraction(c) for e, c in terms.items() if c != 0}

    @classmethod
    def _from_terms(cls, symbols: tuple[str, ...], terms: dict) -> "Polynomial":
        """Wrap ``terms`` as is: only for dicts of nonzero Fractions built here."""
        p = object.__new__(cls)
        p.symbols = symbols
        p.terms = terms
        return p

    @classmethod
    def constant(cls, symbols: Iterable[str], value) -> "Polynomial":
        symbols = tuple(symbols)
        value = Fraction(value)
        if value == 0:
            return cls(symbols, {})
        return cls(symbols, {(0,) * len(symbols): value})

    @classmethod
    def variable(cls, symbols: Iterable[str], name: str) -> "Polynomial":
        symbols = tuple(symbols)
        exp = [0] * len(symbols)
        exp[symbols.index(name)] = 1
        return cls(symbols, {tuple(exp): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise DomainMismatch("polynomial is not constant")
        return next(iter(self.terms.values()))

    def _check(self, other: "Polynomial") -> None:
        if self.symbols != other.symbols:
            raise DomainMismatch(
                f"symbol sets differ: {self.symbols} vs {other.symbols}")

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.symbols == other.symbols and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.symbols, frozenset(self.terms.items())))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e not in terms:
                terms[e] = c
            elif s := terms[e] + c:
                terms[e] = s
            else:
                del terms[e]
        return Polynomial._from_terms(self.symbols, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(self.symbols, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check(other)
        # Accumulate integer numerators over the product of the two common
        # denominators; a term is dropped the moment its partial sum is zero,
        # so the terms keep the order of a term-by-term Fraction product.
        # Exponent tuples are packed into ints with fields wide enough for any
        # exponent sum, so a monomial product is one integer add.
        width = (_max_exponent(self.terms) + _max_exponent(other.terms)).bit_length()
        shifts = [width * i for i in range(len(self.symbols))]
        da, a = _common_denominator(self.terms.values())
        db, b = _common_denominator(other.terms.values())
        right = list(zip(_packed(other.terms, shifts), b))
        acc: dict[int, int] = {}
        for k1, c1 in zip(_packed(self.terms, shifts), a):
            for k2, c2 in right:
                k = k1 + k2
                s = acc.get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        d = da * db
        mask = (1 << width) - 1
        return Polynomial._from_terms(self.symbols, {
            tuple([k >> i & mask for i in shifts]): Fraction(n, d) for k, n in acc.items()})

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.symbols, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.symbols, other)
        raise DomainMismatch(f"cannot combine polynomial with {type(other).__name__}")

    def content(self) -> Fraction:
        """Rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def lead_coefficient(self) -> Fraction:
        """Coefficient of the lexicographically greatest monomial."""
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms)]

    def monomial_gcd(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms."""
        if not self.terms:
            return (0,) * len(self.symbols)
        it = iter(self.terms)
        m = list(next(it))
        for e in it:
            for i, v in enumerate(e):
                if v < m[i]:
                    m[i] = v
        return tuple(m)

    def shift_down(self, shift: tuple[int, ...]) -> "Polynomial":
        """Divide by the monomial with the given exponents (must divide all terms)."""
        return Polynomial(
            self.symbols,
            {tuple(a - b for a, b in zip(e, shift)): c for e, c in self.terms.items()},
        )

    def scale(self, factor: Fraction) -> "Polynomial":
        factor = Fraction(factor)
        if factor == 0:
            return Polynomial._from_terms(self.symbols, {})
        return Polynomial._from_terms(self.symbols, {e: c * factor for e, c in self.terms.items()})

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def evaluate(self, bindings: Mapping[str, object]):
        """Evaluate at a point; exact for Fraction bindings, BigFloat otherwise."""
        for s in self.symbols:
            if s not in bindings:
                raise UnboundSymbol(f"symbol {s!r} not bound")
        values = [bindings[s] for s in self.symbols]

        def powers(vals):
            """Each ``v ** p`` the terms use, computed once."""
            return [{p: v ** p for p in {e[i] for e in self.terms} if p}
                    for i, v in enumerate(vals)]

        exact = all(isinstance(v, (int, Fraction)) for v in values)
        if exact:
            pows = powers([Fraction(v) for v in values])
            total = Fraction(0)
            for e, c in self.terms.items():
                term = c
                for pw, p in zip(pows, e):
                    if p:
                        term *= pw[p]
                total += term
            return total
        prec = max((v.prec for v in values if isinstance(v, BigFloat)),
                   default=DEFAULT_PRECISION_BITS)
        fvals = [_to_mp(v, prec) for v in values]
        with workprec(prec + 10):
            pows = powers(fvals)
            total = mpf(0)
            for e, c in self.terms.items():
                term = mpf(c.numerator) / c.denominator
                for pw, p in zip(pows, e):
                    if p:
                        term *= pw[p]
                total += term
        return BigFloat(total, prec)

    def _term_str(self, exp: tuple[int, ...], coeff: Fraction) -> str:
        parts = []
        for s, p in zip(self.symbols, exp):
            if p == 1:
                parts.append(s)
            elif p > 1:
                parts.append(f"{s}^{p}")
        if not parts:
            return rational_str(coeff)
        body = "*".join(parts)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{rational_str(coeff)}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for exp in sorted(self.terms, reverse=True):
            t = self._term_str(exp, self.terms[exp])
            if out and not t.startswith("-"):
                out.append("+" + t)
            else:
                out.append(t)
        return "".join(out)

    __repr__ = __str__


def _max_exponent(terms: Iterable[tuple[int, ...]]) -> int:
    """Largest exponent in ``terms`` (0 if none); a negative one cannot be packed."""
    flat = list(chain.from_iterable(terms))
    if flat and min(flat) < 0:
        raise DomainMismatch(f"negative exponent {min(flat)} in a polynomial")
    return max(flat, default=0)


def _packed(terms: Iterable[tuple[int, ...]], shifts: list[int]) -> list[int]:
    """Each exponent tuple as one int, exponent i in the field at bit ``shifts[i]``."""
    return [sum(map(lshift, e, shifts)) for e in terms]


def _common_denominator(v: Iterable) -> tuple[int, list[int]]:
    """``(d, [n, ...])`` with the values of ``v`` (ints, Fractions or finite
    BigFloats) equal to n/d, in order."""
    ratios = [c.as_integer_ratio() for c in v]
    d = lcm(*(b for _, b in ratios))
    return d, [a * (d // b) for a, b in ratios]


def _dense(p: Polynomial) -> list[Fraction]:
    """Coefficients of a univariate polynomial, constant term first, no
    trailing zeros (empty for the zero polynomial)."""
    out = [Fraction(0)] * (max((e[0] for e in p.terms), default=-1) + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    return out


def _primitive(v: list[Fraction]) -> tuple[Fraction, list[int]]:
    """Split a nonzero rational vector as ``content * primitive integer vector``."""
    d, ints = _common_denominator(v)
    g = gcd(*ints)
    return Fraction(g, d), [n // g for n in ints]


def _euclid_gcd(x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two dense coefficient vectors by the Euclidean algorithm."""
    def trim(v: list[Fraction]) -> list[Fraction]:
        while v and v[-1] == 0:
            v.pop()
        return v

    x, y = trim(x[:]), trim(y[:])
    while y:
        # remainder of x by y
        r = x[:]
        dy = len(y) - 1
        lead = y[-1]
        while len(r) - 1 >= dy and trim(r):
            dr = len(r) - 1
            if dr < dy:
                break
            q = r[-1] / lead
            for i in range(dy + 1):
                r[dr - dy + i] -= q * y[i]
            r = trim(r)
        x, y = y, r
    return [c / x[-1] for c in x] if x else []


# Evaluation points GCDHEU tries before falling back: to the Euclidean gcd over
# one symbol, to a partial reduction over several.
HEU_GCD_TRIES = 6


def _horner(v: list[int], x: int) -> int:
    acc = 0
    for c in reversed(v):
        acc = acc * x + c
    return acc


def _symmetric_digits(n: int, xi: int) -> list[int]:
    """Digits of ``n`` in base ``xi`` taken from ``(-xi/2, xi/2]``, lowest first."""
    digits = []
    half = xi // 2
    while n:
        n, d = divmod(n, xi)
        if d > half:
            d -= xi
            n += 1
        digits.append(d)
    return digits


def _divexact_int(a: list[int], g: list[int]) -> Optional[list[int]]:
    """Quotient ``a/g`` of integer coefficient vectors, or None when ``g``
    does not divide ``a`` over the integers."""
    m = len(g) - 1
    if len(a) <= m:
        return None
    r = a[:]
    lead = g[-1]
    q = [0] * (len(a) - m)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + m], lead)
        if rem:
            return None
        q[i] = c
        if c:
            for j in range(m):
                r[i + j] -= c * g[j]
    return None if any(r[:m]) else q


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _gcd_cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """``(g, a/g, b/g)`` for primitive integer coefficient vectors, with ``g``
    their primitive gcd.

    GCDHEU: with ``xi >= 2*min(|a|, |b|) + 2`` (max-norms), the primitive
    part ``G`` of the symmetric ``xi``-adic digits of ``gcd(a(xi), b(xi))``
    is the gcd as soon as it divides both ``a`` and ``b``.  (A common factor
    ``K`` of the cofactors would have ``|K(xi)| > xi/2`` by Cauchy's root
    bound, yet must divide the content of those digits, which is at most
    ``xi/2``.)  The cofactors' values at ``xi`` may share an integer
    factor, which spoils the digits unless ``xi`` is well above it; for the
    products of ``1-q^k`` in the catalog such factors reach about 12 bits,
    so ``xi`` starts at ``2**16`` or more and is squared after each failed
    trial division.
    After ``HEU_GCD_TRIES`` failures the Euclidean gcd decides.
    """
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    xi = max(2 * min(max(map(abs, a)), max(map(abs, b))) + 2, 1 << 16)
    for _ in range(HEU_GCD_TRIES):
        digits = _symmetric_digits(gcd(_horner(a, xi), _horner(b, xi)), xi)
        c = gcd(*digits)
        g = [d // c for d in digits]
        if len(g) == 1:
            return [1], a, b
        qa = _divexact_int(a, g)
        qb = None if qa is None else _divexact_int(b, g)
        if qb is not None:
            return g, qa, qb
        xi *= xi
    g = _primitive(_euclid_gcd([Fraction(c) for c in a], [Fraction(c) for c in b]))[1]
    return g, _divexact_int(a, g), _divexact_int(b, g)


# Integer polynomials in several symbols are dicts ``{exponents: nonzero int}``.
IntPoly = dict[tuple[int, ...], int]


def _scaled(a: IntPoly, c: int) -> IntPoly:
    return {e: v * c for e, v in a.items()}


def _at_last(a: IntPoly, xi: int) -> IntPoly:
    """``a`` with its last symbol set to ``xi``, zero coefficients dropped."""
    powers = [1]
    for _ in range(max(e[-1] for e in a)):
        powers.append(powers[-1] * xi)
    out: IntPoly = {}
    for e, c in a.items():
        out[e[:-1]] = out.get(e[:-1], 0) + c * powers[e[-1]]
    return {e: c for e, c in out.items() if c}


def _lift(image: IntPoly, xi: int) -> IntPoly:
    """The polynomial whose last symbol's coefficients are the symmetric
    base-``xi`` digits of the image's coefficients: its value at ``xi`` is
    ``image``."""
    return {e + (j,): d for e, v in image.items()
            for j, d in enumerate(_symmetric_digits(v, xi)) if d}


def _gcd_of_images(a: IntPoly, b: IntPoly) -> Optional[tuple[IntPoly, IntPoly, IntPoly]]:
    """``(g, a/g, b/g)`` for nonzero integer polynomials, with ``g`` their gcd
    over the integers, integer content included; None when GCDHEU fails.
    One symbol is the univariate path, several recurse through
    :func:`_heu_gcd_cofactors`."""
    ca, cb = gcd(*a.values()), gcd(*b.values())
    c = gcd(ca, cb)
    a = {e: v // ca for e, v in a.items()}
    b = {e: v // cb for e, v in b.items()}
    if len(next(iter(a))) == 1:
        dense = []
        for p in (a, b):
            v = [0] * (max(e[0] for e in p) + 1)
            for e, x in p.items():
                v[e[0]] = x
            dense.append(v)
        found = [{(i,): x for i, x in enumerate(v) if x} for v in _gcd_cofactors(*dense)]
    else:
        found = _heu_gcd_cofactors(a, b)
        if found is None:
            return None
    g, qa, qb = found
    return _scaled(g, c), _scaled(qa, ca // c), _scaled(qb, cb // c)


def _divexact_poly(a: IntPoly, g: IntPoly) -> Optional[IntPoly]:
    """Quotient ``a/g`` of integer polynomials in several symbols, or None
    when ``g`` does not divide ``a`` over the integers.

    Long division, highest monomial first in the order of the packed
    exponent keys (the last symbol most significant, a monomial order).
    A quotient monomial must stay within the degrees of ``a`` less those of
    ``g`` in each symbol, so every key fits the fields of ``a``'s largest
    exponent.
    """
    n = len(next(iter(a)))
    room = [max(e[i] for e in a) - max(e[i] for e in g) for i in range(n)]
    if min(room) < 0:
        return None
    width = _max_exponent(a).bit_length()
    shifts = [width * i for i in range(n)]
    mask = (1 << width) - 1
    rest = dict(zip(_packed(a, shifts), a.values()))
    right = sorted(zip(_packed(g, shifts), g.values()), reverse=True)
    lead, lc = right.pop(0)
    lead_e = [lead >> s & mask for s in shifts]
    heap = [-k for k in rest]
    heapify(heap)
    out: IntPoly = {}
    while heap:
        k = -heappop(heap)
        c = rest.pop(k, 0)
        if not c:
            continue
        e = [(k >> s & mask) - l for s, l in zip(shifts, lead_e)]
        d, r = divmod(c, lc)
        if r or any(x < 0 or x > m for x, m in zip(e, room)):
            return None
        out[tuple(e)] = d
        k -= lead
        for kg, cg in right:
            kk = k + kg
            s = rest.get(kk)
            if s is None:
                rest[kk] = -d * cg
                heappush(heap, -kk)
            elif s == d * cg:
                del rest[kk]
            else:
                rest[kk] = s - d * cg
    return out


def _heu_gcd_cofactors(a: IntPoly, b: IntPoly) -> Optional[tuple[IntPoly, IntPoly, IntPoly]]:
    """``(g, a/g, b/g)`` for primitive integer polynomials in two or more
    symbols, with ``g`` their primitive gcd; None when every trial fails.

    Multivariate GCDHEU: the last symbol is set to ``xi``, the gcd ``gamma``
    of the two images comes from :func:`_gcd_of_images`, and the symmetric
    ``xi``-adic digits of ``gamma`` lift to a polynomial whose primitive
    part ``G`` is the candidate gcd.  With ``xi >= 2*min(|a|, |b|) + 2``
    (max-norms), ``G`` is the gcd once it divides both sides, by the
    argument of :func:`_gcd_cofactors`, since ``gamma`` is the gcd of the
    images with their integer content.  A constant ``G`` is therefore 1.
    Exact division of ``a`` and ``b`` by ``G`` checks the candidate and
    gives the cofactors.  ``xi`` starts at ``2**16`` or more, for the reason
    given there, and is squared after each failed trial, up to
    ``HEU_GCD_TRIES`` trials.
    """
    xi = max(2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2, 1 << 16)
    for _ in range(HEU_GCD_TRIES):
        ia, ib = _at_last(a, xi), _at_last(b, xi)
        images = ia and ib and _gcd_of_images(ia, ib)
        if images:
            g = _lift(images[0], xi)
            if len(g) == 1 and not any(next(iter(g))):
                return {next(iter(g)): 1}, a, b
            c = gcd(*g.values())
            g = {e: v // c for e, v in g.items()}
            qa = _divexact_poly(a, g)
            qb = None if qa is None else _divexact_poly(b, g)
            if qb is not None:
                return g, qa, qb
        xi *= xi
    return None


def _unit_denominator(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """``num/den`` scaled so that ``den`` has content 1 and a positive lead."""
    c = den.content()
    if den.lead_coefficient() < 0:
        c = -c
    if c != 1:
        inv = 1 / c
        num, den = num.scale(inv), den.scale(inv)
    return num, den


class RationalFunction:
    """Quotient of two sparse polynomials over the rationals.

    The denominator is normalized to rational content 1 with a positive
    leading coefficient, shared monomial factors are cancelled, and the
    fraction is fully reduced: both sides are cleared to primitive integer
    polynomials, their gcd is found by GCDHEU and verified by exact integer
    division, whose quotients are the reduced numerator and denominator.
    For a single symbol, when ``HEU_GCD_TRIES`` evaluation points all fail,
    a Euclidean gcd over ``Fraction`` is used instead, which makes the form
    unique.  For several symbols (:func:`_heu_gcd_cofactors`) the reduced
    terms are stored in sorted order, and when every point fails the
    fraction is kept as it is after the monomial and content steps.

    So two nonzero one-symbol fractions are equal exactly when their term
    dicts are, and a non-constant one hashes by its terms.  Zero keeps the
    denominator it was made with (``0/d``), and several symbols may be
    stored partly reduced: those are compared by cross multiplication, and
    a non-constant multivariate value hashes by its symbol tuple alone.  A
    constant hashes as its value, matching ``int`` and ``Fraction``.

    Normalization is skipped where it provably changes nothing, and the
    terms come out in the order it would give them, so a polynomial keeps
    the order of :class:`Polynomial` arithmetic: float evaluation sums in
    that order, and the sinc reports read those sums.  Over one symbol,
    ``+ - * /`` of two fractions, neither zero or constant and not both
    polynomials, follow Henrici's rule (:meth:`_henrici`) and store their
    terms in ascending order.  With ``n/d`` in normal form and ``n``
    nonzero, an int or Fraction ``c`` gives ``(n + c*d)/d``, ``(c*d - n)/d``
    and ``(c*n)/d``: a factor of ``d`` that divides these divides ``n``, and
    ``d`` keeps content 1 and a positive lead.  ``c/(n/d)`` and negative
    powers are ``d/n`` with the content and sign of ``n`` moved to both
    sides.  Unary minus, :meth:`constant`, :meth:`variable` and a sum of two
    fractions over the denominator 1 change nothing either, and
    ``(n/d)**k`` is ``n**k/d**k``, coprime as ``n`` and ``d`` are, with
    content and lead multiplicative (Gauss's lemma; the lead monomial is
    the lexicographic maximum).
    """

    __slots__ = ("symbols", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.symbols != den.symbols:
            raise DomainMismatch("numerator and denominator symbol sets differ")
        if den.is_zero():
            raise DenominatorVanishes("denominator is identically zero")
        self.symbols = num.symbols
        # cancel shared monomial factor
        if not num.is_zero():
            mg = tuple(min(a, b) for a, b in zip(num.monomial_gcd(), den.monomial_gcd()))
            if any(mg):
                num = num.shift_down(mg)
                den = den.shift_down(mg)
        # full reduction
        if len(self.symbols) == 1 and not num.is_zero() and not den.is_constant():
            cn, a = _primitive(_dense(num))
            cd, b = _primitive(_dense(den))
            g, a, b = _gcd_cofactors(a, b)
            if len(g) > 1:
                ratio = cn / cd
                num = Polynomial(self.symbols, {(i,): ratio * c for i, c in enumerate(a)})
                den = Polynomial(self.symbols, {(i,): c for i, c in enumerate(b)})
        elif len(self.symbols) > 1 and not num.is_zero() and not den.is_constant():
            cn, a = _primitive(list(num.terms.values()))
            cd, b = _primitive(list(den.terms.values()))
            found = _heu_gcd_cofactors(dict(zip(num.terms, a)), dict(zip(den.terms, b)))
            if found and any(map(any, found[0])):
                ratio = cn / cd
                num = Polynomial(self.symbols, {e: ratio * found[1][e] for e in sorted(found[1])})
                den = Polynomial(self.symbols, {e: found[2][e] for e in sorted(found[2])})
        self.num, self.den = _unit_denominator(num, den)

    @classmethod
    def _reduced(cls, symbols: tuple[str, ...], num: Polynomial,
                 den: Polynomial) -> "RationalFunction":
        """Wrap ``num/den`` as is: only for a pair ``__init__`` would leave unchanged."""
        r = object.__new__(cls)
        r.symbols, r.num, r.den = symbols, num, den
        return r

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, symbols: Iterable[str], value) -> "RationalFunction":
        symbols = tuple(symbols)
        return cls._reduced(symbols, Polynomial.constant(symbols, value),
                            Polynomial.constant(symbols, 1))

    @classmethod
    def variable(cls, symbols: Iterable[str], name: str) -> "RationalFunction":
        symbols = tuple(symbols)
        return cls._reduced(symbols, Polynomial.variable(symbols, name),
                            Polynomial.constant(symbols, 1))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.symbols != self.symbols:
                raise DomainMismatch(
                    f"symbol sets differ: {self.symbols} vs {other.symbols}")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.symbols, other)
        raise DomainMismatch(
            f"cannot combine rational function with {type(other).__name__}")

    def _henrici_applies(self, other: "RationalFunction") -> bool:
        """One symbol, neither side zero or constant, and not both polynomials."""
        return (len(self.symbols) == 1 and bool(self.num.terms) and bool(other.num.terms)
                and not (self.is_constant() or other.is_constant())
                and not (self.den.is_constant() and other.den.is_constant()))

    def _henrici(self, other: "RationalFunction", product: bool) -> "RationalFunction":
        """``self * other`` or ``self + other`` by Henrici's rule (J. ACM 3,
        1956; Knuth, TAOCP vol. 2, 4.5.1), for :meth:`_henrici_applies`.

        With ``self = x*a/b`` and ``other = y*c/d``, ``a, b, c, d`` primitive
        integer vectors and both pairs coprime, the product is
        ``(a/gcd(a,d)) (c/gcd(c,b))`` over ``(b/gcd(c,b)) (d/gcd(a,d))``.
        With ``g = gcd(b, d)`` the sum is ``n = x*a*(d/g) + y*c*(b/g)`` over
        ``(b/g) d``, where only ``h = gcd(n, g)`` can cancel, so no gcd runs
        when ``g`` is 1.  Both results are reduced; their terms are stored in
        ascending order.  A zero sum is ``0/b``, as over one denominator.
        """
        sy = self.symbols
        x, a = _primitive(_dense(self.num))
        y, c = _primitive(_dense(other.num))
        b = [v.numerator for v in _dense(self.den)]
        d = [v.numerator for v in _dense(other.den)]
        (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
        if product:
            _, a, d = _gcd_cofactors(a, d)
            _, c, b = _gcd_cofactors(c, b)
            k, m, num, den = p * r, q * s, _convolve(a, c), _convolve(b, d)
        else:
            g, b, dg = _gcd_cofactors(b, d)
            n = [p * s * u + r * q * v for u, v in
                 zip_longest(_convolve(a, dg), _convolve(c, b), fillvalue=0)]
            while n and not n[-1]:
                n.pop()
            if not n:
                return RationalFunction._reduced(sy, Polynomial(sy, {}), self.den)
            k, m = gcd(*n), q * s
            h, num, _ = _gcd_cofactors([v // k for v in n], g)
            den = _convolve(b, d if len(h) == 1 else _divexact_int(d, h))
        if den[-1] < 0:
            k, den = -k, [-v for v in den]
        return RationalFunction._reduced(sy, Polynomial._from_terms(
            sy, {(i,): Fraction(k * v, m) for i, v in enumerate(num) if v}),
            Polynomial._from_terms(sy, {(i,): Fraction(v) for i, v in enumerate(den) if v}))

    def __add__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)) and self.num.terms:
            return RationalFunction._reduced(
                self.symbols, self.num + self.den.scale(other), self.den)
        other = self._coerce(other)
        if self._henrici_applies(other):
            return self._henrici(other, product=False)
        if self.den == other.den:
            if self.den.is_constant():
                return RationalFunction._reduced(self.symbols, self.num + other.num, self.den)
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return self + -other
        return self + (-self._coerce(other))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(self.symbols, -self.num, self.den)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction._reduced(self.symbols, self.num.scale(other), self.den)
        other = self._coerce(other)
        if self._henrici_applies(other):
            return self._henrici(other, product=True)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)) and other:
            return RationalFunction._reduced(self.symbols, self.num.scale(1 / Fraction(other)),
                                             self.den)
        other = self._coerce(other)
        if len(self.symbols) == 1:
            return self * other._reciprocal()
        if other.num.is_zero():
            raise DenominatorVanishes("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return self._reciprocal() * other
        return self._coerce(other) / self

    def _reciprocal(self) -> "RationalFunction":
        if self.num.is_zero():
            raise DenominatorVanishes("division by the zero rational function")
        return RationalFunction._reduced(self.symbols, *_unit_denominator(self.den, self.num))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)) and self.num.terms:
            return RationalFunction._reduced(
                self.symbols, self.den.scale(other) + -self.num, self.den)
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self._reciprocal() ** (-n)
        return RationalFunction._reduced(self.symbols, self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(self.symbols, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.symbols != other.symbols:
            return False
        if len(self.symbols) == 1 and self.num.terms and other.num.terms:
            return self.num.terms == other.num.terms and self.den.terms == other.den.terms
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        c = self._constant_ratio()
        if c is not None:
            return hash(c)
        if len(self.symbols) == 1:
            return hash((frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))
        return hash(self.symbols)

    def _constant_ratio(self) -> Optional[Fraction]:
        """The constant ``c`` with ``num == c*den``, or None if there is none."""
        if self.num.is_zero():
            return Fraction(0)
        if self.num.terms.keys() != self.den.terms.keys():
            return None
        e, d = next(iter(self.den.terms.items()))
        c = self.num.terms[e] / d
        if all(self.num.terms[e] == c * d for e, d in self.den.terms.items()):
            return c
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def evaluate(self, bindings: Mapping[str, object]):
        """Exact Fraction for rational bindings, BigFloat otherwise."""
        if self.den.is_constant():
            # a constant denominator is 1, and dividing by an exact 1 changes
            # neither a Fraction nor a BigFloat
            return self.num.evaluate(bindings)
        den = self.den.evaluate(bindings)
        if isinstance(den, Fraction):
            if den == 0:
                raise DenominatorVanishes("denominator vanishes at the point")
            return self.num.evaluate(bindings) / den
        if den == 0:
            raise DenominatorVanishes("denominator vanishes at the point")
        num = self.num.evaluate(bindings)
        return num / den

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# arbitrary-precision floats
# ---------------------------------------------------------------------------


def _to_mp(v, prec: int):
    if isinstance(v, BigFloat):
        return v.value
    if isinstance(v, (int, Fraction)):
        # rounded once to nearest at ``prec`` (an int too, not at mpmath's
        # 53-bit default)
        return mpmath.mp.make_mpf(from_rational(v.numerator, v.denominator, prec, round_nearest))
    if isinstance(v, float):
        return mpf(v)
    if isinstance(v, mpf):
        return v
    raise DomainMismatch(f"cannot convert {type(v).__name__} to a float scalar")


def _mpf_to_fraction(x) -> Fraction:
    """The exact dyadic value of a finite ``mpf``."""
    sign, man, exp, _ = x._mpf_
    f = Fraction(man) * (Fraction(2) ** exp)
    return -f if sign else f


class BigFloat:
    """Arbitrary-precision real float carrying its working precision in bits.

    Binary operations compute at the larger precision of the two operands.
    """

    __slots__ = ("value", "prec")

    def __init__(self, value, prec: int = DEFAULT_PRECISION_BITS):
        if prec < MIN_PRECISION_BITS:
            raise ValueError(f"precision below {MIN_PRECISION_BITS} bits")
        self.prec = int(prec)
        with workprec(self.prec):
            if isinstance(value, BigFloat):
                v = +value.value
            elif isinstance(value, Fraction):
                v = _to_mp(value, self.prec)
            else:
                v = +mpf(value)
        self.value = v

    @classmethod
    def _exact(cls, value: mpf, prec: int) -> "BigFloat":
        """Wrap ``value`` as is: only for an ``mpf`` already rounded to ``prec`` bits."""
        b = object.__new__(cls)
        b.value, b.prec = value, prec
        return b

    @staticmethod
    def pi(prec: int = DEFAULT_PRECISION_BITS) -> "BigFloat":
        with workprec(prec):
            return BigFloat(+mpmath.pi, prec)

    def as_integer_ratio(self) -> tuple[int, int]:
        """The exact value as ``(n, d)`` in lowest terms (an mpf's mantissa is odd)."""
        sign, man, exp, _ = self.value._mpf_
        if not man and exp:     # an infinity or NaN
            raise NonFinite(f"{self} has no integer ratio")
        n = -man if sign else man
        return (n << exp, 1) if exp >= 0 else (n, 1 << -exp)

    def _binary(self, other, op):
        if isinstance(other, BigFloat):
            prec = max(self.prec, other.prec)
            o = other.value
        elif isinstance(other, (int, float, Fraction)):
            prec = self.prec
            o = _to_mp(other, prec)
        else:
            return NotImplemented
        with workprec(prec):
            return BigFloat(op(self.value, o), prec)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: b * a)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __pow__(self, n):
        if isinstance(n, int):
            with workprec(self.prec):
                return BigFloat(self.value ** n, self.prec)
        return self._binary(n, lambda a, b: a ** b)

    def __neg__(self):
        with workprec(self.prec):
            return BigFloat(-self.value, self.prec)

    def __abs__(self):
        with workprec(self.prec):
            return BigFloat(abs(self.value), self.prec)

    def _compare(self, other, op):
        """``op`` on exact values: a ``Fraction`` meets the mpf's dyadic value, so
        equality agrees with the hash; an infinity or NaN compares as with any
        finite number."""
        if isinstance(other, BigFloat):
            return op(self.value, other.value)
        if isinstance(other, (int, float)):
            return op(self.value, other)
        if isinstance(other, Fraction):
            if mpmath.isfinite(self.value):
                return op(_mpf_to_fraction(self.value), other)
            return op(self.value, 0)
        return NotImplemented

    def __eq__(self, other):
        return self._compare(other, eq)

    def __lt__(self, other):
        return self._compare(other, lt)

    def __le__(self, other):
        return self._compare(other, le)

    def __gt__(self, other):
        return self._compare(other, gt)

    def __ge__(self, other):
        return self._compare(other, ge)

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return float(self.value)

    def __str__(self):
        return mpmath.nstr(self.value, max(8, int(self.prec * 0.3)))

    def __repr__(self):
        return f"BigFloat({self}, prec={self.prec})"


Scalar = Union[Fraction, RationalFunction, BigFloat]


# ---------------------------------------------------------------------------
# sign decisions
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    NONNEGATIVE = "NONNEGATIVE"
    NEGATIVE = "NEGATIVE"
    INDETERMINATE = "INDETERMINATE"

    @property
    def letter(self) -> str:
        return {"NONNEGATIVE": "+", "NEGATIVE": "-", "INDETERMINATE": "?"}[self.value]


@dataclass(frozen=True)
class SignVerdict:
    verdict: Verdict
    margin: object  # |x| in the input domain


KAPPA = 4  # widens the indeterminate band on the negative side


def _band_cmp(x, a: int, b: int, prec: int) -> int:
    """The sign of ``|x| - (a/b) 2**(-prec/2)`` for a finite ``x = n/d`` (int,
    Fraction or BigFloat), exactly: that of ``(n b)**2 2**prec - (a d)**2``."""
    n, d = x.as_integer_ratio()
    left, right = (n * b) ** 2 << prec, (a * d) ** 2
    return (left > right) - (left < right)


def sign_decide(x, scale=1.0, precision: Optional[int] = None) -> SignVerdict:
    """Decide the sign of a scalar.  Exact domains never return INDETERMINATE.

    A float is NONNEGATIVE only at or above ``eps = scale * 2**(-prec/2)``,
    NEGATIVE only below ``-KAPPA*eps``, INDETERMINATE between; ``prec`` is
    ``precision`` (the bits of the inputs of ``x``) if given, else ``x.prec``.
    ``scale`` is a number or an ``(a, b)`` pair of ints for ``a/b``.
    """
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        v = Verdict.NONNEGATIVE if x >= 0 else Verdict.NEGATIVE
        return SignVerdict(v, abs(x))
    if isinstance(x, RationalFunction):
        if x.is_constant():
            return sign_decide(x.constant_value())
        raise DomainMismatch(
            "sign of a non-constant rational function; bind its symbols first")
    if isinstance(x, BigFloat):
        sign, man, exp, bc = x.value._mpf_
        if not man and exp:     # an infinity or NaN
            raise NonFinite(f"cannot decide sign of {x}")
        a, b = scale if isinstance(scale, tuple) else scale.as_integer_ratio()
        prec, v = precision or x.prec, Verdict.INDETERMINATE
        if not sign and _band_cmp(x, a, b, prec) >= 0:
            v = Verdict.NONNEGATIVE
        elif sign and _band_cmp(x, KAPPA * a, b, prec) > 0:
            v = Verdict.NEGATIVE
        return SignVerdict(v, BigFloat._exact(mpmath.mp.make_mpf((0, man, exp, bc)), x.prec))
    raise DomainMismatch(f"cannot decide sign of {type(x).__name__}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def bigfloat_str(x: BigFloat) -> str:
    """Lossless hex-float text ``[-]0x<mantissa>p<exp>@<bits>``."""
    sign, man, exp, _ = x.value._mpf_
    if man == 0:
        return f"0x0p+0@{x.prec}"
    body = f"0x{man:x}p{exp:+d}"
    return ("-" if sign else "") + body + f"@{x.prec}"


def parse_bigfloat(s: str) -> BigFloat:
    body, prec = s.rsplit("@", 1)
    man, exp = body.replace("0x", "", 1).split("p")  # a signed hex mantissa
    return BigFloat(mpmath.mp.make_mpf(from_man_exp(int(man, 16), int(exp))), int(prec))


def serialize_scalar(v) -> object:
    """Report form of a scalar: ``p/q`` rationals, lossless hex floats, text otherwise."""
    if v is None or isinstance(v, int):
        return v
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, BigFloat):
        return bigfloat_str(v)
    return str(v)
