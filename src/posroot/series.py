"""Truncated power series at 0 and their zero-counting reductions.

A series ``f(z) = a_0 + a_1 z + ... + a_N z^N`` with ``f(0) = 1`` is the
canonical product ``prod (1 - l_n z)`` of some absolutely summable sequence,
truncated.  Its coefficients encode the elementary symmetric values
(``e_k = (-1)**k a_k``) and its logarithmic derivative encodes the power
sums (``-f'/f = sum p_{k+1} z^k``); both extractions live here, giving a
second, independent route to the power sums besides the Newton recurrence.

Also here: Taylor shift ``f(z) -> f(z+c)`` by binomial convolution (exact or
real ``c``) and the reduction of an even series ``sum c_{2n} z^{2n}`` to
``sum c_{2n} z^n``, which maps an even entire function with zeros ``+-w_n``
to the genus-0 product over ``w_n**2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .scalars import (
    BigFloat,
    ScalarError,
    _band_cmp,
    _common_denominator,
)
from .symfun import (
    ElementarySequence,
    InsufficientCoefficients,
    PowerSumSequence,
    _domain_tag,
)

__all__ = [
    "TruncatedSeries",
    "NotNormalized",
    "NotEven",
    "elementary_from_series",
    "series_from_elementary",
    "log_derivative_series",
    "power_sums_from_log_derivative",
    "taylor_shift",
    "even_sqrt_reduce",
]


class NotNormalized(ScalarError):
    """The series does not satisfy a_0 == 1 where that is required."""


class NotEven(ScalarError):
    """An odd-index coefficient is significantly nonzero."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``a_0 .. a_N`` of a power series centered at 0."""

    coefficients: tuple
    domain: str

    def __init__(self, coefficients: Sequence):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise InsufficientCoefficients("empty coefficient list")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "domain", _domain_tag(coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, n: int):
        return self.coefficients[n]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial at ``z``."""
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * z + c
        return acc

    def require_normalized(self) -> None:
        if self.coefficients[0] != 1:
            raise NotNormalized(f"a_0 = {self.coefficients[0]} (expected 1)")

    def normalized(self) -> "TruncatedSeries":
        a0 = self.coefficients[0]
        if a0 == 1:
            return self
        if a0 == 0:
            raise NotNormalized("a_0 = 0 cannot be normalized away")
        return TruncatedSeries([c / a0 for c in self.coefficients])

    def derivative(self) -> "TruncatedSeries":
        if len(self.coefficients) == 1:
            return TruncatedSeries([self.coefficients[0] * 0])
        return TruncatedSeries(
            [c * (i + 1) for i, c in enumerate(self.coefficients[1:])])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to the shorter operand's order."""
        N = min(self.order, other.order)
        out = []
        for n in range(N + 1):
            acc = None
            for i in range(n + 1):
                t = self.coefficients[i] * other.coefficients[n - i]
                acc = t if acc is None else acc + t
            out.append(acc)
        return TruncatedSeries(out)


def elementary_from_series(f: TruncatedSeries) -> ElementarySequence:
    """``e_k = (-1)**k a_k`` for a normalized series (a_0 = 1)."""
    f.require_normalized()
    values = [Fraction(1)]
    for k, a in enumerate(f.coefficients[1:], start=1):
        values.append(a if k % 2 == 0 else -a)
    return ElementarySequence(values)


def series_from_elementary(e: ElementarySequence) -> TruncatedSeries:
    """Inverse of :func:`elementary_from_series`."""
    out = [Fraction(1)]
    for k in range(1, e.order + 1):
        v = e[k]
        out.append(v if k % 2 == 0 else -v)
    return TruncatedSeries(out)


def log_derivative_series(f: TruncatedSeries, N: int | None = None) -> TruncatedSeries:
    """Coefficients ``g_0 .. g_{N-1}`` of ``f'/f``, so ``g_k = -p_{k+1}``.

    Solved by convolution: ``g_n = a'_n - sum_{i<n} g_i a_{n-i}`` using
    ``a_0 = 1``.  Division-free apart from the unit leading coefficient,
    hence exact in exact domains.
    """
    f.require_normalized()
    if N is None:
        N = f.order
    if N > f.order:
        raise InsufficientCoefficients(
            f"series order {f.order} too small for {N} log-derivative terms")
    a = f.coefficients
    fprime = [a[i + 1] * (i + 1) for i in range(N)]
    g: list = []
    for n in range(N):
        acc = fprime[n]
        for i in range(n):
            acc = acc - g[i] * a[n - i]
        g.append(acc)
    return TruncatedSeries(g) if g else TruncatedSeries([Fraction(0)])


def power_sums_from_log_derivative(f: TruncatedSeries, K: int) -> PowerSumSequence:
    """``p_1 .. p_K`` read off from ``-f'/f``; independent of the Newton route."""
    if K < 1:
        raise ValueError("K must be positive")
    if K > f.order:
        raise InsufficientCoefficients(
            f"series order {f.order} too small for p_1..p_{K}")
    g = log_derivative_series(f, K)
    return PowerSumSequence([-g[k] for k in range(K)])


def taylor_shift(f: TruncatedSeries, c) -> TruncatedSeries:
    """Coefficients of ``g(w) = f(w + c)`` to the same truncation order.

    Binomial convolution: ``g_j = sum_{n>=j} a_n C(n, j) c**(n-j)``.
    """
    a = f.coefficients
    N = f.order
    powers = [BigFloat(1, c.prec) if isinstance(c, BigFloat) else Fraction(1)]
    for _ in range(N):
        powers.append(powers[-1] * c)
    out = []
    for j in range(N + 1):
        acc = None
        for n in range(j, N + 1):
            t = a[n] * comb(n, j) * powers[n - j]
            acc = t if acc is None else acc + t
        out.append(acc)
    return TruncatedSeries(out)


def even_sqrt_reduce(G: TruncatedSeries) -> TruncatedSeries:
    """Map an even series ``sum c_{2n} z^{2n}`` to ``sum c_{2n} z^n``.

    Odd-index coefficients must vanish: exactly in exact domains, below
    ``max(1, max|c|) * 2**(-prec/2)`` in the float domain.
    """
    coeffs = G.coefficients
    floats = [c for c in coeffs if isinstance(c, BigFloat)]
    if floats:
        prec = max(c.prec for c in floats)
        d, nums = _common_denominator(floats)
        scale = max(d, *map(abs, nums))
    for i in range(1, len(coeffs), 2):
        if coeffs[i] != 0 and not (floats and _band_cmp(coeffs[i], scale, d, prec) <= 0):
            raise NotEven(f"odd coefficient a_{i} = {coeffs[i]} exceeds tolerance")
    return TruncatedSeries(coeffs[0::2])
