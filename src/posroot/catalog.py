"""Catalog of genus-0 entire functions and their coefficient producers.

Each entry describes an entire function ``F(z) = prod (1 - z/z_n)`` whose
zeros ``z_n`` are the squared zeros of a classical special function (or the
zeros themselves for the naturally genus-0 cases).  Closed-form Taylor
coefficients exist for the sinc, Bessel, q-Bessel and Ramanujan products and
are produced exactly, over rational-function fields when parameters stay
symbolic.  The Airy product has a closed form involving Gamma values and is
produced in float mode only.  The completed Riemann and Dirichlet xi
functions and the modified Bessel function ``K_{iz}(a)`` have no closed
coefficient form; their even Taylor coefficients are moments

    b_{2n} = integral t^{2n} phi(t) dt

of an explicit fast-decaying kernel, computed here with an arbitrary
precision trapezoidal scheme.  Every kernel decays double-exponentially and
is analytic in a strip ``|Im t| < s``, so the trapezoid rule at step ``h``
errs by at most ``2M/(e^(2 pi s/h) - 1)`` (Trefethen & Weideman, SIAM Rev.
56(3), 2014, Thm 5.1), ``M`` bounding the integral of ``|t^(2n) phi|`` along
the strip's lines.  Low-precision Riemann sums bound ``M``, the truncation
tail and the moments; they choose the cut-off ``T`` and the final ``h`` before
any kernel value is computed, and the bound plus rounding is the recorded error.

The xi kernels are theta-type series.  Evaluated literally they suffer
catastrophic cancellation for ``t > 0`` (the terms are huge compared to the
double-exponentially small value), so production evaluation reflects to
``-|t|`` where all terms are tame; evenness of the kernels is not assumed
silently but verified numerically by ``*_evenness_defect`` helpers, which
evaluate the literal series on both sides at elevated working precision.
Both paths cost two exponentials per evaluation: ``E = e^{-t/2}`` gives
every power of ``e^{-t}`` needed (``e^{-2t} = E^4`` and the damping
factors), and ``q = e^{-pi E^4}`` (``e^{-pi E^4/m}`` for a character of
modulus ``m``) gives the Gaussian factors ``q^(n^2)`` by the recurrence

    w_1 = r_1 = q,   r_n = r_(n-1) q^2,   w_n = w_(n-1) r_n,

two multiplications per term in place of one exponential each.  The series
run in fixed-point Python ints: q and the coefficients become integers once,
the recurrence, the terms, their sum and the stopping test are integer
operations, and the sum becomes an ``mpf`` once; the error bound is in
``_theta_sum``.

The quadrature's node sums are exact integers.  The nodes are ``t_i = i h``
with ``h`` a double, so ``t_i^(2n) = h^(2n) i^(2n)``: each kernel value becomes
one fixed-point integer ``W_i = round(w_i 2^F)``, the sums ``S_n = sum W_i
i^(2n)`` run in Python ints, and one scaling by ``h^(2n+1) 2^-F`` per moment
gives the trapezoid sum.  Three roundings are left: the kernel values, their
conversion to ``W_i`` and that final scaling (``_even_line_moments``).

For the Dirichlet kernel with an odd character the widely printed exponent
``-(1+a)t/2`` fails that evenness check; the exponent ``-(2a+1)t/2`` that
follows from the theta functional equation passes it and is what this module
uses.  The choice is recorded in the moment metadata.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import (
    from_man_exp,
    mpf_mul_int,
    mpf_pos,
    mpf_shift,
    round_ceiling,
    round_nearest,
    to_int,
)

from .characters import DirichletCharacter, kronecker_character
from .scalars import (
    BigFloat,
    DEFAULT_PRECISION_BITS,
    RationalFunction,
    ScalarError,
    _to_mp,
)
from .series import TruncatedSeries
from .symfun import ElementarySequence

__all__ = [
    "FunctionKind",
    "FunctionSpec",
    "MOMENT_KINDS",
    "MomentResult",
    "GridConfig",
    "ScanReport",
    "QuadratureNotConverged",
    "PoleAtParameter",
    "sinc_coeffs",
    "bessel_coeffs",
    "qbessel_coeffs",
    "ramanujan_aq_coeffs",
    "airy_coeffs",
    "airy_raw_coefficient",
    "besselk_moments",
    "riemann_phi",
    "riemann_moments",
    "dirichlet_phi",
    "dirichlet_moments",
    "phi_nonneg_scan",
    "riemann_evenness_defect",
    "dirichlet_evenness_defect",
    "elementary_from_moments",
    "reduced_series_from_moments",
    "even_series_from_moments",
    "sinc_even_series",
    "kronecker_character",
]


_make_mpf = mpmath.mp.make_mpf


class QuadratureNotConverged(ScalarError):
    """The trapezoid error bound misses the target tolerance, or a check of it fails."""


class PoleAtParameter(ScalarError):
    """A coefficient formula hits a pole at the requested parameter."""


# ---------------------------------------------------------------------------
# exact coefficient families
# ---------------------------------------------------------------------------


def sinc_coeffs(K: int) -> ElementarySequence:
    """e_k = t^k / (2k+1)! over Q(t) with t standing for pi**2.

    These are the elementary symmetric values of {1/n**2}: the reduced sinc
    product ``prod (1 - z/n**2)`` has Taylor coefficients ``(-1)^k e_k``.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    t = RationalFunction.variable(("t",), "t")
    one = RationalFunction.constant(("t",), 1)
    values = [one]
    for k in range(1, K + 1):
        values.append(t ** k * Fraction(1, factorial(2 * k + 1)))
    return ElementarySequence(values)


def _field(*symbols):
    """The one and the variables of Q(symbols)."""
    return (RationalFunction.constant(symbols, 1),
            *(RationalFunction.variable(symbols, s) for s in symbols))


def bessel_coeffs(nu, K: int) -> ElementarySequence:
    """e_k = 1 / (k! 4^k (nu+1)_k); symbolic over Q(nu) when ``nu`` is None.

    Elementary symmetric values of the squared-reciprocal Bessel zeros
    {1/j_{nu,k}**2}.  A rational ``nu`` gives exact rationals; ``nu <= -1``
    rational hits a Pochhammer pole.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if nu is None:
        one, nu = _field("nu")
    else:
        one, nu = Fraction(1), Fraction(nu)
        if nu <= -1:
            raise PoleAtParameter(f"nu = {nu} <= -1")
    values = [one]
    poch = one
    for k in range(1, K + 1):
        poch = poch * (nu + k)
        values.append(Fraction(1, factorial(k) * 4 ** k) / poch)
    return ElementarySequence(values)


def qbessel_coeffs(q, nu, K: int) -> ElementarySequence:
    """e_k = q^(k^2) t^k / ((q;q)_k (q t;q)_k 4^k) with t = q^nu.

    Symbolic over Q(q, t_nu) when ``q`` is None (``t_nu`` is the single
    transcendental ``q**nu``).  Numeric mode needs rational ``q`` in (0,1)
    and integer ``nu >= 0`` so that ``q**nu`` stays rational.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if q is None:
        one, q, t = _field("q", "t_nu")
    else:
        one, q = Fraction(1), Fraction(q)
        if not 0 < q < 1:
            raise ValueError(f"q = {q} outside (0,1)")
        if nu != int(nu) or nu < 0:
            raise ValueError("numeric q-Bessel mode needs integer nu >= 0 to stay rational")
        t = q ** int(nu)
    values = [one]
    poch_q = one    # (q;q)_k
    poch_qt = one   # (q t;q)_k
    for k in range(1, K + 1):
        poch_q = poch_q * (one - q ** k)
        poch_qt = poch_qt * (one - q ** k * t)
        num = q ** (k * k) * t ** k
        values.append(num / (poch_q * poch_qt * Fraction(4 ** k)))
    return ElementarySequence(values)


def ramanujan_aq_coeffs(q, K: int) -> ElementarySequence:
    """e_k = q^(k^2) / (q;q)_k over Q(q); exact rationals for rational q."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    if q is None:
        one, q = _field("q")
    else:
        one, q = Fraction(1), Fraction(q)
        if not 0 < q < 1:
            raise ValueError(f"q = {q} outside (0,1)")
    values = [one]
    poch = one
    for k in range(1, K + 1):
        poch = poch * (one - q ** k)
        values.append(q ** (k * k) / poch)
    return ElementarySequence(values)


# ---------------------------------------------------------------------------
# Airy product (float only)
# ---------------------------------------------------------------------------


def airy_raw_coefficient(n: int, precision: int) -> BigFloat:
    """Unnormalized Airy-product coefficient a_n (a_0 evaluates to 2*pi).

    a_n = sqrt(3) G(2/3)^2 / (4^(1/3) pi) * 16^(n/3) G(n/3+1/6) G(n/3+1/2) / (2n)!
    """
    with workprec(precision + 32):
        g = mpmath.gamma
        pref = mpmath.sqrt(3) * g(mpf(2) / 3) ** 2 / (mpf(4) ** (mpf(1) / 3) * mpmath.pi)
        v = pref * mpf(16) ** (mpf(n) / 3) * g(mpf(n) / 3 + mpf(1) / 6) \
            * g(mpf(n) / 3 + mpf(1) / 2) / mpmath.factorial(2 * n)
        return BigFloat(v, precision)


def airy_coeffs(K: int, precision: int = DEFAULT_PRECISION_BITS) -> ElementarySequence:
    """Normalized Airy-product elementary values e_k = a_k / a_0 (floats).

    The closed form for a_n does not have a_0 = 1, so the series is
    normalized by a_0 before use; tests pin a_0 = 2*pi and a_1/a_0 =
    pi^2/Gamma(1/3)^4 numerically.
    """
    a0 = airy_raw_coefficient(0, precision + 32)
    values: list = [Fraction(1)]
    for k in range(1, K + 1):
        ak = airy_raw_coefficient(k, precision + 32)
        with workprec(precision + 32):
            values.append(BigFloat(ak.value / a0.value, precision))
    return ElementarySequence(values)


# ---------------------------------------------------------------------------
# trapezoidal moment quadrature on the line
# ---------------------------------------------------------------------------


_QUAD_GUARD_BITS = 64              # working bits of the quadrature above the target precision
_H0 = 0.25                         # the widest node spacing the tail bound covers
_H_FLOOR_SCALE = 2 ** -9           # the least spacing, as a share of the majorant's cell
_THETA_TERMS = 200000              # cap on theta series terms per kernel value
_THETA_GUARD = 32                  # fixed-point bits of the theta sums above the working precision


@dataclass(frozen=True)
class MomentResult:
    """Even moments b_0, b_2, .., b_{2K} with quadrature metadata."""

    values: tuple          # BigFloat b_{2n}, n = 0..K
    errors: tuple          # bound on |values[n] - b_{2n}| per moment (BigFloat)
    metadata: dict

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> BigFloat:
        """b_{2n}."""
        return self.values[n]

    @property
    def precision(self) -> int:
        return self.metadata["precision_bits"]


# ---------------------------------------------------------------------------
# a priori strip bound of the trapezoid error
# ---------------------------------------------------------------------------

_CELL = 1 / 32      # widest cell of the bound's Riemann sums
_DECAY = 16         # the sums stop where every log-integrand falls at rate _DECAY _CELL/cell
_LN2 = math.log(2)
_SLACK = 2.0 ** -10   # log of the factor that covers the bound sums' double rounding
_T_STEP = 1 / 16    # grid of the truncation point T
_T_SPARE = 16       # bits by which the tail at T undercuts every moment's goal


def _lse(logs) -> float:
    """``log sum exp(l)`` over ``logs``; ``-inf`` for none."""
    top = max(logs, default=-math.inf)
    return top if top == -math.inf else top + math.log(sum(math.exp(l - top) for l in logs))


@dataclass(frozen=True)
class _ThetaMajorant:
    """Log bounds on a tame-side theta kernel ``sum_k a_k(x) e^(-mu k^2 e^(2x))``, x >= 0:
    ``k^d A_1 e^(alpha x) <= a_k(x) <= k^d A e^(alpha x)`` where ``sign(k) > 0``,
    ``|a_k(x)| <= k^d A e^(alpha x)`` where ``sign(k) < 0``, ``a_k = 0`` elsewhere.
    At ``x + ib``, ``|e^(-mu k^2 e^(2(x+ib)))| = e^(-mu k^2 e^(2x) cos 2b)``.
    """

    log_amp: float                          # log A
    log_first: float                        # log A_1, A_1 > 0
    alpha: float
    d: int
    mu: float
    sign: Callable[[int], int] = lambda k: 1
    s = 0.75                                # strip half-width, below pi/4
    c = math.cos(2 * s)                     # the least cos 2b on the strip
    cell = _CELL                            # cell width of the bound sums

    def _sums(self, X):
        """Logs of the sums of ``k^d e^(-X k^2)`` over sign(k) > 0 and over sign(k) < 0
        plus the rest; the terms' ratio bound ``(1 + 1/k)^d e^(-X(2k+1))`` falls in k."""
        pos, neg, top, k = [], [], -math.inf, 1
        while True:
            b = self.d * math.log(k) - X * k * k
            top, sign = max(top, b), self.sign(k)
            (pos if sign > 0 else neg if sign else []).append(b)
            r = self.d * math.log1p(1 / k) - X * (2 * k + 1)
            if r < -1 and b < top - 40:
                return _lse(pos), _lse(neg + [b + r - math.log(-math.expm1(r))])
            k += 1

    def upper(self, lo, hi, c):
        """Bound on ``|phi(x + ib)|`` for lo <= x <= hi, |b| <= s (c = self.c) or b = 0 (c = 1)."""
        return self.log_amp + self.alpha * hi + _lse(self._sums(c * self.mu * math.exp(2 * lo)))

    def lower(self, lo, hi):
        """``(P, N)`` with ``phi(x) >= e^P - e^N`` for lo <= x <= hi."""
        return (self.log_first + self.alpha * lo + self._sums(self.mu * math.exp(2 * hi))[0],
                self.log_amp + self.alpha * hi + self._sums(self.mu * math.exp(2 * lo))[1])

    def slope(self, x, c):
        """Bound on the rate of ``upper`` beyond x."""
        return self.alpha - 2 * c * self.mu * math.exp(2 * x)


@dataclass(frozen=True)
class _BesselKMajorant:
    """Log bounds on ``e^(-a cosh x)``: ``|e^(-a cosh(x + ib))| = e^(-a cos(b) cosh x)``.

    The strip half-width ``s`` is 1.4 (below pi/2) or, at large ``a``, the width
    where ``M`` outgrows the moments by ``e^(a (1 - cos s)) ~ e^(a s^2/2) =
    2^(precision+8)``, the factor the goals ask for: a wider strip costs more in
    ``M`` than it gains in ``2 pi s/h``.
    """

    a: float
    precision: int

    @property
    def s(self):
        return min(1.4, math.sqrt(2 * (self.precision + 8) * _LN2 / self.a))

    @property
    def c(self):
        return math.cos(self.s)

    @property
    def cell(self):
        """Cells of a quarter of the kernel's width ``1/sqrt(a)``, at most ``_CELL``."""
        return min(_CELL, 1 / (4 * math.sqrt(self.a)))

    def upper(self, lo, hi, c):
        return -self.a * c * math.cosh(lo)

    def lower(self, lo, hi):
        return -self.a * math.cosh(hi), -math.inf

    def slope(self, x, c):
        return -self.a * c * math.sinh(x)


def _strip_bounds(maj, K: int, precision: int):
    """``T`` and logs ``(M, tail, goal)`` per n = 0..K for ``g_n(z) = z^(2n) phi(z)``,
    phi even: ``M[n]`` bounds the integral of ``|g_n(x + ib)|`` over x for ``|b| <=
    maj.s``, ``tail[n]`` is ``_tail`` at ``T``, and ``goal[n]`` is ``2^-(precision+8)``
    times a lower bound of the integral of ``g_n``.  Sums over cells of width
    ``maj.cell`` take the majorant (with ``|z|^(2n) <= (x^2 + s^2)^n``, rising at rate
    ``2n/x`` at most) at its worst and the minorant at its least, up to the first
    edge X beyond which every log-integrand falls at rate ``decay = _DECAY
    _CELL/maj.cell``, plus ``g_n(X)/decay``.  ``T`` is the first multiple of
    ``_T_STEP`` whose tail is ``_T_SPARE`` bits under every goal.  Double precision."""
    s, w = maj.s, maj.cell
    decay = _DECAY * _CELL / w
    strip, cells, X = [], [], 0.0
    while X == 0 or maj.slope(X, maj.c) + 2 * K / X > -decay:
        hi = X + w   # (log at n = 0, log of the n-th root) of a strip term
        strip.append((math.log(w) + maj.upper(X, hi, maj.c), math.log(hi * hi + s * s)))
        cells.append((*maj.lower(X, hi), math.log(X) if X else -math.inf, math.log(hi)))
        X = hi
    # beyond X the integrals are at most the integrands at X over decay
    end, end_real = (maj.upper(X, X, c) - math.log(decay) for c in (maj.c, 1.0))
    strip.append((end, math.log(X * X + s * s)))
    M, goal = [], []
    for n in range(K + 1):
        M.append(_LN2 + _SLACK + _lse([a + n * b for a, b in strip]))
        m = 2 * n + 1       # J: logs of the cells' integrals of x^(2n)
        J = [m * hi + math.log1p(-math.exp(m * (lo - hi))) - math.log(m) for *_, lo, hi in cells]
        P = _lse([p + j for (p, _, _, _), j in zip(cells, J)])
        N = _lse([q + j for (_, q, _, _), j in zip(cells, J)] + [end_real + 2 * n * math.log(X)])
        if N >= P:
            raise QuadratureNotConverged(f"no positive lower bound of b_{2 * n}")
        goal.append(P + math.log(-math.expm1(N - P)) + _LN2 - _SLACK - (precision + 8) * _LN2)
    T = _T_STEP
    while any(t > g - _T_SPARE * _LN2 for t, g in zip(_tail(maj, K, T), goal)):
        T += _T_STEP
    return T, M, _tail(maj, K, T), goal


def _tail(maj, K: int, T: float):
    """Logs of bounds on ``h sum |g_n(ih)|`` over ``|ih| > T`` for ``h <= _H0``, n =
    0..K; ``+inf`` where the integrand may not fall at rate 1 beyond T."""
    if maj.slope(T, 1.0) + 2 * K / T > -1:
        return [math.inf] * (K + 1)
    t0 = maj.upper(T, T, 1.0) + math.log(_H0 / -math.expm1(-_H0)) + _LN2 + _SLACK
    return [t0 + 2 * n * math.log(T) for n in range(K + 1)]


def _fixed_point(x, F: int) -> int:
    """``x 2^F`` rounded to the nearest integer, ties to even, for a finite libmp tuple."""
    return to_int(mpf_shift(x, F), round_nearest)


def _node_sums(kernel, hm, nodes: int, K: int, F: int):
    """``S_n = sum c_i W_i i^(2n)``, n = 0..K, over the even and over the odd i <
    nodes, as lists of ints: ``W_i = round(kernel(i h) 2^F)`` (``_fixed_point``) and
    ``c_i`` is 1 at i = 0 and 2 beyond.  ``hm`` is h as a libmp tuple; the node
    ``i h`` is exact, and the kernel runs at the ambient precision."""
    sums = ([0] * (K + 1), [0] * (K + 1))
    for i in range(nodes):
        w = kernel(_make_mpf(mpf_mul_int(hm, i, mpmath.mp.prec, round_nearest)))
        v, add, i2 = (2 if i else 1) * _fixed_point(w._mpf_, F), sums[i & 1], i * i
        for n in range(K + 1):
            add[n] += v
            v *= i2
    return sums


def _even_line_moments(kernel: Callable[[object], object], K: int, precision: int,
                       kernel_name: str, majorant) -> MomentResult:
    """integral t^{2n} f(t) dt over the whole line, n = 0..K, f even.

    ``kernel(t)`` is evaluated for t >= 0 only, at the ambient mpmath
    precision; ``majorant`` bounds it and gives ``T`` (``_strip_bounds``).  The
    spacing h is the largest the strip bound allows, tail included: with ``y =
    2 pi s/h`` and ``D = log(e^goal - e^tail) - M < 0``, moment n needs
    ``2/(e^y - 1) <= e^D``, that is ``y >= -D + log(2 + e^D)``.  Shrunk by
    ``2^-20`` for double rounding and checked again before any kernel value, h
    is at most ``_H0/2``, so that the check spacing 2h stays within the tail
    bound's ``h <= _H0``.  One grid ``i h``, i = 0..floor(T/h), gives ``T_h``
    and, from its even i, ``T_2h``.  If h is finer than ``_H_FLOOR_SCALE`` times
    the majorant's cell (2^-14 for the theta kernels), or if
    ``|T_h - T_2h|`` exceeds the two spacings' bounds plus rounding, this
    raises ``QuadratureNotConverged``.

    The node sums are exact integers (``_node_sums``): ``T_h = h^(2n+1) 2^-F
    S_n`` with ``S_n = sum c_i W_i i^(2n)``, ``W_i = round(f(i h) 2^F)``.  The
    error, rounded up to 53 bits, bounds ``|values[n] - b_2n|``: the strip
    bound at h, half an ulp of ``values[n]`` for its rounding to ``precision``
    bits (so the error does not follow the last bits of ``T_h``) and
    ``2^-(precision+16) |T_h|`` for the three roundings left in ``T_h``:

    - the kernel values, each of one sign and within ``2^-(precision+22)`` of
      its size: the theta series stop at ``2^-(precision+24)`` of their
      largest term plus partial sum (the first term dominates on the tame
      side), and their rounding at 64 bits above the target (``_theta_sum``,
      X = ``e^(2t)``, terms' total size under 3 values) stays under
      ``2^-(precision+40)`` while ``N^2 X < 2^16``: the stop keeps ``(N-1)^2 X``
      under ``0.23 (precision + 24) + X + 1.3 ln N``;
    - the conversion to ``W_i``, ``2^-(F+1)`` per node: F puts ``nodes 2h
      T^(2n) 2^-(F+1)`` at least ``2^-(precision+40)`` under every moment's
      lower bound (``2^(precision+8) e^goal``);
    - the final scaling, one rounding to the working precision, 64 bits
      above the target.
    """
    wp = precision + _QUAD_GUARD_BITS
    T, log_M, log_tail, goal = _strip_bounds(majorant, K, precision)

    def bound(h):           # logs of the strip bound plus the tail at spacing h
        y = 2 * math.pi * majorant.s / h
        disc = _LN2 - y - math.log(-math.expm1(-y))     # log 2/(e^y - 1)
        return [_lse([disc + m, t]) for m, t in zip(log_M, log_tail)]

    D = [g + math.log(-math.expm1(t - g)) - m for m, t, g in zip(log_M, log_tail, goal)]
    y = max(-d + math.log(2 + math.exp(d)) for d in D)
    h = min(_H0 / 2, 2 * math.pi * majorant.s / y * (1 - 2 ** -20))
    floor = majorant.cell * _H_FLOOR_SCALE
    if h < floor:
        raise QuadratureNotConverged(f"{kernel_name}: the strip bound asks for a spacing "
                                     f"{h} below the floor {floor}")
    if any(b > g for b, g in zip(bound(h), goal)):
        raise QuadratureNotConverged(f"{kernel_name}: the strip bound misses the target at {h}")

    with workprec(wp):
        hm, nodes = mpf(h)._mpf_, int(mpmath.floor(mpf(T) / h)) + 1
        # the W_i's roundings, nodes 2h T^(2n) 2^-(F+1) at most, stay 2^-(precision+40)
        # under b_2n's lower bound e^(goal+SLACK) 2^(precision+8); one spare bit
        # covers the logs' double rounding
        F = 32 + math.ceil(max(math.log(2 * nodes * h) + 2 * n * math.log(T) - g - _SLACK
                               for n, g in enumerate(goal)) / _LN2)
        # T_2h = 2 h^(2n+1) 2^-F S_even and T_h = h^(2n+1) 2^-F S_all, h = m 2^e exactly
        _, m, e, _ = hm
        I_prev, I = [], []
        for n, (even, odd) in enumerate(zip(*_node_sums(kernel, hm, nodes, K, F))):
            scale, exp = m ** (2 * n + 1), e * (2 * n + 1) - F
            I_prev.append(_make_mpf(from_man_exp(2 * even * scale, exp, wp, round_nearest)))
            I.append(_make_mpf(from_man_exp((even + odd) * scale, exp, wp, round_nearest)))
        values = tuple(BigFloat(v, precision) for v in I)
        # e^b = 2^(b // ln 2) e^(b % ln 2), also below the float range
        at_h, at_2h = ([mpmath.ldexp(math.exp(b % _LN2), int(b // _LN2)) for b in bound(g)]
                       for g in (h, 2 * h))
        errs = []
        for n in range(K + 1):
            allowance = abs(I[n]) * mpf(2) ** -(precision + 16)
            if abs(I[n] - I_prev[n]) > at_h[n] + at_2h[n] + 2 * allowance:
                raise QuadratureNotConverged(
                    f"{kernel_name}: |T_h - T_2h| of b_{2 * n} exceeds its strip bound")
            _, man, exp, bc = values[n].value._mpf_     # I[n] rounded to nearest
            half_ulp = mpmath.ldexp(1, exp + bc - precision - 1) if man else 0
            err = (at_h[n] + allowance + half_ulp)._mpf_
            errs.append(BigFloat(_make_mpf(mpf_pos(err, 53, round_ceiling)), precision))
    meta = {"kernel": kernel_name, "precision_bits": precision, "T": float(T),
            "h_final": h, "levels_used": 1, "nodes": nodes, "orders": K}
    return MomentResult(values=values, errors=tuple(errs), metadata=meta)


# ---------------------------------------------------------------------------
# Riemann xi kernel
# ---------------------------------------------------------------------------


def _theta_sum(q, coeffs, eps_bits: int):
    """``(acc, S, N)``: ``acc 2^-S`` sums ``c_n q^(n^2)``, n = 1..N, in Python ints.

    ``coeffs`` yields the integers ``c_n`` (a zero skips its term); the sum
    stops at the first N whose term is below the one before it and at most
    ``2^-eps_bits`` of the largest term plus the partial sum.  ``Q = q 2^S``
    holds q (an ``mpf`` in (0, 1)) exactly with ``P = mp.prec + _THETA_GUARD``
    bits, and ``w_1 = r_1 = Q``, ``r_n = r_(n-1) Q^2``, ``w_n = w_(n-1) r_n``
    shift each product down by S.  A shift drops under one unit, so ``R_n``
    and ``W_n`` lie at most ``2(n-1)`` and ``n^2 - 1`` units under ``r_n 2^S``
    and ``q^(n^2) 2^S``, a unit being at most ``2q 2^-P``; terms, sum and stop
    test are exact.  So ``|c_n| <= C n^d`` gives ``|acc 2^-S - sum c_n
    q^(n^2)| <= 2 C q N^(d+3) 2^-P``.

    With their inputs rounded at ``u = 2^-mp.prec`` (E and ``X = E^4`` within 2
    and 10 ulps, q within ``13 pi X + 2`` and ``q^(n^2)`` within ``n^2`` times
    that, the Riemann A and B within 26, the Dirichlet damping within 10, one
    rounding back to ``mpf``) the kernels' values are, to first order in u,
    within ``(N^2 (48 X + 32) + 2^(1 - _THETA_GUARD) N^7) u S`` of their N-term
    partial sums at the exact t, with ``X = e^(-2t)`` and S the sum of the
    terms' sizes, their parts taken positive: ``(A n^4 + B n^2) q^(n^2)``
    (Riemann), ``2 e^(-ct) n^a q^(n^2)`` (Dirichlet).
    """
    _, man, exp, bc = q._mpf_
    P = mpmath.mp.prec + _THETA_GUARD
    S = P - exp - bc
    r = w = man << P - bc
    q2 = r * r >> S
    acc = top = 0
    prev = None
    for n, c in zip(range(1, _THETA_TERMS + 1), coeffs):
        if c:
            term = c * w
            acc += term
            at = abs(term)
            if at > top:
                top = at
            # at <= (top + |acc|) 2^-eps_bits, exactly, for an integer at
            if prev is not None and at < prev and at <= (top + abs(acc)) >> eps_bits:
                return acc, S, n
            prev = at
        r = r * q2 >> S
        w = w * r >> S
    raise QuadratureNotConverged(f"theta series did not converge in {_THETA_TERMS} terms")


def _kernel_value(terms, t, precision: int, use_evenness: bool, modulus: int = 1) -> BigFloat:
    """A theta kernel at real ``t`` from ``terms(t, eps_bits) -> (value, n)``.

    With ``use_evenness`` the series is summed at ``-|t|``, where all terms
    are tame; the literal signed evaluation raises the working precision by
    the estimated cancellation ``~ pi e^{2t} / (m ln 2)`` bits for a kernel
    whose Gaussian factors are ``e^{-n^2 pi e^{-2t}/m}`` (``m = 1``: Riemann).
    """
    boost = 0
    if not use_evenness and float(t) > 0:
        boost = int(math.pi * math.exp(2 * float(t)) / (modulus * math.log(2))) + 64
        if boost > 1 << 20:
            raise ValueError(f"literal evaluation at t={float(t)} needs >1M bits; use evenness")
    wp = precision + 48 + boost
    with workprec(wp):
        tv = _to_mp(t, wp)
        v, _ = terms(-abs(tv) if use_evenness else tv, precision + 16 + boost)
        return BigFloat(v, precision)


def _theta_moments(terms, majorant, K, precision, name) -> MomentResult:
    """Moments of the theta kernel of ``terms``, its series summed at ``-t`` (tame terms)."""
    mr = _even_line_moments(lambda t: terms(-t, precision + 24)[0], K, precision, name,
                            majorant)
    mr.metadata["variant"] = "theta-even"
    return mr


def _evenness_defect(phi, t, precision: int) -> BigFloat:
    """``|phi(t) - phi(-t)|`` from ``phi(t, precision)`` evaluated literally."""
    a = phi(t, precision + 16)
    b = phi(-t, precision + 16)
    return BigFloat(abs((a - b).value), precision)


def _riemann_kernel_terms(t, eps_bits: int):
    """Literal theta-series kernel value at real t (terms may cancel) and its term count.

    phi(t) = sum_n (A n^4 - B n^2) e^{-n^2 pi e^{-2t}},  A = 4 pi^2 e^{-9t/2},  B = 6 pi e^{-5t/2}

    Two exponentials: ``E = e^{-t/2}`` gives the powers of ``e^{-t}``, and
    ``q = e^{-pi E^4}`` gives every ``e^{-n^2 pi e^{-2t}} = q^(n^2)``.  A and B
    become exact integers at their common binary exponent, and ``_theta_sum``
    (which states the error) sums the series.
    """
    E = mpmath.exp(-t / 2)
    q = mpmath.exp(-mpmath.pi * E ** 4)
    twopi = 2 * mpmath.pi
    (_, a, ea, _), (_, b, eb, _) = (twopi * twopi * E ** 9)._mpf_, (3 * twopi * E ** 5)._mpf_
    e = min(ea, eb)
    a, b = a << ea - e, b << eb - e
    acc, S, n = _theta_sum(q, (k * k * (a * k * k - b) for k in itertools.count(1)), eps_bits)
    return _make_mpf(from_man_exp(acc, e - S, mpmath.mp.prec, round_nearest)), n


def riemann_phi(
    t,
    precision: int = DEFAULT_PRECISION_BITS,
    use_evenness: bool = True,
) -> BigFloat:
    """Fourier kernel of the completed Riemann xi function at real ``t``.

    With ``use_evenness`` (the default) the series is evaluated at ``-|t|``
    where all terms are positive; the literal signed evaluation
    (``use_evenness=False``) raises the working precision by the estimated
    cancellation ``~ pi e^{2t} / ln 2`` bits and is what the evenness
    self-check exercises.
    """
    return _kernel_value(_riemann_kernel_terms, t, precision, use_evenness)


def riemann_evenness_defect(t, precision: int = DEFAULT_PRECISION_BITS) -> BigFloat:
    """|phi(t) - phi(-t)| with both sides evaluated literally."""
    return _evenness_defect(lambda s, p: riemann_phi(s, p, use_evenness=False), t, precision)


# the Riemann terms a_k(x) = 2 pi (2 pi k^4 e^(9x/2) - 3 k^2 e^(5x/2)) at x >= 0 lie
# between k^4 2 pi (2 pi -+ 3) e^(9x/2)
_RIEMANN_MAJORANT = _ThetaMajorant(math.log(2 * math.pi * (2 * math.pi + 3)),
                                   math.log(2 * math.pi * (2 * math.pi - 3)), 4.5, 4, math.pi)


def riemann_moments(
    K: int,
    precision: int = DEFAULT_PRECISION_BITS,
) -> MomentResult:
    """Even moments b_{2n} of the xi kernel, n = 0..K."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    return _theta_moments(_riemann_kernel_terms, _RIEMANN_MAJORANT, K, precision, "riemann_xi")


# ---------------------------------------------------------------------------
# Dirichlet xi kernel
# ---------------------------------------------------------------------------


def _dirichlet_kernel_terms(t, chi: DirichletCharacter, two_c: int, eps_bits: int):
    """Literal character theta kernel at real t and its term count.

    phi(t, chi) = sum_{n != 0} n^a chi(n) exp(-n^2 pi e^{-2t}/m - c t)
    with c = two_c / 2; the two halves n and -n coincide, giving factor 2.
    As in the Riemann kernel, ``E = e^{-t/2}`` gives ``e^{-2t} = E^4`` and the
    damping ``e^{-ct} = E^(2c)``, and ``q = e^{-pi E^4/m}`` gives every
    Gaussian factor ``q^(n^2)`` (advanced also where chi(n) = 0); the integer
    coefficients ``n^a chi(n)`` go to ``_theta_sum``.
    """
    E = mpmath.exp(-t / 2)
    q = mpmath.exp(-mpmath.pi * E ** 4 / chi.modulus)
    acc, S, n = _theta_sum(q, (k ** chi.parity * chi(k) for k in itertools.count(1)),
                           eps_bits)
    return 2 * E ** two_c * _make_mpf(from_man_exp(acc, -S, mpmath.mp.prec, round_nearest)), n


def _character_terms(chi: DirichletCharacter, two_c: int):
    """``_dirichlet_kernel_terms`` at one character and damping, as ``terms(t, eps_bits)``."""
    return lambda t, eps_bits: _dirichlet_kernel_terms(t, chi, two_c, eps_bits)


def dirichlet_phi(
    t,
    chi: DirichletCharacter,
    precision: int = DEFAULT_PRECISION_BITS,
    use_evenness: bool = True,
    printed_exponent: bool = False,
) -> BigFloat:
    """Fourier kernel of the completed Dirichlet L function at real ``t``.

    The decay exponent in ``t`` is ``(2a+1)/2`` (the variant that passes the
    evenness self-check for both parities).  ``printed_exponent=True``
    selects ``(1+a)/2`` instead, which differs only for odd characters and
    demonstrably breaks evenness; it exists for the self-check.
    """
    two_c = 1 + chi.parity if printed_exponent else 2 * chi.parity + 1
    return _kernel_value(_character_terms(chi, two_c), t, precision, use_evenness, chi.modulus)


def dirichlet_evenness_defect(
    t,
    chi: DirichletCharacter,
    precision: int = DEFAULT_PRECISION_BITS,
    printed_exponent: bool = False,
) -> BigFloat:
    """|phi(t,chi) - phi(-t,chi)| with literal evaluation on both sides."""
    return _evenness_defect(
        lambda s, p: dirichlet_phi(s, chi, p, use_evenness=False,
                                   printed_exponent=printed_exponent), t, precision)


def dirichlet_moments(
    chi: DirichletCharacter,
    K: int,
    precision: int = DEFAULT_PRECISION_BITS,
    scan: Optional["ScanReport"] = None,
) -> MomentResult:
    """Even moments b_{2n}(chi) of the character kernel, n = 0..K.

    If a nonnegativity scan is supplied its outcome is recorded; a failed
    scan flags the moments instead of refusing to compute them.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    majorant = _ThetaMajorant(math.log(2), math.log(2), chi.parity + 0.5, chi.parity,
                              math.pi / chi.modulus, chi)
    mr = _theta_moments(_character_terms(chi, 2 * chi.parity + 1), majorant, K, precision,
                        f"dirichlet_xi[{chi.label}]")
    mr.metadata["modulus"] = chi.modulus
    mr.metadata["parity"] = chi.parity
    if scan is not None:
        mr.metadata["scan_passed"] = scan.passed
        if not scan.passed:
            mr.metadata["scan_flag"] = "kernel nonnegativity scan FAILED; moments unreliable"
    return mr


# ---------------------------------------------------------------------------
# modified Bessel K kernel
# ---------------------------------------------------------------------------


def besselk_moments(
    a,
    K: int,
    precision: int = DEFAULT_PRECISION_BITS,
) -> MomentResult:
    """c_{2n} = integral_0^inf u^{2n} e^{-a cosh u} du, n = 0..K (a > 0).

    These give the even Taylor coefficients of K_{iz}(a) around z = 0:
    K_{iz}(a) = sum (-1)^n c_{2n} z^{2n} / (2n)!.
    """
    af = float(a)
    if af <= 0:
        raise ValueError("a must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    if isinstance(a, BigFloat):
        a_num, a_den = a.value, 1
    else:
        a_frac = Fraction(a)
        a_num, a_den = a_frac.numerator, a_frac.denominator
    with workprec(precision + _QUAD_GUARD_BITS):
        neg_a = -(mpf(a_num) / a_den)

    def kernel(u):
        return mpmath.exp(neg_a * mpmath.cosh(u))

    mr = _even_line_moments(kernel, K, precision, f"bessel_k[a={af}]",
                            _BesselKMajorant(af, precision))
    # kernel integral was over the whole line; these moments are half-line
    with workprec(precision + 8):
        values = tuple(BigFloat(v.value / 2, precision) for v in mr.values)
        errors = tuple(BigFloat(e.value / 2, precision) for e in mr.errors)
    mr.metadata["a"] = af
    return MomentResult(values=values, errors=errors, metadata=mr.metadata)


# ---------------------------------------------------------------------------
# kernel nonnegativity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    t_max: float = 6.0
    points: int = 10001


@dataclass(frozen=True)
class ScanReport:
    passed: bool
    min_value: BigFloat
    argmin: float
    t_max: float
    points: int
    label: str

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_value": str(self.min_value),
            "argmin": self.argmin,
            "t_max": self.t_max,
            "points": self.points,
            "label": self.label,
        }


def phi_nonneg_scan(
    chi: DirichletCharacter,
    grid: GridConfig = GridConfig(),
    precision: int = 128,
) -> ScanReport:
    """Evaluate the character kernel on a dense grid of [0, t_max].

    Evenness covers negative t.  A PASS (no negative value) is grid evidence
    for the kernel-nonnegativity assumption, never a proof.
    """
    if grid.points < 2:
        raise ValueError(f"a scan needs at least 2 points, not {grid.points}")
    if not 0 < grid.t_max < math.inf:
        raise ValueError(f"t_max = {grid.t_max} must be positive and finite")
    step = grid.t_max / (grid.points - 1)
    # min keeps the first of equal values
    best, best_t = min(((dirichlet_phi(i * step, chi, precision), i * step)
                        for i in range(grid.points)), key=lambda pair: pair[0])
    return ScanReport(passed=bool(best >= 0), min_value=best, argmin=best_t,
                      t_max=grid.t_max, points=grid.points, label=chi.label)


# ---------------------------------------------------------------------------
# moment-to-series adapters
# ---------------------------------------------------------------------------


def elementary_from_moments(mr: MomentResult) -> ElementarySequence:
    """e_n = b_{2n} / ((2n)! b_0): elementary values of the reduced product,
    at the moments' precision."""
    precision = mr.precision
    b0 = mr[0]
    values: list = [Fraction(1)]
    with workprec(precision + 16):
        for n in range(1, len(mr)):
            values.append(BigFloat(mr[n].value / (mpmath.factorial(2 * n) * b0.value), precision))
    return ElementarySequence(values)


def reduced_series_from_moments(mr: MomentResult) -> TruncatedSeries:
    """sum (-1)^n b_{2n} z^n / ((2n)! b_0): the genus-0 reduced series."""
    e = elementary_from_moments(mr)
    from .series import series_from_elementary

    return series_from_elementary(e)


def even_series_from_moments(mr: MomentResult) -> TruncatedSeries:
    """sum (-1)^n b_{2n} z^{2n} / ((2n)! b_0): the even series in the original variable."""
    reduced = reduced_series_from_moments(mr)
    zero = BigFloat(0, mr.precision)
    out = []
    for c in reduced.coefficients:
        out.append(c)
        out.append(zero)
    return TruncatedSeries(out[:-1])


def sinc_even_series(N2: int, precision: int = DEFAULT_PRECISION_BITS) -> TruncatedSeries:
    """sin(pi z)/(pi z) = sum (-1)^n pi^{2n} z^{2n} / (2n+1)! to order N2 (floats)."""
    with workprec(precision + 16):
        out = []
        for n in range(N2 + 1):
            if n % 2 == 1:
                out.append(BigFloat(0, precision))
            else:
                k = n // 2
                v = mpmath.pi ** (2 * k) / mpmath.factorial(2 * k + 1)
                out.append(BigFloat(v if k % 2 == 0 else -v, precision))
    return TruncatedSeries(out)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


class FunctionKind(enum.Enum):
    SINC = "sinc"
    BESSEL = "bessel"
    QBESSEL = "qbessel"
    RAMANUJAN_AQ = "ramanujan-aq"
    AIRY_PRODUCT = "airy"
    BESSEL_K = "bessel-k"
    RIEMANN_XI = "riemann-xi"
    DIRICHLET_XI = "dirichlet-xi"


_EXACT_KINDS = {FunctionKind.SINC, FunctionKind.BESSEL, FunctionKind.QBESSEL,
                FunctionKind.RAMANUJAN_AQ}
MOMENT_KINDS = frozenset({FunctionKind.BESSEL_K, FunctionKind.RIEMANN_XI,
                          FunctionKind.DIRICHLET_XI})
# the parameters each kind reads, all of them needed outside ratfunc mode
_REQUIRED_PARAMS = {FunctionKind.SINC: (), FunctionKind.BESSEL: ("nu",),
                    FunctionKind.QBESSEL: ("q", "nu"), FunctionKind.RAMANUJAN_AQ: ("q",),
                    FunctionKind.AIRY_PRODUCT: (), FunctionKind.BESSEL_K: ("a",),
                    FunctionKind.RIEMANN_XI: (), FunctionKind.DIRICHLET_XI: ("chi",)}


@dataclass
class FunctionSpec:
    """A catalog entry: which function, its parameters, coefficient mode.

    ``mode`` is one of ``exact`` (plain rationals), ``ratfunc`` (symbolic
    parameters over a rational-function field) or ``float``.  Only the four
    closed-form kinds admit the exact modes; ``None`` means ``ratfunc`` for
    sinc, ``exact`` for the other three and ``float`` otherwise.  A parameter
    that ``_REQUIRED_PARAMS`` does not list for the kind, and outside ratfunc
    mode a missing one, is a ``ScalarError`` naming it.  ``bindings`` carries
    the numeric values of symbolic parameters for verdict evaluation (``t`` is
    bound to pi^2 for the sinc product).
    """

    kind: FunctionKind
    params: dict = field(default_factory=dict)
    mode: Optional[str] = None
    precision: int = DEFAULT_PRECISION_BITS
    _moments: Optional[MomentResult] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode is None:
            self.mode = ("ratfunc" if self.kind is FunctionKind.SINC
                         else "exact" if self.kind in _EXACT_KINDS else "float")
        if self.mode in ("exact", "ratfunc") and self.kind not in _EXACT_KINDS:
            raise ScalarError(f"{self.kind.value} admits float mode only")
        if self.kind is FunctionKind.SINC and self.mode == "exact":
            raise ScalarError(
                "sinc coefficients involve pi^2; use ratfunc (symbolic t) "
                "or float mode")
        unread = sorted(set(self.params) - set(_REQUIRED_PARAMS[self.kind]))
        if unread:
            raise ScalarError(f"{self.kind.value} takes no parameter {unread[0]}")
        missing = [n for n in _REQUIRED_PARAMS[self.kind] if n not in self.params]
        if missing and self.mode != "ratfunc":
            raise ScalarError(f"{self.kind.value} in {self.mode} mode needs the parameter "
                              f"{missing[0]}")
        nu = self.params.get("nu")
        if nu is not None and not isinstance(nu, str) and Fraction(nu) <= -1:
            raise ValueError("nu must exceed -1")
        q = self.params.get("q")
        if q is not None and not isinstance(q, str) and not 0 < Fraction(q) < 1:
            raise ValueError("q must lie in (0,1)")
        a = self.params.get("a")
        if a is not None and float(a) <= 0:
            raise ValueError("a must be positive")

    @property
    def label(self) -> str:
        bits = [self.kind.value]
        for k, v in sorted(self.params.items()):
            if isinstance(v, DirichletCharacter):
                bits.append(f"{k}={v.label}")
            else:
                bits.append(f"{k}={v}")
        return ",".join(bits)

    def moments(self, K: int) -> MomentResult:
        """Moments b_0..b_{2K} for the kinds of ``MOMENT_KINDS``.

        The quadrature runs again unless the cached result holds exactly ``K +
        1`` moments: its grid and errors depend on ``K``, so a report never
        depends on an earlier call.  ``_moments``, which the report metadata
        reads, holds the moments and errors the last caller used.
        """
        if self.kind not in MOMENT_KINDS:
            raise ScalarError(f"{self.kind.value} has closed-form coefficients, not moments")
        if self._moments is None or len(self._moments) != K + 1:
            if self.kind is FunctionKind.RIEMANN_XI:
                self._moments = riemann_moments(K, self.precision)
            elif self.kind is FunctionKind.DIRICHLET_XI:
                self._moments = dirichlet_moments(self.params["chi"], K, self.precision)
            else:
                self._moments = besselk_moments(self.params["a"], K, self.precision)
        return self._moments

    def elementary(self, K: int) -> ElementarySequence:
        """Elementary symmetric values e_0..e_K in the declared mode."""
        def param(name):
            return None if self.mode == "ratfunc" else self.params[name]

        closed_forms = {
            FunctionKind.SINC: lambda: sinc_coeffs(K),
            FunctionKind.BESSEL: lambda: bessel_coeffs(param("nu"), K),
            FunctionKind.QBESSEL: lambda: qbessel_coeffs(param("q"), param("nu"), K),
            FunctionKind.RAMANUJAN_AQ: lambda: ramanujan_aq_coeffs(param("q"), K),
        }
        if self.kind is FunctionKind.AIRY_PRODUCT:
            return airy_coeffs(K, self.precision)
        if self.kind not in closed_forms:
            return elementary_from_moments(self.moments(K))
        e = closed_forms[self.kind]()
        if self.mode != "float":
            return e
        # float mode: each value rounded once; the sinc values bind t = pi^2
        t = {"t": self._pi_squared()} if self.kind is FunctionKind.SINC else None
        values = [Fraction(1)]
        for v in e.values[1:]:
            if isinstance(v, RationalFunction):
                v = v.evaluate(t)
            values.append(BigFloat(v, self.precision))
        return ElementarySequence(values)

    def series(self, N: int) -> TruncatedSeries:
        """Normalized genus-0 reduced series to order N."""
        from .series import series_from_elementary

        return series_from_elementary(self.elementary(N))

    def bindings(self) -> Optional[dict]:
        """Numeric values for the symbols of ratfunc-mode coefficients."""
        if self.mode != "ratfunc":
            return None
        if self.kind is FunctionKind.SINC:
            return {"t": self._pi_squared()}
        out = {}
        for name in ("nu", "q"):
            if name in self.params:
                out[name] = Fraction(self.params[name])
        if self.kind is FunctionKind.QBESSEL and "q" in self.params \
                and "nu" in self.params:
            q = Fraction(self.params["q"])
            nu = Fraction(self.params["nu"])
            if nu.denominator == 1:
                out["t_nu"] = q ** int(nu)
            else:
                with workprec(self.precision + 16):
                    qv = mpf(q.numerator) / q.denominator
                    nv = mpf(nu.numerator) / nu.denominator
                    out["t_nu"] = BigFloat(mpmath.power(qv, nv), self.precision)
        return out

    def _pi_squared(self) -> BigFloat:
        with workprec(self.precision + 16):
            return BigFloat(mpmath.pi ** 2, self.precision)
