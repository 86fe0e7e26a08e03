"""Zero-location data: table ingestion, Bessel zeros, partial power sums.

Scaling bounds for the positivity criterion need the smallest zero of the
function under test, and the acceptance oracles need truncated sums
``sum_k 1/z_k^{2n}`` over actual zeros with an estimate of the omitted tail.
Riemann zeta ordinates are ingested from text files (one ascending decimal
per line, ``#`` comments allowed); Bessel zeros are computed here from the
asymptotic guess ``(k + nu/2 - 1/4) pi`` refined by Newton iteration on the
power series, each zero then verified by a bracketing sign change.

Tail estimates are heuristic models, reported as estimates and never as
rigorous bounds: the Riemann model integrates the zero-counting density
``log(g/2pi)/2pi``; the Bessel model sums the asymptotic spacing exactly as
a Hurwitz zeta value (an upper estimate for ``nu <= 1/2`` where zeros exceed
their asymptotic predictions, see the guard shift for larger ``nu``).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp

from .scalars import BigFloat, DEFAULT_PRECISION_BITS, ScalarError

__all__ = [
    "ZeroTable",
    "load_zero_table",
    "packaged_riemann_table",
    "bessel_zeros",
    "bessel_series_value",
    "partial_power_sum_with_tail",
    "verify_sign_changes",
    "ParseError",
    "NotMonotone",
    "NoConvergence",
]


class ParseError(ScalarError):
    """Zero-table file is empty or malformed."""


class NotMonotone(ScalarError):
    """Zero-table ordinates are not strictly increasing."""


class NoConvergence(ScalarError):
    """Newton refinement failed to converge."""


@dataclass(frozen=True)
class ZeroTable(Sequence):
    """Sorted positive ordinates of a function's zeros.

    Ordinate i is exactly ``mantissas[i] 2^exponent``: one Python int per
    ordinate at one binary exponent that holds them all.  A ``BigFloat`` at
    ``precision`` bits is built only on access (``table[i]``, ``first``,
    iteration, ``reversed``); ``ordinates`` is the table itself.
    """

    mantissas: tuple
    exponent: int
    precision: int
    source: str          # "FILE" or "COMPUTED"
    params: dict

    def __len__(self) -> int:
        return len(self.mantissas)

    def __getitem__(self, i: int) -> BigFloat:
        value = mpmath.mp.make_mpf(from_man_exp(self.mantissas[i], self.exponent))
        return BigFloat._exact(value, self.precision)

    @property
    def ordinates(self) -> "ZeroTable":
        return self

    @property
    def first(self) -> BigFloat:
        return self[0]


_DECIMAL = re.compile(r"([+-]?)(\d*)\.?(\d*)(?:[eE]([+-]?\d{1,3}))?")


def _decimal(text: str, prec: int) -> tuple:
    """``(negative, man, exp)``: a decimal ``[+-]d[.d][e[+-]ddd]`` rounded once to
    nearest, ties to even, at ``prec`` bits as ``man 2^exp``, ``man <= 2^prec``:
    ``num / den`` by ``divmod`` to one or two bits beyond ``prec``, the remainder
    breaking ties."""
    m = _DECIMAL.fullmatch(text)
    if not m or not (m[2] or m[3]):
        raise ValueError(f"not a decimal: {text!r}")
    num, e = int(m[2] + m[3] or "0"), int(m[4] or 0) - len(m[3])
    num, den = (num * 10 ** e, 1) if e >= 0 else (num, 10 ** -e)
    if not num:
        return m[1] == "-", 0, 0
    shift = prec + 1 + den.bit_length() - num.bit_length()      # q gets prec+1 or prec+2 bits
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    extra = q.bit_length() - prec
    half = 1 << extra - 1
    low, q = q & 2 * half - 1, q >> extra
    if low > half or low == half and (r or q & 1):
        q += 1
    return m[1] == "-", q, extra - shift


def _parse_ordinates(lines, origin: str, limit: Optional[int], precision: int):
    """``(mantissas, exponent)`` of the ordinates of ``lines``, each rounded by
    ``_decimal``; ``exponent`` is the first ordinate's last bit at ``precision``
    bits, which holds every larger ordinate exactly."""
    BigFloat(0, precision)      # a precision below the minimum raises here
    mantissas, exponent = [], None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            negative, man, exp = _decimal(line, precision)
        except ValueError as exc:
            raise ParseError(f"{origin}:{lineno}: cannot parse {line!r}") from exc
        if negative or not man:
            raise ParseError(f"{origin}:{lineno}: ordinate {line} not positive")
        if exponent is None:
            exponent = exp
        # below the first ordinate's last bit means below the first ordinate
        m = man << exp - exponent if exp >= exponent else 0
        if mantissas and m <= mantissas[-1]:
            b = BigFloat._exact(mpmath.mp.make_mpf(from_man_exp(man, exp)), precision)
            raise NotMonotone(f"{origin}: ordinates not strictly increasing near {b}")
        mantissas.append(m)
        if limit is not None and len(mantissas) >= limit:
            break
    if not mantissas:
        raise ParseError(f"{origin}: no ordinates found")
    return tuple(mantissas), exponent


def load_zero_table(path, limit: Optional[int] = None,
                    precision: int = DEFAULT_PRECISION_BITS) -> ZeroTable:
    """Parse a text file of ascending positive ordinates."""
    with open(path, "r", encoding="utf-8") as f:
        return ZeroTable(*_parse_ordinates(f, str(path), limit, precision), precision, "FILE", {})


def packaged_riemann_table(limit: Optional[int] = None,
                           precision: int = DEFAULT_PRECISION_BITS) -> ZeroTable:
    """The zeta-zero ordinate table shipped with the package."""
    from importlib.resources import files

    res = files("posroot").joinpath("data/riemann_zeros_10000.txt")
    with res.open("r", encoding="utf-8") as f:
        return ZeroTable(*_parse_ordinates(f, "packaged riemann table", limit, precision),
                         precision, "FILE", {})


def bessel_series_value(nu: Fraction, x):
    """Power-series value of 2^nu Gamma(nu+1) J_nu(x) / x^nu at the ambient precision.

    The series sum_n (-z/4)^n / (n! (nu+1)_n) at z = x**2 cancels violently
    for large x (largest term ~ e^x against a value ~ x^{-1/2}); callers must
    raise the working precision by about 1.5*x bits, which
    :func:`bessel_zeros` does.
    """
    return _bessel_series(nu, x, False)[0]


def _bessel_series(nu: Fraction, x, derivative: bool):
    """``(value, d/dx value or None)`` of the reduced Bessel series at x.

    One loop makes the terms ``c_n z^n`` of the value and adds
    ``c_n z^n * n / x * 2 = 2x n c_n z^(n-1)`` of the derivative from them.
    Each sum has its own running maximum (from 1) and stops at its own first
    ``n > 2`` whose contribution is within ``2^-(prec+8)`` of it, as a loop
    of its own would.
    """
    nu = Fraction(nu)
    nu_mp = mpf(nu.numerator) / nu.denominator
    z = x * x
    quarter = -z / 4
    eps = mpf(2) ** (-(mpmath.mp.prec + 8))
    term = value = value_max = deriv_max = mpf(1)
    deriv = mpf(0)
    value_open, deriv_open = True, derivative
    n = 0
    while value_open or deriv_open:
        n += 1
        term = term * quarter / (n * (nu_mp + n))
        if value_open:
            value += term
            at = abs(term)
            value_max = max(value_max, at)
            value_open = not (n > 2 and at <= eps * value_max)
        if deriv_open:
            contrib = term * n / x * 2
            deriv += contrib
            at = abs(contrib)
            deriv_max = max(deriv_max, at)
            deriv_open = not (n > 2 and at <= eps * deriv_max)
        if n > 100000 and (value_open or deriv_open):
            what = "product" if value_open else "derivative"
            raise NoConvergence(f"series for the Bessel {what} did not terminate")
    return value, deriv if derivative else None


def bessel_zeros(nu, count: int, precision: int = DEFAULT_PRECISION_BITS) -> ZeroTable:
    """First ``count`` positive zeros of J_nu, each verified by bracketing.

    Newton iteration on the reduced power series from the asymptotic guess
    ``beta = (k + nu/2 - 1/4) pi`` (with the first-order spacing correction
    ``-(4 nu^2 - 1)/(8 beta)`` folded into the start point).
    """
    nu = Fraction(nu)
    if nu <= -1:
        raise ValueError("nu must exceed -1")
    if count < 1:
        raise ValueError("count must be positive")
    zeros = []
    for k in range(1, count + 1):
        guess_scale = float(k + nu / 2 - Fraction(1, 4)) * 3.141592653589793
        boost = int(1.6 * guess_scale) + 96
        wp = precision + boost
        with workprec(wp):
            beta = (mpf(k) + mpf(nu.numerator) / nu.denominator / 2 - mpf(1) / 4) * mpmath.pi
            mc = mpf(4 * nu.numerator ** 2) / nu.denominator ** 2 - 1
            x = beta - mc / (8 * beta)
            target = mpf(2) ** (-(precision + 8)) * x
            converged = False
            for _ in range(300):
                fx, dfx = _bessel_series(nu, x, True)
                if dfx == 0:
                    break
                step = fx / dfx
                x = x - step
                if abs(step) <= target:
                    converged = True
                    break
            if not converged:
                raise NoConvergence(f"Newton stalled for zero #{k} of J_{nu}")
            # bracketing verification
            h = abs(x) * mpf(2) ** (-(precision // 2))
            lo = bessel_series_value(nu, x - h)
            hi = bessel_series_value(nu, x + h)
            if not (lo * hi < 0):
                raise NoConvergence(
                    f"no sign change across computed zero #{k} of J_{nu}")
            zeros.append(BigFloat(x, precision))
    for a, b in zip(zeros, zeros[1:]):
        if not b > a:
            raise NoConvergence("computed Bessel zeros are out of order")
    exponent = min(z.value._mpf_[2] for z in zeros)
    mantissas = tuple(man << exp - exponent for _, man, exp, _ in (z.value._mpf_ for z in zeros))
    return ZeroTable(mantissas, exponent, precision, "COMPUTED", {"nu": nu})


def partial_power_sum_with_tail(
    table: ZeroTable,
    n: int,
    tail_model: str = "none",
    precision: int = DEFAULT_PRECISION_BITS,
) -> tuple[BigFloat, BigFloat]:
    """``sum_k 1/z_k^(2n)`` over the table plus an omitted-tail estimate.

    Returns ``(partial_sum, tail_estimate)``; the tail estimate is a point
    estimate of the omitted ``sum_{k>len} 1/z_k^(2n)`` from the configured
    density model ("riemann", "bessel", or "none" for zero).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if len(table) == 0:
        raise ValueError("empty zero table")
    wp = precision + 16
    with workprec(wp):
        acc = mpf(0)
        for z in reversed(table):  # ascending magnitude of terms
            acc += 1 / (z.value ** (2 * n))
        if tail_model == "none":
            tail = mpf(0)
        elif tail_model == "riemann":
            g = table[-1].value
            logg = mpmath.log(g / (2 * mpmath.pi))
            tail = g ** (1 - 2 * n) * (logg / (2 * n - 1) + mpf(1) / (2 * n - 1) ** 2)
            tail = tail / (2 * mpmath.pi)
        elif tail_model == "bessel":
            nu = Fraction(table.params.get("nu", 0))
            K = len(table)
            offset = mpf(nu.numerator) / nu.denominator / 2 - mpf(1) / 4
            shift = mpf(0)
            mc = float(4 * nu * nu - 1)
            if mc > 0:
                beta_next = float(K + 1 + nu / 2 - Fraction(1, 4)) * 3.141592653589793
                shift = mpf(mc) / (8 * beta_next) / mpmath.pi
            a = mpf(K + 1) + offset - shift
            tail = mpmath.zeta(2 * n, a) / mpmath.pi ** (2 * n)
        else:
            raise ValueError(f"unknown tail model {tail_model!r}")
        return BigFloat(acc, precision), BigFloat(tail, precision)


def verify_sign_changes(
    table: ZeroTable,
    evaluator: Callable[[BigFloat], BigFloat],
    indices,
    rel_h: float = 1e-6,
) -> None:
    """Check a sign change of ``evaluator`` across each selected ordinate."""
    for i in indices:
        z = table[i]
        h = abs(z) * Fraction(rel_h).limit_denominator(10 ** 9)
        lo = evaluator(z - h)
        hi = evaluator(z + h)
        lv = lo.value if isinstance(lo, BigFloat) else mpf(lo)
        hv = hi.value if isinstance(hi, BigFloat) else mpf(hi)
        if not (lv * hv < 0):
            raise ScalarError(f"no sign change across table ordinate #{i + 1} ({z})")
