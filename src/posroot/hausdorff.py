"""Finite-difference positivity machinery for moment sequences.

A positive sequence ``l_n`` with ``l = sup l_n`` induces moments
``m_k = p_{k+1} / l**(k+1)`` of the positive measure that places mass
``l_n/l`` at ``l_n/l`` in ``[0, 1]``.  Complete monotonicity of those
moments -- every iterated difference ``(-D)^j m_k = sum_i C(j,i)(-1)^i
m_{k+i}`` nonnegative -- characterizes positivity of the sequence.  The
:class:`DifferenceTable` materializes a finite triangle of those cells with
per-cell sign verdicts; a clean triangle is a *bounded certificate*, never a
proof, since the full criterion quantifies over all ``(j, k)``.

The same cells have a derivative form: with ``L = f'/f`` for the genus-0
product ``f`` of the sequence and any ``0 < rho <= inf |roots|``,

    D(j,k) = (j+k)! * [z^(j+k)] { (z-1)^j * rho*L(rho*z) }
           = -rho * (j+k)! * (-D)^j ( rho^k p_{k+1} )

must be nonpositive cell by cell.  :func:`derivative_form_cells` computes
the left-hand side of every cell with ``j+k <= B`` from the coefficients
``g`` of ``L``, and :func:`derivative_cells_from_power_sums` the right-hand
side from ``p``.  Since ``g_m = -p_(m+1)``, the two are one alternating
binomial sum summed in opposite orders: reading both from one ``L``, their
exact agreement checks the summation loops, not the power sums.  ``L`` is
built once (or passed in), so the triangle costs ``O(B^3)`` scalar
operations: ``O(B^2)`` for ``L`` and ``O(j)`` for each cell.  Both loops
only add and multiply by integers, so they run unchanged on integer
numerators over one common scale.

Cells of either form are decided by one function, :func:`decide_cells`,
into :class:`CellRecord` entries; :class:`CellVerdicts` counts them.

A float table is exact: its moments are put on their least binary exponent
as Python ints, the triangle is built by integer subtraction, and each cell
becomes a BigFloat once, without rounding.  Every cell is therefore the exact
triangle of the printed row 0.  Its verdicts take their noise band from the
moments' precision ``P``, not from the wider tag the exact cells carry, with
the scale ``max(1, sum_i C(j,i) |m_(k+i)|)``: the Pascal sum of ``|row 0|``,
in integers.  A derivative-form cell ``v`` has the scale ``max(1, |v|,
(j+k)!)`` and the band of its own tag.  Both are compared exactly, so every
float verdict can be recomputed from the printed report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Optional, Sequence

from mpmath import mp
from mpmath.libmp import from_man_exp

from .scalars import (
    BigFloat,
    RationalFunction,
    ScalarError,
    Verdict,
    _common_denominator,
    serialize_scalar,
    sign_decide,
)
from .symfun import InsufficientCoefficients, PowerSumSequence, _domain_tag
from .series import TruncatedSeries, log_derivative_series

__all__ = [
    "CellRecord",
    "DifferenceTable",
    "difference_table",
    "moment_criterion",
    "derivative_form_coefficient",
    "derivative_form_cells",
    "InsufficientMoments",
    "NonPositiveLambda",
]


class InsufficientMoments(ScalarError):
    """Fewer moments than the requested difference order needs."""


class NonPositiveLambda(ScalarError):
    """The scaling bound must be a positive number."""


def _binomial_cell(values, j: int, k: int):
    """(-D)^j m_k by the alternating binomial sum (the non-recursive route)."""
    acc = None
    for i in range(j + 1):
        t = values[k + i] * ((-1) ** i * comb(j, i))
        acc = t if acc is None else acc + t
    return acc


@dataclass
class CellRecord:
    """One decided cell: its value, sign verdict and margin ``|value|``."""

    j: int
    k: int
    value: object
    verdict: Verdict
    margin: object

    def as_dict(self) -> dict:
        value = serialize_scalar(self.value)
        # the margin is |value|, the value's digits without the sign, unless the
        # value is symbolic and the margin that of its bound number
        margin = (serialize_scalar(self.margin) if isinstance(self.value, RationalFunction)
                  else value.lstrip("-"))
        return {
            "j": self.j,
            "k": self.k,
            "value": value,
            "verdict": self.verdict.value,
            "margin": margin,
        }


class CellVerdicts:
    """Verdict bookkeeping over ``self.cells``, a list of :class:`CellRecord`."""

    @property
    def verdict(self) -> str:
        counts = self.counts()
        if counts["NEGATIVE"]:
            return "FAIL"
        if counts["INDETERMINATE"]:
            return "INDETERMINATE"
        return "BOUNDED-PASS"

    def counts(self) -> dict[str, int]:
        out = {v.value: 0 for v in Verdict}
        for c in self.cells:
            out[c.verdict.value] += 1
        return out

    def failures(self) -> list[CellRecord]:
        return [c for c in self.cells if c.verdict is not Verdict.NONNEGATIVE]


@dataclass
class DifferenceTable(CellVerdicts):
    """Triangle ``rows[j][k] = (-D)^j m_k``; ``cells`` holds the decided cells.

    Row 0 holds the moments themselves, and ``domain`` their domain tag
    (``rational``, ``ratfunc`` or ``float``; ``precision`` is the float
    moments', which sets their verdicts' band); each later row is the
    elementwise difference ``rows[j-1][k] - rows[j-1][k+1]``.  Row ``j`` holds
    columns ``k = 0 .. len(m) - 1 - j`` (rows capped by ``J``).
    ``cells`` stays empty until :func:`decide_table_verdicts` runs.
    """

    domain: str
    rows: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    precision: Optional[int] = None

    def cell(self, j: int, k: int):
        return self.rows[j][k]

    def iter_cells(self):
        for j, row in enumerate(self.rows):
            for k, v in enumerate(row):
                yield j, k, v

    def is_pass(self) -> bool:
        return self.verdict == "BOUNDED-PASS"


def difference_table(m: Sequence, J: int) -> DifferenceTable:
    """Build the triangle of iterated differences of the moments ``m`` up to row ``J``.

    Computed exactly by recursive subtraction, float moments of ``P`` bits as
    ints on their least binary exponent; a float cell is then tagged ``P +
    len(m) + J`` bits, or more if the widest cell needs more.  A sample of
    cells is recomputed with the alternating binomial formula.
    """
    if len(m) < J + 1:
        raise InsufficientMoments(f"need at least {J + 1} moments, have {len(m)}")
    values = list(m)
    domain = _domain_tag(values)
    precision = None
    if domain == "float":
        precision = max(v.prec for v in values if isinstance(v, BigFloat))
        scale, values = _common_denominator(BigFloat(v, precision) for v in values)
    rows = [values]
    for _ in range(J):
        prev = rows[-1]
        rows.append([prev[k] - prev[k + 1] for k in range(len(prev) - 1)])
    if precision:
        exp = 1 - scale.bit_length()
        raw = [[from_man_exp(n, exp) for n in row] for row in rows]
        tag = max(precision + len(m) + J, max(x[3] for row in raw for x in row))
        rows = [[BigFloat._exact(mp.make_mpf(x), tag) for x in row] for row in raw]
    table = DifferenceTable(domain=domain, rows=rows, precision=precision)
    _cross_check(table)
    return table


def _cross_check(table: DifferenceTable) -> None:
    """Recompute every third cell of every third row by the alternating binomial sum.

    Every cell must agree exactly.  Rational and float moments are put over
    one denominator ``D`` first (a power of two for floats), so the sums run
    on integer numerators; a cell ``a/b`` agrees with their sum ``N`` when
    ``a D = b N``.
    """
    values = table.rows[0]
    scale = None
    if table.domain != "ratfunc":
        scale, values = _common_denominator(values)
    for j in range(1, len(table.rows), 3):
        row = table.rows[j]
        for k in range(0, len(row), 3):
            direct = _binomial_cell(values, j, k)
            got = row[k]
            if scale is None:
                agree = got == direct
            else:
                a, b = got.as_integer_ratio()
                agree = a * scale == direct * b
            if not agree:
                raise ScalarError(f"difference-table cross-check failed at ({j},{k})")


def _noise_scales(values, rows: int) -> list:
    """The noise scale of every cell of rows ``j < rows``: the magnitude of the
    cell before cancellation, ``max(1, sum_i C(j,i) |m_(k+i)|)``, exactly, as
    ``(S, D)`` for ``S/D``.

    Over one denominator ``D`` the magnitudes are ints that obey Pascal's
    rule, ``S_0[k] = |m_k| D`` and ``S_j[k] = S_(j-1)[k] + S_(j-1)[k+1]``, so
    the whole triangle costs ``O(B^2)`` integer additions.
    """
    d, s = _common_denominator(values)
    s = [abs(n) for n in s]
    out = [s]
    for _ in range(1, rows):
        s = [s[k] + s[k + 1] for k in range(len(s) - 1)]
        out.append(s)
    return [[(max(n, d), d) for n in row] for row in out]


def moment_criterion(
    p: PowerSumSequence,
    lam,
    J: int,
    bindings: Optional[Mapping[str, object]] = None,
) -> DifferenceTable:
    """Scaled-moment difference table with per-cell sign verdicts.

    Builds ``m_k = p_{k+1} / lam**(k+1)`` for ``k = 0 .. J`` and the
    triangle up to row ``J``.  Overall PASS means every verdict NONNEGATIVE;
    equality counts as a pass since the criterion is a non-strict inequality.

    Exact-domain cells are decided exactly.  Rational-function cells need
    ``bindings`` mapping each symbol to a number; cells are then evaluated
    there for the verdict (exactly at rational bindings) while staying exact
    in the table.  Float cells are decided with a per-cell noise scale equal
    to the pre-cancellation binomial magnitude, at the moments' precision.
    """
    if not isinstance(lam, (int, Fraction, BigFloat)):
        raise NonPositiveLambda(f"lambda must be rational or BigFloat, got {type(lam)}")
    if not lam > 0:
        raise NonPositiveLambda(f"lambda = {lam}")
    need = J + 1
    if len(p) < need:
        raise InsufficientCoefficients(f"need p_1..p_{need}, have p_1..p_{len(p)}")
    inv = Fraction(1) / lam
    moments = []
    scale = inv
    for k in range(need):
        moments.append(p[k + 1] * scale)
        scale = scale * inv
    table = difference_table(moments, J)
    decide_table_verdicts(table, bindings=bindings)
    return table


def decide_table_verdicts(
    table: DifferenceTable,
    bindings: Optional[Mapping[str, object]] = None,
) -> None:
    """Decide every cell ``>= 0``; float cells (of a float table or at a float
    binding) against their Pascal noise scale."""
    scales = None
    if table.domain == "float" or any(isinstance(v, BigFloat)
                                      for v in (bindings or {}).values()):
        scales = _noise_scales([bind_cell(x, bindings) for x in table.rows[0]], len(table.rows))
    table.cells = decide_cells(table.iter_cells(), lambda j, k, _x: scales[j][k], bindings,
                               table.precision)


def bind_cell(v, bindings: Optional[Mapping[str, object]]):
    """A cell as a number whose sign can be decided.

    A non-constant rational-function cell is evaluated with its symbols
    bound to ``bindings``: an exact Fraction when every binding is rational,
    a BigFloat when one is a BigFloat.  A constant one becomes its Fraction;
    anything else is returned as it is.
    """
    if not isinstance(v, RationalFunction):
        return v
    if v.is_constant():
        return v.constant_value()
    if bindings is None:
        raise ScalarError("rational-function cells need bindings for verdicts")
    missing = [s for s in v.symbols if s not in bindings]
    if missing:
        raise ScalarError(f"no numeric binding for symbol(s) {missing}; supply parameter values")
    return v.evaluate(bindings)


def decide_cells(cells, scale, bindings, precision: Optional[int] = None,
                 nonpositive: bool = False) -> list[CellRecord]:
    """:class:`CellRecord` for every ``(j, k, value)`` in ``cells``.

    Each value is bound by :func:`bind_cell` and the sign of it (of its
    negation when ``nonpositive``) is decided: exactly for rationals, and
    for BigFloats against the noise scale ``scale(j, k, bound value)`` (as
    :func:`sign_decide` takes it), with the band of ``precision`` bits
    (default: the value's own).
    """
    out = []
    for j, k, value in cells:
        x = bind_cell(value, bindings)
        if nonpositive:
            x = -x
        sv = (sign_decide(x, scale(j, k, x), precision) if isinstance(x, BigFloat)
              else sign_decide(x))
        out.append(CellRecord(j, k, value, sv.verdict, sv.margin))
    return out


def derivative_form_cells(f: TruncatedSeries, rho, bound: int, g=None) -> dict:
    """Every derivative-form cell with ``j+k <= bound``, keyed by ``(j, k)``.

    Cell ``(j, k)`` is ``(j+k)! * [z^(j+k)] { (z-1)^j * d/dz log f(rho*z) }``,
    computed purely from series coefficients.  For a genus-0 product with
    positive roots and admissible ``rho`` it is ``<= 0`` and equals
    ``-rho*(j+k)!*(-D)^j(rho^k p_{k+1})``.  ``g`` holds the coefficients
    ``g_0 .. g_bound`` of ``f'/f``; when it is not given it is built from
    ``f``, once, so the triangle costs ``O(bound^3)`` scalar operations.
    """
    f.require_normalized()
    if f.order < bound + 1:
        raise InsufficientCoefficients(
            f"series order {f.order} too small for cells j+k <= {bound}")
    if g is None:
        g = log_derivative_series(f, bound + 1)
    # coefficients of d/dz log f(rho z) = rho * (f'/f)(rho z)
    rho_pow = [rho]
    for _ in range(bound):
        rho_pow.append(rho_pow[-1] * rho)
    scaled = [g[m] * rho_pow[m] for m in range(bound + 1)]
    cells = {}
    for j in range(bound + 1):
        signed_binomials = [comb(j, s) * ((-1) ** (j - s)) for s in range(j + 1)]
        for k in range(bound + 1 - j):
            n = j + k
            acc = None
            for s, c in enumerate(signed_binomials):
                t = scaled[n - s] * c
                acc = t if acc is None else acc + t
            cells[(j, k)] = acc * factorial(n)
    return cells


def derivative_form_coefficient(f: TruncatedSeries, rho, j: int, k: int):
    """The single cell ``(j, k)`` of :func:`derivative_form_cells`."""
    if j < 0 or k < 0:
        raise ValueError("j and k must be nonnegative")
    return derivative_form_cells(f, rho, j + k)[(j, k)]


def derivative_cells_from_power_sums(p: PowerSumSequence, rho, bound: int):
    """All cells ``-rho*(j+k)!*(-D)^j(rho^k p_{k+1})`` for ``j+k <= bound``.

    The difference-route counterpart of :func:`derivative_form_cells`,
    used for the two-route equality check.
    """
    seq = []
    scale = rho
    for k in range(bound + 1):
        seq.append(p[k + 1] * scale)  # rho^(k+1) p_(k+1)
        scale = scale * rho
    out = {}
    for j in range(bound + 1):
        for k in range(bound + 1 - j):
            cell = _binomial_cell(seq, j, k)
            out[(j, k)] = -cell * factorial(j + k)
    return out
