"""End-to-end bounded positivity certifications.

A certification run takes a catalog entry, produces its power sums, picks an
admissible scaling bound (:func:`resolve_bound` for either form; a float
bound enters exact pipelines as its exact dyadic), and checks the sign
pattern of a finite triangle of criterion cells:

* MOMENT mode: cells ``(-D)^j (p_{k+1}/lam^{k+1}) >= 0`` for a bound
  ``lam >= sup |l_n|``;
* DERIVATIVE mode: cells ``(j+k)! [z^{j+k}]{(z-1)^j (log f(rho z))'} <= 0``
  for ``0 < rho <= inf |roots|``;
* SHIFTED_EVEN mode: DERIVATIVE applied to the genus-0 reduction of
  ``(G(sqrt(z)-ic) + G(sqrt(z)+ic)) / (2 G(ic))`` for an even real ``G``.

A clean triangle is reported as ``BOUNDED-PASS`` -- a bounded certificate to
``j+k <= B``, never a proof, since the criterion itself quantifies over all
cells.  Any confidently negative cell is a ``FAIL``; cells inside the float
noise band are ``INDETERMINATE`` and trigger one automatic precision
doubling before being reported.

Every derivative run, shifted-even runs included, goes through one
pipeline and computes its cells twice from one log-derivative ``f'/f``: the
series route sums its coefficients ``g``, the difference route the power
sums ``p = -g``.  The two are one sum in opposite orders, so the worst
discrepancy it records (``route_equality_max_defect``) checks the two
summation loops against each other and nothing else: it is 0 for any ``p``
in exact domains.  The power sums themselves are checked against the Newton
recurrence over the same ``e_k``: a log-derivative ``p_k`` that differs
raises a ``ScalarError`` naming the first such ``k``.  In floats the check
is exact too: both recurrences multiply the same operand pairs and add them
in the same order, up to sign, and round-to-nearest is symmetric, so the two
results are bit-identical.  Exact rational cells are summed as integers
over one common scale, and only the printed cells and the worst
discrepancy are reduced to fractions.

Adversarial runs plant defects (negative or complex-conjugate entries) into
a finite positive rational base sequence and report the smallest ``j+k``
at which the exact difference table goes negative; detection inside a fixed
triangle is empirical, the theory only guarantees failure somewhere in the
infinite grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, factorial
from typing import Optional

import mpmath
from mpmath import mpf, workprec

from .catalog import (
    MOMENT_KINDS,
    FunctionKind,
    FunctionSpec,
    even_series_from_moments,
    sinc_even_series,
)
# derivative_form_coefficient, taylor_shift and even_sqrt_reduce are not
# called here but stay importable from this module: perfbench/tracing.py
# looks them up by this path.
from .hausdorff import (
    CellRecord,
    CellVerdicts,
    bind_cell,
    decide_cells,
    derivative_cells_from_power_sums,
    derivative_form_cells,
    derivative_form_coefficient,
    moment_criterion,
)
from .scalars import (
    BigFloat,
    DEFAULT_PRECISION_BITS,
    RationalFunction,
    ScalarError,
    Verdict,
    _band_cmp,
    _common_denominator,
    _mpf_to_fraction,
    _to_mp,
    bigfloat_str,
    parse_bigfloat,
    parse_rational,
    rational_str,
    serialize_scalar,
)
from .series import (
    TruncatedSeries,
    elementary_from_series,
    even_sqrt_reduce,
    power_sums_from_log_derivative,
    series_from_elementary,
    taylor_shift,
)
from .symfun import (
    ElementarySequence,
    PowerSumSequence,
    power_sums_closed_form,
    power_sums_from_elementary,
)
from .zeros import ZeroTable

__all__ = [
    "CertificateReport",
    "BoundPolicy",
    "LambdaPolicy",
    "RhoPolicy",
    "AdversarialSpec",
    "Defect",
    "SeriesSpec",
    "certify_moment",
    "certify_derivative",
    "certify_shifted_even",
    "shifted_reduced_series",
    "explicit_p_formulas",
    "b_recurrence_power_sums",
    "b_closed_form_power_sum",
    "power_sums_from_moment_list",
    "adversarial_run",
    "draw_adversarial_spec",
    "route_equality_defect",
    "LambdaUnavailable",
    "RhoUnavailable",
    "ZeroB0",
    "ShiftedNormalizationZero",
    "NotEvenAfterShift",
    "serialize_scalar",
]

MAX_RETRY_PRECISION = 4096


class LambdaUnavailable(ScalarError):
    """No admissible scaling bound could be produced."""


class RhoUnavailable(ScalarError):
    """No admissible smallest-root bound could be produced."""


class ZeroB0(ScalarError):
    """The zeroth moment vanishes; the reduced series is undefined."""


class ShiftedNormalizationZero(ScalarError):
    """G(ic) = 0: the shifted combination cannot be normalized."""


class NotEvenAfterShift(ScalarError):
    """The source series of a shifted-even run has a nonzero odd coefficient."""


# ---------------------------------------------------------------------------
# scaling-bound policies
# ---------------------------------------------------------------------------

SAFETY_UP = Fraction(1025, 1024)    # multiplies an upper bound for lambda
SAFETY_DOWN = Fraction(1023, 1024)  # multiplies a lower bound for rho


def _bound_in_domain(x, exact: bool, precision: int, prov: str) -> tuple[object, str]:
    """A bound ``x`` as the pipeline needs it: a float (mpf or BigFloat) becomes
    its exact dyadic value in exact pipelines, symbolic ones included; a float
    pipeline takes an mpf as a BigFloat and a BigFloat as it is.  Anything
    else, a rational above all, passes unchanged."""
    if isinstance(x, BigFloat) and exact:
        x = x.value
    if not isinstance(x, mpf):
        return x, prov
    if exact:
        return _mpf_to_fraction(x), prov + " [exact dyadic]"
    return BigFloat(x, precision), prov


@dataclass(frozen=True)
class BoundPolicy:
    """How to obtain a scaling bound: ``lam >= sup |l_n|`` for the moment
    form, or ``0 < rho <= inf |roots| = 1/sup |l_n|`` of the reduced product
    for the derivative form.

    kinds: ``explicit`` (use ``value``), ``zero-table`` (``SAFETY_UP/min_zero^2``
    or ``SAFETY_DOWN * min_zero^2`` from ``table``, the squared ordinate being
    the root of the reduced product), ``coefficient-bound`` (``lam = e_1 =
    sum l_n`` or ``rho = SAFETY_DOWN/e_1``, valid under the positivity
    hypothesis being tested), ``first-root`` (rho only: bracket the first
    sign change of the truncated series and bisect).
    """

    kind: str = "coefficient-bound"
    value: object = None
    table: Optional[ZeroTable] = None


LambdaPolicy = RhoPolicy = BoundPolicy


def resolve_bound(policy: BoundPolicy, form: str, e: ElementarySequence,
                  f: Optional[TruncatedSeries], exact: bool, precision: int,
                  bindings=None) -> tuple[object, str]:
    """The bound of ``form`` (``"lambda"`` or ``"rho"``) and its provenance.

    Every bound leaves through :func:`_bound_in_domain`; ``f`` is the
    reduced series, read by the first-root scan only.
    """
    err = LambdaUnavailable if form == "lambda" else RhoUnavailable
    if policy.kind == "explicit":
        if policy.value is None:
            raise err(f"explicit {form} policy without a value")
        x, prov = policy.value, f"explicit {form} = {policy.value}"
    elif policy.kind == "zero-table":
        table = policy.table
        if table is None or len(table) == 0:
            raise err(f"zero-table {form} policy without a table")
        z1 = table.first
        with workprec(precision + 16):
            if form == "lambda":
                x = mpf(SAFETY_UP.numerator) / SAFETY_UP.denominator / (z1.value ** 2)
                prov = (f"lambda = {SAFETY_UP} / min_zero^2, min_zero = {z1} "
                        f"({table.source} table, {len(table)} zeros)")
            else:
                x = mpf(SAFETY_DOWN.numerator) / SAFETY_DOWN.denominator * (z1.value ** 2)
                prov = f"rho = {SAFETY_DOWN} * min_zero^2, min_zero = {z1} ({table.source} table)"
    elif policy.kind == "coefficient-bound":
        x = e[1]
        if isinstance(x, RationalFunction) and x.is_constant():
            x = x.constant_value()
        elif isinstance(x, RationalFunction):
            if not (bindings and all(s in bindings for s in x.symbols)):
                raise err("coefficient bound needs numeric e_1; bind symbols or use explicit")
            x = x.evaluate({s: bindings[s] for s in x.symbols})
        if not x > 0:
            raise err(f"coefficient bound e_1 = {x} not positive")
        if form == "lambda":
            prov = "lambda = e_1 = sum of the sequence (coefficient bound)"
        else:
            prov = "rho = safety/e_1 (coefficient bound)"
            if isinstance(x, BigFloat):
                with workprec(precision + 16):
                    x = mpf(SAFETY_DOWN.numerator) / SAFETY_DOWN.denominator / x.value
            else:
                x = SAFETY_DOWN / x
    elif policy.kind == "first-root" and form == "rho":
        bound_f = TruncatedSeries([bind_cell(c, bindings) for c in f.coefficients])
        x = _first_root_bound(bound_f, precision, SAFETY_DOWN)
        prov = "rho = safety * first bracketed root of the truncated series"
    else:
        raise err(f"unknown {form} policy {policy.kind!r}")
    return _bound_in_domain(x, exact, precision, prov)


def _horner(coeffs, z):
    """``sum c_k z^k`` by Horner's rule, ``coeffs`` from the highest degree down."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _first_root_bound(f: TruncatedSeries, precision: int, safety: Fraction) -> BigFloat:
    """Bracket the smallest positive root of the truncated series, bisect.

    The series is evaluated in raw ``mpf`` at ``precision + 16`` bits, from
    coefficients converted once at that precision: the roundings of
    ``BigFloat`` arithmetic at that precision, without its wrappers, for
    coefficients of at most ``precision + 16`` bits.
    """
    e1 = f[1]
    if e1 == 0:
        raise RhoUnavailable("vanishing linear coefficient; no scale for root scan")
    with workprec(precision + 16):
        if isinstance(e1, BigFloat):
            scale = abs(1 / e1.value)
        else:
            e1f = Fraction(e1)
            scale = abs(mpf(e1f.denominator) / e1f.numerator)
        coeffs = [_to_mp(c, precision + 16) for c in reversed(f.coefficients)]
        fb = lambda z: _horner(coeffs, z)
        lo = mpf(0)
        flo = fb(lo)
        hi = None
        step = scale / 16
        z = step
        for _ in range(1024):
            fz = fb(z)
            if fz * flo < 0:
                hi = z
                break
            lo, flo = z, fz
            z += step
        if hi is None:
            raise RhoUnavailable("no sign change found while scanning for the first root")
        for _ in range(precision + 32):
            mid = (lo + hi) / 2
            fm = fb(mid)
            if fm == 0:
                lo = hi = mid
                break
            if fm * flo < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo <= mpf(2) ** (-(precision + 8)) * hi:
                break
        root = (lo + hi) / 2
        return BigFloat(root * safety.numerator / safety.denominator, precision)


@dataclass
class SeriesSpec:
    """Adapter: run an explicit truncated series through the certifiers.

    A finite polynomial product is padded with zero coefficients beyond its
    degree, which is exactly its infinite Taylor expansion.
    """

    f: TruncatedSeries
    precision: int = DEFAULT_PRECISION_BITS
    label: str = "explicit-series"
    mode: str = "exact"

    def series(self, N: int) -> TruncatedSeries:
        coeffs = list(self.f.coefficients)
        if len(coeffs) < N + 1:
            zero = Fraction(0)
            coeffs = coeffs + [zero] * (N + 1 - len(coeffs))
        return TruncatedSeries(coeffs[: N + 1])

    def elementary(self, K: int) -> ElementarySequence:
        return elementary_from_series(self.series(K))

    def bindings(self):
        return None


# ---------------------------------------------------------------------------
# certificate report
# ---------------------------------------------------------------------------


@dataclass
class CertificateReport(CellVerdicts):
    """Outcome of one certification run; serializes bit-stably to JSON."""

    function: str
    mode: str                       # MOMENT | DERIVATIVE | SHIFTED_EVEN
    grid_bound: int
    precision_bits: int
    cells: list
    lam: object = None
    rho: object = None
    lam_provenance: str = ""
    rho_provenance: str = ""
    metadata: dict = field(default_factory=dict)

    def min_margin_cell(self) -> Optional[CellRecord]:
        best = None
        for c in self.cells:
            if best is None or c.margin < best.margin:
                best = c
        return best

    def detection_depth(self) -> Optional[int]:
        depths = [c.j + c.k for c in self.cells if c.verdict is Verdict.NEGATIVE]
        return min(depths) if depths else None

    def as_dict(self) -> dict:
        """The report payload; a cell listed twice (failure, min margin) shares one dict."""
        mm = self.min_margin_cell()
        cells = {id(c): c.as_dict() for c in sorted(self.cells, key=lambda c: (c.j, c.k))}
        return {
            "schema": 1,
            "function": self.function,
            "mode": self.mode,
            "lambda": serialize_scalar(self.lam),
            "rho": serialize_scalar(self.rho),
            "grid_bound": self.grid_bound,
            "precision_bits": self.precision_bits,
            "cells": list(cells.values()),
            "verdict": self.verdict,
            "failures": [cells[id(c)] for c in self.failures()],
            "metadata": {
                **{k: _meta_safe(v) for k, v in sorted(self.metadata.items())},
                "lambda_provenance": self.lam_provenance,
                "rho_provenance": self.rho_provenance,
                "verdict_counts": self.counts(),
                "min_margin_cell": cells[id(mm)] if mm else None,
                "statement": (
                    f"bounded certificate to j+k <= {self.grid_bound}; "
                    "evidence, not a proof of zero positivity"),
            },
        }

    def to_csv(self) -> str:
        """Triangle as CSV: rows j, columns k, `value letter` entries."""
        width = max(c.k for c in self.cells) + 1
        grid = {}
        for c in self.cells:
            grid[(c.j, c.k)] = c
        lines = ["j\\k," + ",".join(str(k) for k in range(width))]
        for j in range(max(c.j for c in self.cells) + 1):
            row = []
            for k in range(width):
                c = grid.get((j, k))
                row.append("" if c is None else
                           f"{_short_value(c.value)} {c.verdict.letter}")
            lines.append(f"{j}," + ",".join(row))
        return "\n".join(lines) + "\n"


def _short_value(v) -> str:
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, BigFloat):
        return mpmath.nstr(v.value, 12)
    return str(v)


def _meta_safe(v):
    if isinstance(v, (str, int, bool, float)) or v is None:
        return v
    if isinstance(v, dict):
        return {k: _meta_safe(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_meta_safe(x) for x in v]
    return serialize_scalar(v)


# ---------------------------------------------------------------------------
# the two cell forms
# ---------------------------------------------------------------------------


def _moment_certificate(label, B, precision, metadata, p, lam, lam_prov,
                        bindings=None) -> CertificateReport:
    """Report on the cells ``(-D)^j m_k``, ``m_k = p_(k+1)/lam^(k+1)``, decided ``>= 0``."""
    table = moment_criterion(p, lam, J=B, bindings=bindings)
    return CertificateReport(label, "MOMENT", B, precision, table.cells, lam=lam,
                             lam_provenance=lam_prov, metadata=metadata)


def _two_route_cells(f, p, rho, B, bindings, g=None):
    """Series-route cells for ``j+k <= B`` and the worst |series - difference|.

    The series route sums ``g`` (the coefficients of ``f'/f``; ``-p``
    unless given), the difference route ``p``.  With ``g = -p`` both sum
    the same terms in opposite orders, so any discrepancy is a summation
    fault.  Exact rational inputs run on :func:`_integer_route_cells`:
    the cells are compared as integers, and a fraction is built only for
    each returned cell and for the worst discrepancy.
    """
    if g is None:
        g = [-x for x in p.values]
    if p.domain == "rational" and isinstance(rho, (int, Fraction)):
        series, s_scale, diff, d_scale = _integer_route_cells(f, g, p, rho, B)
        worst = max(abs(v * d_scale - diff[jk] * s_scale) for jk, v in series.items())
        cells = {jk: Fraction(v, s_scale) for jk, v in series.items()}
        return cells, Fraction(worst, s_scale * d_scale)
    series_route = derivative_form_cells(f, rho, B, g)
    diff_route = derivative_cells_from_power_sums(p, rho, B)
    worst = None
    for jk, v in series_route.items():
        d = v - diff_route[jk]
        if isinstance(d, RationalFunction) and d.is_zero():
            d = Fraction(0)  # exact, also when unreduced like 0/(q-1)
        d = abs(bind_cell(d, bindings))
        if worst is None or worst < d:
            worst = d
    return series_route, worst


def _integer_route_cells(f, g, p, rho, B):
    """Both routes' cells over the integers: ``(series, s_scale, diff, d_scale)``.

    Cell ``(j, k)`` of the series route is ``series[(j, k)] / s_scale``, and
    likewise for the difference route.  The cells of ``f`` at ``rho`` are the
    cells at 1 of the rescaled ``g_m rho^(m+1)`` and ``p_(m+1) rho^(m+1)``,
    and they are linear in those; so both loops run at ``rho = 1`` on the
    integer numerators of :func:`_over_one_scale` and never reduce.
    """
    g_num, s_scale = _over_one_scale(g, rho, B)
    p_num, d_scale = _over_one_scale(p.values, rho, B)
    return (derivative_form_cells(f, 1, B, g_num), s_scale,
            derivative_cells_from_power_sums(PowerSumSequence(p_num), 1, B), d_scale)


def _over_one_scale(values, rho, B):
    """Integers ``N_m`` and one scale ``D > 0`` with ``values[m] rho^(m+1) = N_m / D``.

    ``m = 0 .. B``; ``D`` is the lcm of the denominators times
    ``den(rho)^(B+1)``, so no gcd is taken.
    """
    a, b = rho.numerator, rho.denominator
    L, nums = _common_denominator(values[:B + 1])
    return [n * a ** (m + 1) * b ** (B - m) for m, n in enumerate(nums)], L * b ** (B + 1)


def _deriv_scale(j, k, v):
    """Noise scale ``max(|v|, (j+k)!)``, at least 1, of a float derivative cell ``v``,
    set by the factorial growth of the cells: exactly, as ``(a, b)`` for ``a/b``."""
    n, d = v.as_integer_ratio()
    f = factorial(j + k)
    return (abs(n), d) if abs(n) > f * d else (f, 1)


def _spec_metadata(spec) -> dict:
    kind = spec.kind.value if isinstance(spec, FunctionSpec) else "explicit-series"
    meta = {"coefficient_mode": spec.mode, "kind": kind}
    if getattr(spec, "_moments", None) is not None:
        meta["quadrature"] = dict(spec._moments.metadata)
        meta["moment_errors"] = [bigfloat_str(e) for e in spec._moments.errors]
    return meta


def _run_with_retry(once, spec, B, *args) -> CertificateReport:
    """``once(spec, B, *args)``, rerun once at doubled precision if INDETERMINATE.

    Only a catalog function recomputes its coefficients at the new precision;
    an explicit series keeps its own, so it is not rerun.
    """
    if B < 0:
        raise ValueError("grid bound must be nonnegative")
    report = once(spec, B, *args)
    if report.verdict == "INDETERMINATE" and isinstance(spec, FunctionSpec):
        new_prec = min(spec.precision * 2, MAX_RETRY_PRECISION)
        if new_prec > spec.precision:
            report = once(replace(spec, precision=new_prec), B, *args)
            report.metadata["retried_at_bits"] = new_prec
    return report


def _is_exact(p: PowerSumSequence) -> bool:
    return p.domain in ("rational", "ratfunc")


# ---------------------------------------------------------------------------
# MOMENT mode
# ---------------------------------------------------------------------------


def certify_moment(
    spec: FunctionSpec,
    B: int,
    lam_policy: Optional[BoundPolicy] = None,
) -> CertificateReport:
    """Full moment-mode pipeline: coefficients -> power sums -> scaled
    difference table -> per-cell verdicts."""
    lam_policy = lam_policy or _default_lambda_policy(spec)
    return _run_with_retry(_moment_once, spec, B, lam_policy)


def _default_lambda_policy(spec) -> BoundPolicy:
    if getattr(spec, "kind", None) is FunctionKind.SINC:
        # smallest zero of the reduced product is exactly 1
        return BoundPolicy(kind="explicit", value=Fraction(1))
    return BoundPolicy()


def _moment_once(spec, B, lam_policy) -> CertificateReport:
    e = spec.elementary(B + 1)
    p = power_sums_from_elementary(e, B + 1)
    bindings = spec.bindings()
    lam, lam_prov = resolve_bound(lam_policy, "lambda", e, None, _is_exact(p), spec.precision,
                                  bindings)
    return _moment_certificate(spec.label, B, spec.precision, _spec_metadata(spec), p, lam,
                               lam_prov, bindings)


# ---------------------------------------------------------------------------
# DERIVATIVE mode
# ---------------------------------------------------------------------------


def certify_derivative(
    spec: FunctionSpec,
    B: int,
    rho_policy: Optional[BoundPolicy] = None,
) -> CertificateReport:
    """Derivative-form pipeline; the cells are also summed by the difference route.

    Both routes read one ``f'/f``, so the recorded
    ``route_equality_max_defect`` checks two summations of one sum.
    """
    rho_policy = rho_policy or BoundPolicy()
    return _run_with_retry(_derivative_once, spec, B, rho_policy)


def _log_derivative_inputs(spec, B: int, shift=None):
    """``e``, the reduced series ``f`` and ``p_1..p_(B+1)`` from ``f'/f``.

    Without a shift, ``f`` is the spec's reduced series to order
    ``N = 2B+4`` and ``e = e_0..e_N``; a catalog spec builds its
    coefficients once and derives the series from them.  With a shift ``c``,
    ``f`` is :func:`shifted_reduced_series` of the spec's even series, to
    order ``2B+8``, and ``e`` is read off ``f``.
    """
    if shift is None:
        N = 2 * B + 4
        e = spec.elementary(N)
        f = series_from_elementary(e) if isinstance(spec, FunctionSpec) else spec.series(N)
    else:
        f = shifted_reduced_series(_even_source_series(spec, 4 * B + 16), shift,
                                   spec.precision)
        e = elementary_from_series(f)
    return e, f, power_sums_from_log_derivative(f, B + 1)


def _check_newton(e: ElementarySequence, p: PowerSumSequence) -> None:
    """Raise unless ``p`` equals the Newton power sums of ``e``."""
    newton = power_sums_from_elementary(e, len(p))
    for k in range(1, len(p) + 1):
        if p[k] != newton[k]:
            raise ScalarError(
                f"log-derivative p_{k} differs from the Newton recurrence over e")


def _derivative_once(spec, B, rho_policy, shift=None) -> CertificateReport:
    """One derivative-form run at ``spec.precision``, on the series shifted by
    ``shift`` if one is given; the cells are decided ``<= 0``.

    The cells are read from the series route over ``g = -p``; the metadata
    records their worst discrepancy from the difference route over ``p``
    (see :func:`_two_route_cells`).
    """
    e, f, p = _log_derivative_inputs(spec, B, shift)
    _check_newton(e, p)
    bindings = spec.bindings()
    rho, rho_prov = resolve_bound(rho_policy, "rho", e, f, _is_exact(p), spec.precision,
                                  bindings)
    series_route, worst = _two_route_cells(f, p, rho, B, bindings)
    cells = decide_cells(((j, k, v) for (j, k), v in series_route.items()), _deriv_scale,
                         bindings, nonpositive=True)
    metadata = _spec_metadata(spec)
    metadata["route_equality_max_defect"] = serialize_scalar(worst)
    label, mode = spec.label, "DERIVATIVE"
    if shift is not None:
        label, mode = f"{spec.label} shifted by c={shift}", "SHIFTED_EVEN"
        metadata["shift_c"] = serialize_scalar(BigFloat(shift, spec.precision))
    return CertificateReport(label, mode, B, spec.precision, cells, rho=rho,
                             rho_provenance=rho_prov, metadata=metadata)


def route_equality_defect(spec: FunctionSpec, B: int, rho=None) -> object:
    """Worst |series-route - difference-route| cell discrepancy at bound B.

    The ``route_equality_max_defect`` of one derivative run at ``rho``
    (default: the coefficient bound), read back as a number.
    """
    policy = BoundPolicy() if rho is None else BoundPolicy(kind="explicit", value=rho)
    defect = _derivative_once(spec, B, policy).metadata["route_equality_max_defect"]
    return parse_bigfloat(defect) if "@" in defect else parse_rational(defect)


# ---------------------------------------------------------------------------
# SHIFTED_EVEN mode
# ---------------------------------------------------------------------------


def _even_source_series(spec: FunctionSpec, order2: int) -> TruncatedSeries:
    """The even series G(z) in the original variable, float coefficients."""
    if spec.kind is FunctionKind.SINC:
        return sinc_even_series(order2, spec.precision)
    if spec.kind in MOMENT_KINDS:
        return even_series_from_moments(spec.moments(order2 // 2))
    raise ScalarError(f"{spec.kind.value} has no even-series source here")


def shifted_reduced_series(G: TruncatedSeries, c, precision: int) -> TruncatedSeries:
    """Genus-0 reduction of (G(w-ic)+G(w+ic))/(2 G(ic)) from an even real G.

    For real ``c`` the combination is real and even: its ``w^j`` coefficient
    is ``x_j = sum_{n>=j, n-j even} a_n C(n, j) (-1)^((n-j)/2) c^(n-j)``,
    and ``x_0 = G(ic)``.  The even ``x_j``, taken as coefficients of
    ``z^(j/2)`` and divided by ``x_0``, give the reduction.  Each term is
    rounded as the binomial convolution of a Taylor shift by ``ic`` rounds
    it: ``c^m`` is a running product, the sign comes afterwards, and
    ``(a_n C(n, j)) c^(n-j)`` is summed in ascending ``n``.
    """
    a = G.coefficients
    for idx in range(1, len(a), 2):
        if a[idx] != 0:
            raise NotEvenAfterShift(f"source series has odd coefficient at {idx}")
    cf = BigFloat(c, precision)
    powers = [BigFloat(1, precision)]
    for _ in range(G.order):
        powers.append(powers[-1] * cf)
    x = []
    for j in range(0, len(a), 2):
        acc = None
        for n in range(j, len(a), 2):
            t = a[n] * comb(n, j) * powers[n - j]
            t = -t if (n - j) % 4 else t
            acc = t if acc is None else acc + t
        x.append(BigFloat(acc, precision))
    _, nums = _common_denominator(x)
    top = max(map(abs, nums))
    if top == 0:
        raise ShiftedNormalizationZero("shifted combination is identically zero")
    if _band_cmp(nums[0], top, 1, precision) <= 0:   # |x_0| <= max |x_j| 2^(-precision/2)
        raise ShiftedNormalizationZero("G(ic) is numerically zero")
    return TruncatedSeries(x).normalized()


def certify_shifted_even(
    spec: FunctionSpec,
    c,
    B: int,
    rho_policy: Optional[BoundPolicy] = None,
) -> CertificateReport:
    """Shifted-even certification for an even real entire function: the
    derivative pipeline on the reduction shifted by ``c``."""
    rho_policy = rho_policy or BoundPolicy(kind="first-root")
    return _run_with_retry(_derivative_once, spec, B, rho_policy, c)


# ---------------------------------------------------------------------------
# explicit low-order formulas from even moments
# ---------------------------------------------------------------------------


def explicit_p_formulas(b, K: int = 4) -> PowerSumSequence:
    """p_1..p_K (K <= 4) from even moments via the hard-coded closed forms.

    b supplies b_0, b_2, .., b_8 (a MomentResult or plain list).  Must agree
    exactly with the generic Newton pipeline on e_i = b_{2i}/((2i)! b_0).
    """
    bs = list(b)
    if not 1 <= K <= 4:
        raise ValueError("explicit formulas cover K = 1..4 only")
    if len(bs) < K + 1:
        raise ValueError(f"need b_0..b_{2 * K}")
    b0 = bs[0]
    if b0 == 0:
        raise ZeroB0("b_0 = 0")
    b2 = bs[1]
    out = [b2 / (2 * b0)]
    if K >= 2:
        b4 = bs[2]
        out.append((3 * b2 * b2 - b0 * b4) / (12 * b0 * b0))
    if K >= 3:
        b6 = bs[3]
        out.append((30 * b2 ** 3 - 15 * b0 * b2 * b4 + b0 * b0 * b6)
                   / (240 * b0 ** 3))
    if K >= 4:
        b8 = bs[4]
        out.append((630 * b2 ** 4 - 420 * b0 * b2 * b2 * b4
                    + 35 * b0 * b0 * b4 * b4 + 28 * b0 * b0 * b2 * b6
                    - b0 ** 3 * b8) / (10080 * b0 ** 4))
    return PowerSumSequence(out)


def _moment_elementary(b, K: int) -> ElementarySequence:
    """e_i = b_{2i}/((2i)! b_0), i = 0..K."""
    bs = list(b)
    b0 = bs[0]
    if b0 == 0:
        raise ZeroB0("b_0 = 0")
    return ElementarySequence([Fraction(1)] + [bs[i] / (factorial(2 * i) * b0)
                                                for i in range(1, K + 1)])


def power_sums_from_moment_list(b, K: int) -> PowerSumSequence:
    """Generic pipeline: e_i = b_{2i}/((2i)! b_0), then Newton."""
    return power_sums_from_elementary(_moment_elementary(b, K), K)


def b_recurrence_power_sums(b, K: int) -> PowerSumSequence:
    """p_k by the moment-form recurrence (independent transcription)."""
    bs = list(b)
    b0 = bs[0]
    if b0 == 0:
        raise ZeroB0("b_0 = 0")
    p: list = []
    for k in range(1, K + 1):
        sign = 1 if (k - 1) % 2 == 0 else -1
        acc = (bs[k] * Fraction(sign * k, factorial(2 * k))) / b0
        for i in range(1, k):
            s = 1 if (k - 1 + i) % 2 == 0 else -1
            term = (bs[k - i] * Fraction(s, factorial(2 * (k - i)))) / b0 * p[i - 1]
            acc = acc + term
        p.append(acc)
    return PowerSumSequence(p)


def b_closed_form_power_sum(b, k: int):
    """p_k by the multinomial partition sum over e_i = b_{2i}/((2i)! b_0)."""
    return power_sums_closed_form(_moment_elementary(b, k), k)


# ---------------------------------------------------------------------------
# adversarial falsification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Defect:
    """A planted sequence entry: negative rational or a conjugate pair."""

    re: Fraction
    im: Fraction = Fraction(0)
    multiplicity: int = 1

    @property
    def is_complex(self) -> bool:
        return self.im != 0


@dataclass(frozen=True)
class AdversarialSpec:
    """Finite positive rational base plus planted defects, and the bound."""

    base: tuple
    defects: tuple
    lam: Fraction
    label: str = "adversarial"

    def __post_init__(self):
        if not self.defects:
            raise ValueError("an adversarial spec needs at least one defect")


def _complex_pair_power_sum(re: Fraction, im: Fraction, k: int) -> Fraction:
    """(re+im*i)^k + (re-im*i)^k as an exact rational."""
    a, b = Fraction(1), Fraction(0)
    for _ in range(k):
        a, b = a * re - b * im, a * im + b * re
    return 2 * a


def adversarial_power_sums(spec: AdversarialSpec, K: int,
                           include_defects: bool = True) -> PowerSumSequence:
    """Exact rational power sums of base plus defects."""
    out = []
    for k in range(1, K + 1):
        acc = Fraction(0)
        for lam in spec.base:
            acc += Fraction(lam) ** k
        if include_defects:
            for d in spec.defects:
                if d.is_complex:
                    acc += d.multiplicity * _complex_pair_power_sum(d.re, d.im, k)
                else:
                    acc += d.multiplicity * Fraction(d.re) ** k
        out.append(acc)
    return PowerSumSequence(out)


def adversarial_run(
    spec: AdversarialSpec,
    B: int,
    include_defects: bool = True,
) -> tuple[CertificateReport, Optional[int]]:
    """Exact moment-mode run on the synthetic sequence.

    Returns the certificate and the detection depth: the smallest ``j+k``
    with a NEGATIVE cell, or None when the bounded triangle sees nothing.
    """
    if B < 0:
        raise ValueError("grid bound must be nonnegative")
    p = adversarial_power_sums(spec, B + 1, include_defects)
    metadata = {
        "base_size": len(spec.base),
        "defects": [
            {"re": rational_str(d.re), "im": rational_str(d.im),
             "multiplicity": d.multiplicity}
            for d in spec.defects
        ],
        "defects_included": include_defects,
    }
    report = _moment_certificate(spec.label, B, 0, metadata, p, spec.lam,
                                 "adversarial spec lambda (exact)")
    return report, report.detection_depth()


def draw_adversarial_spec(
    rng: random.Random,
    base_count: int = 48,
    complex_defect: bool = False,
) -> AdversarialSpec:
    """Seeded draw: base {1/n^2} truncated, one defect of magnitude in [1/4, 1).

    Real defects are negative; complex draws return a conjugate pair with the
    drawn magnitude and a random phase.  The spec's bound is ``lam = 1``.
    """
    if base_count < 1:
        raise ValueError(f"base_count {base_count} must be positive")
    base = tuple(Fraction(1, n * n) for n in range(1, base_count + 1))
    u = Fraction(rng.randrange(0, 10 ** 9), 10 ** 9)
    mag = Fraction(1, 4) + Fraction(3, 4) * u
    if not complex_defect:
        defect = Defect(re=-mag)
    else:
        t = Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)
        # rational point on a near-circle: re/im from a Pythagorean-style pair
        den = 1 + t * t
        cos_t = (1 - t * t) / den
        sin_t = 2 * t / den
        defect = Defect(re=mag * cos_t, im=mag * sin_t)
    return AdversarialSpec(base=base, defects=(defect,), lam=Fraction(1),
                           label=f"adversarial(base={base_count}, defect={defect.re}"
                                 + (f"+-{defect.im}i" if defect.im else "") + ")")
