"""Workload job lists for the posroot benchmark, and the check of each job's output.

A job is one ``posroot`` command line, run in-process through
``posroot.cli.main``.  The seed changes only the adversarial RNG seed and
parameters drawn from small pools of values that certify (BOUNDED-PASS) at
similar cost; job names do not depend on the seed, so per-job times line
up across seeds.

Every check reads the report the job wrote and returns ``None`` when the
output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import mpmath

# Pools of parameters that pass at similar cost with the job sizes below: the
# values of a pool differ by at most 10% in job time.  (q = 1/2 and 3/4
# differ by 40% in the exact derivative jobs, zeros for nu = 1 cost 14% more
# than for nu = 0, and no other discriminant is within 10% of D = -4.)
BESSEL_NU = ("0", "1")
ZEROS_NU = ("0", "2")
Q_POOL = ("1/3", "2/3")
CHECK_NU = ("0", "1")
SHIFT_C = ("1/2", "3/4")
BESSELK_A = ("1", "2")
DISC_EVEN = ("-4",)        # dirichlet B=24 at 1024 bits
DISC_ODD = ("5", "8")      # dirichlet B=16 at 640 bits


@dataclass
class Inputs:
    """What a workload builds before its first pass: its jobs and check data."""

    jobs: list
    zero_table: object = None            # packaged Riemann table, 320 bits
    characters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable[["Job", dict, "Inputs"], Optional[str]]
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _cells(B: int) -> int:
    return (B + 1) * (B + 2) // 2


def check_certificate(job, report, inputs):
    if report.get("verdict") != "BOUNDED-PASS":
        return f"verdict {report.get('verdict')}"
    B = job.params["B"]
    if report.get("grid_bound") != B or len(report.get("cells", ())) != _cells(B):
        return f"expected {_cells(B)} cells for B={B}"
    return None


def check_exact_derivative(job, report, inputs):
    bad = check_certificate(job, report, inputs)
    if bad:
        return bad
    defect = report["metadata"].get("route_equality_max_defect")
    if defect != "0":
        return f"route_equality_max_defect = {defect}"
    return None


def _parse_bigfloat(s: str):
    from posroot.scalars import parse_bigfloat

    return parse_bigfloat(s).value


def check_riemann_scaling(job, report, inputs):
    """Certificate, plus lambda (or rho) agrees with the first zero of the setup table."""
    bad = check_certificate(job, report, inputs)
    if bad:
        return bad
    prec = job.params["precision"]
    gamma1 = inputs.zero_table.first.value
    with mpmath.workprec(prec + 32):
        if report["lambda"] is not None:
            got = _parse_bigfloat(report["lambda"]) * gamma1 ** 2
            want = mpmath.mpf(1025) / 1024
        else:
            got = _parse_bigfloat(report["rho"]) / gamma1 ** 2
            want = mpmath.mpf(1023) / 1024
        if abs(got - want) > mpmath.mpf(2) ** (16 - min(prec, 320)):
            return f"scaling bound {mpmath.nstr(got, 20)} != {mpmath.nstr(want, 20)}"
    return None


def check_dirichlet(job, report, inputs):
    bad = check_certificate(job, report, inputs)
    if bad:
        return bad
    chi = inputs.characters[job.params["discriminant"]]
    quad = report["metadata"].get("quadrature", {})
    if quad.get("modulus") != chi.modulus or quad.get("parity") != chi.parity:
        return f"quadrature metadata {quad.get('modulus')}/{quad.get('parity')} != {chi.label}"
    return None


def check_adversarial(job, report, inputs):
    draws = job.params["draws"]
    if report.get("detected") != draws:
        return f"detected {report.get('detected')}/{draws}"
    return None


def check_zeros(job, report, inputs):
    """Every zero matches mpmath.besseljzero to the run's precision."""
    prec = job.params["precision"]
    nu = Fraction(job.params["nu"])
    zeros = report.get("zeros", [])
    if len(zeros) != job.params["count"]:
        return f"{len(zeros)} zeros, expected {job.params['count']}"
    digits = max(8, int(prec * 0.3))   # the report prints this many digits
    with mpmath.workprec(prec + 32):
        tol = mpmath.mpf(10) ** (2 - digits)
        nu_mp = mpmath.mpf(nu.numerator) / nu.denominator
        for k, text in enumerate(zeros, start=1):
            want = mpmath.besseljzero(nu_mp, k)
            if abs(mpmath.mpf(text) - want) > tol * want:
                return f"zero #{k} = {text} differs from besseljzero"
    return None


def check_riemann_moments(job, report, inputs):
    """b_0 against -pi^(-1/4) Gamma(1/4) zeta(1/2) / 8; p_1 against the zero table."""
    from posroot.zeros import partial_power_sum_with_tail

    prec = job.params["precision"]
    with mpmath.workprec(prec + 32):
        b0 = _parse_bigfloat(report["moments"][0])
        b2 = _parse_bigfloat(report["moments"][1])
        err0 = _parse_bigfloat(report["errors"][0])
        want = -mpmath.pi ** (-mpmath.mpf(1) / 4) * mpmath.gamma(mpmath.mpf(1) / 4) \
            * mpmath.zeta(mpmath.mpf(1) / 2) / 8
        if abs(b0 - want) > err0 + mpmath.mpf(2) ** (16 - prec) * abs(want):
            return f"b_0 = {mpmath.nstr(b0, 30)} differs from the closed form"
        p1 = float(b2 / (2 * b0))
    s, tail = partial_power_sum_with_tail(inputs.zero_table, 1, "riemann", 320)
    if abs(p1 - (float(s) + float(tail))) > 5e-5:
        return f"p_1 = {p1} disagrees with the zero table"
    return None


def check_besselk_moments(job, report, inputs):
    """c_0 = integral_0^inf e^(-a cosh u) du = K_0(a)."""
    prec = job.params["precision"]
    a = Fraction(job.params["a"])
    with mpmath.workprec(prec + 32):
        c0 = _parse_bigfloat(report["moments"][0])
        err0 = _parse_bigfloat(report["errors"][0])
        want = mpmath.besselk(0, mpmath.mpf(a.numerator) / a.denominator)
        if abs(c0 - want) > err0 + mpmath.mpf(2) ** (16 - prec) * want:
            return f"c_0 = {mpmath.nstr(c0, 30)} differs from K_0({a})"
    return None


_TERM = re.compile(r"[+-]?[^+-]+")


def eval_ratfunc(text: str, point: dict) -> Fraction:
    """Evaluate a printed RationalFunction (``(num)/(den)`` or a polynomial) exactly."""
    if text.startswith("("):
        num, den = text[1:-1].split(")/(")
        return _eval_poly(num, point) / _eval_poly(den, point)
    return _eval_poly(text, point)


def _eval_poly(text: str, point: dict) -> Fraction:
    total = Fraction(0)
    for term in _TERM.findall(text):
        value = Fraction(1)
        if term[0] in "+-":
            value = Fraction(-1 if term[0] == "-" else 1)
            term = term[1:]
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in point:
                value *= point[name] ** int(power or 1)
            else:
                value *= Fraction(factor)
        total += value
    return total


def check_symbolic_power_sums(job, report, inputs):
    """Each p_k at the check point equals the exact numeric pipeline there."""
    from posroot.catalog import FunctionKind, FunctionSpec
    from posroot.symfun import power_sums_from_elementary

    kind = FunctionKind(job.params["function"])
    point = {k: Fraction(v) for k, v in job.params["point"].items()}
    params = dict(point)
    if kind is FunctionKind.QBESSEL:
        point["t_nu"] = point["q"] ** int(point["nu"])
    K = job.params["count"]
    exact = power_sums_from_elementary(
        FunctionSpec(kind, params=params, mode="exact").elementary(K), K)
    sums = report.get("power_sums", {})
    if len(sums) != K:
        return f"{len(sums)} power sums, expected {K}"
    for k in range(1, K + 1):
        if eval_ratfunc(sums[str(k)], point) != exact[k]:
            return f"p_{k} at {job.params['point']} differs from the exact pipeline"
    return None


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _certify(name, function, B, check, mode="moment", precision=None, flags=(), **extra):
    argv = ["certify", "--function", function, "--mode", mode, "--grid", str(B), *flags]
    params = {"B": B, "precision": precision}
    if precision:
        argv += ["--precision", str(precision)]
    for key, value in extra.items():
        argv += ["--" + key, str(value)]
        params[key] = str(value)
    return Job(name, tuple(argv), check, params)


def _powersums(name, function, K, point):
    argv = ("powersums", "--function", function, "--symbolic", "--count", str(K))
    return Job(name, argv, check_symbolic_power_sums,
               {"function": function, "count": K, "point": point})


def _moments(name, function, orders, precision, check, **extra):
    argv = ["moments", "--function", function, "--orders", str(orders),
            "--precision", str(precision)]
    params = {"precision": precision}
    for key, value in extra.items():
        argv += ["--" + key, str(value)]
        params[key] = str(value)
    return Job(name, tuple(argv), check, params)


def build_jobs(workload: str, seed: int, smoke: bool = False) -> list:
    """The job list of one workload; ``smoke`` shrinks every size to seconds in total."""
    rng = random.Random(seed)
    pick = rng.choice

    def size(full, tiny):
        return tiny if smoke else full

    if workload == "exact":
        nu, q1, q2, znu = pick(BESSEL_NU), pick(Q_POOL), pick(Q_POOL), pick(ZEROS_NU)
        draws, adv_grid = size(100, 3), size(24, 16)
        zcount, zprec = size(60, 4), size(160, 96)
        return [
            _certify("bessel.moment", "bessel", size(32, 8), check_certificate, nu=nu),
            _certify("bessel.derivative", "bessel", size(32, 6), check_exact_derivative,
                     mode="derivative", nu=nu),
            _certify("qbessel.derivative", "qbessel", size(24, 6), check_exact_derivative,
                     mode="derivative", q=q1, nu="0"),
            _certify("ramanujan.derivative", "ramanujan-aq", size(24, 6),
                     check_exact_derivative, mode="derivative", q=q2),
            _certify("sinc.derivative", "sinc", size(20, 6), check_exact_derivative,
                     mode="derivative"),
            Job("adversarial", ("adversarial", "--seed", str(seed), "--draws", str(draws),
                                "--grid", str(adv_grid)),
                check_adversarial, {"draws": draws}),
            Job("zeros", ("zeros", "--nu", znu, "--count", str(zcount),
                          "--precision", str(zprec)),
                check_zeros, {"nu": znu, "count": zcount, "precision": zprec}),
        ]
    if workload == "symbolic":
        q, nu = pick(Q_POOL), pick(CHECK_NU)
        return [
            _powersums("ramanujan.powersums.K8", "ramanujan-aq", size(8, 3), {"q": q}),
            _powersums("ramanujan.powersums.K10", "ramanujan-aq", size(10, 4), {"q": q}),
            _powersums("qbessel.powersums.K4", "qbessel", size(4, 2), {"q": q, "nu": nu}),
            _powersums("bessel.powersums.K12", "bessel", size(12, 4), {"nu": nu}),
            _certify("ramanujan.symbolic.certify", "ramanujan-aq", size(8, 3),
                     check_certificate, flags=("--symbolic",), q=q),
        ]
    if workload == "float-cells":
        c1, c2, a = pick(SHIFT_C), pick(SHIFT_C), pick(BESSELK_A)
        return [
            _certify("airy.derivative.B24", "airy", size(24, 6), check_certificate,
                     mode="derivative"),
            _certify("airy.derivative.B32", "airy", size(32, 8), check_certificate,
                     mode="derivative"),
            _certify("airy.moment", "airy", size(40, 8), check_certificate, precision=320),
            _certify("riemann.moment", "riemann-xi", size(40, 6), check_riemann_scaling,
                     precision=320),
            _certify("riemann.derivative", "riemann-xi", size(16, 4), check_riemann_scaling,
                     mode="derivative", precision=320),
            _certify("sinc.shifted-even", "sinc", size(12, 4), check_certificate,
                     mode="shifted-even", shift=c1),
            _certify("besselk.shifted-even", "bessel-k", size(8, 3), check_certificate,
                     mode="shifted-even", shift=c2, a=a),
        ]
    if workload == "xi-quadrature":
        d1, d2, a = pick(DISC_EVEN), pick(DISC_ODD), pick(BESSELK_A)
        p_hi, p_mid = size(1024, 256), size(640, 192)
        return [
            _certify("riemann.moment", "riemann-xi", size(24, 4), check_riemann_scaling,
                     precision=p_hi),
            _certify("dirichlet.moment.even", "dirichlet-xi", size(24, 4), check_dirichlet,
                     precision=p_hi, discriminant=d1),
            _certify("dirichlet.moment.odd", "dirichlet-xi", size(16, 4), check_dirichlet,
                     precision=p_mid, discriminant=d2),
            _moments("riemann.moments", "riemann-xi", size(16, 2), p_hi,
                     check_riemann_moments),
            _moments("besselk.moments", "bessel-k", size(16, 2), p_hi,
                     check_besselk_moments, a=a),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Set-up: the job list plus the characters and zero table its checks read."""
    from posroot.characters import kronecker_character
    from posroot.zeros import packaged_riemann_table

    inputs = Inputs(build_jobs(workload, seed, smoke))
    if any(j.check in (check_riemann_scaling, check_riemann_moments) for j in inputs.jobs):
        inputs.zero_table = packaged_riemann_table(precision=320)
    for job in inputs.jobs:
        if "discriminant" in job.params:
            D = job.params["discriminant"]
            inputs.characters[D] = kronecker_character(int(D))
    return inputs


def run_check(job: Job, data: bytes, inputs: Inputs) -> Optional[str]:
    try:
        return job.check(job, json.loads(data), inputs)
    except Exception as exc:  # a malformed report is a failed check, not a crash
        return f"check raised {type(exc).__name__}: {exc}"
