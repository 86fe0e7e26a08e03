"""Acceptance suite: one test per release criterion, fixed tolerances.

Each test appends a PASS/FAIL line to the terminal summary.  Tolerances are
pinned here and nowhere else; every expected value is produced by an
independent oracle inside the test (direct summation, scaled-integer sums
with Euler-Maclaurin tails, alternating-series acceleration, AGM identities,
zero tables) rather than by the code path under test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial

import mpmath
import pytest
from mpmath import mpf, workprec

from conftest import acceptance_results

from posroot.catalog import (
    FunctionKind,
    FunctionSpec,
    GridConfig,
    phi_nonneg_scan,
    riemann_moments,
    sinc_coeffs,
)
from posroot.characters import kronecker_character
from posroot.criterion import (
    LambdaPolicy,
    adversarial_run,
    b_closed_form_power_sum,
    b_recurrence_power_sums,
    certify_moment,
    certify_shifted_even,
    draw_adversarial_spec,
    explicit_p_formulas,
    power_sums_from_moment_list,
    route_equality_defect,
    shifted_reduced_series,
)
from posroot.scalars import BigFloat, RationalFunction
from posroot.symfun import power_sums_closed_form, power_sums_from_elementary
from posroot.zeros import bessel_zeros, packaged_riemann_table, partial_power_sum_with_tail

from test_symfun import direct_power_sums, elementary_of


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        acceptance_results.append(f"[FAIL] criterion {n:2d}: {label}")
        raise
    acceptance_results.append(f"[PASS] criterion {n:2d}: {label}")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_newton_engine_exactness():
    with criterion(1, "Newton engine exactness on 200 random rational vectors"):
        t0 = time.monotonic()
        rng = random.Random(10001)
        for trial in range(200):
            K = rng.randint(1, 12)
            N = rng.randint(1, 8)
            roots = [F(rng.randint(-30, 30), rng.randint(1, 23)) for _ in range(N)]
            e = elementary_of(roots, K)
            p = power_sums_from_elementary(e, K)
            direct = direct_power_sums(roots, K)
            for k in range(1, K + 1):
                assert p[k] == direct[k - 1]
                assert power_sums_closed_form(e, k) == direct[k - 1]
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -- criterion 2 -------------------------------------------------------------

_BERNOULLI = {2: F(1, 6), 4: F(-1, 30), 6: F(1, 42), 8: F(-1, 30)}


def zeta_even_oracle(s: int, N: int = 10 ** 6, bits: int = 360):
    """zeta(s) for even s >= 2 by direct summation plus Euler-Maclaurin tail.

    The partial sum is done in scaled integers (floor(2^bits / n^s)), the
    tail analytically:  N^(1-s)/(s-1) - N^(-s)/2
    + sum_r B_2r/(2r)! * s(s+1)..(s+2r-2) * N^(-s-2r+1).
    """
    acc = 0
    scale = 1 << bits
    for n in range(1, N + 1):
        acc += scale // n ** s
    tail = F(1, (s - 1) * N ** (s - 1)) - F(1, 2 * N ** s)
    for r in (1, 2, 3, 4):
        poch = 1
        for i in range(2 * r - 1):
            poch *= s + i
        tail += _BERNOULLI[2 * r] / factorial(2 * r) * poch * F(1, N ** (s + 2 * r - 1))
    with workprec(bits + 16):
        return mpf(acc) / scale + mpf(tail.numerator) / tail.denominator


def test_criterion_2_zeta_even_values():
    with criterion(2, "zeta(2k) from the sinc pipeline to 1e-20 at 256 bits"):
        e = sinc_coeffs(5)
        p = power_sums_from_elementary(e, 5)
        with workprec(300):
            pi2 = BigFloat(mpmath.pi ** 2, 256)
        for k in range(1, 6):
            got = p[k].evaluate({"t": pi2})  # equals the zeta value at 2k
            oracle = zeta_even_oracle(2 * k)
            with workprec(300):
                diff = abs(got.value - oracle)
                assert diff < mpf(10) ** -20, f"k={k}: diff {diff}"


# -- criterion 3 -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_3_rayleigh_sums():
    with criterion(3, "Rayleigh sums: symbolic p1, p2 and the 200-zero oracle"):
        e = FunctionSpec(FunctionKind.BESSEL, mode="ratfunc").elementary(2)
        p = power_sums_from_elementary(e, 2)
        nu = RationalFunction.variable(("nu",), "nu")
        assert p[1] == 1 / (4 * (nu + 1))
        assert p[2] == 1 / (16 * (nu + 1) ** 2 * (nu + 2))
        table = bessel_zeros(0, 200, 160)
        s1, tail1 = partial_power_sum_with_tail(table, 1, "bessel", 160)
        assert abs(float(s1) - 0.25) <= float(tail1)
        s2, _ = partial_power_sum_with_tail(table, 2, "bessel", 160)
        assert abs(float(s2) - float(F(1, 32))) < 1e-6


# -- criterion 4 -------------------------------------------------------------


def eta_alternating(s, terms: int, prec: int):
    """Alternating zeta by the Cohen-Rodriguez Villegas-Zagier acceleration."""
    with workprec(prec):
        n = terms
        d = (3 + mpmath.sqrt(8)) ** n
        d = (d + 1 / d) / 2
        b = mpf(-1)
        c = -d
        s_acc = mpf(0)
        for k in range(n):
            c = b - c
            s_acc += c * mpf(k + 1) ** (-s)
            b = b * (k + n) * (k - n) / ((k + mpf(1) / 2) * (k + 1))
        return s_acc / d


def test_criterion_4_riemann_moments():
    with criterion(4, "Riemann moments: b0 closed form to 1e-20, p1 vs zero table"):
        t0 = time.monotonic()
        mr = riemann_moments(1, 320)
        with workprec(400):
            # zeta(1/2) from the accelerated alternating series,
            # Gamma(1/4) from the arithmetic-geometric mean identity
            eta = eta_alternating(mpf(1) / 2, 220, 400)
            zeta_half = eta / (1 - mpmath.sqrt(2))
            gamma_quarter = mpmath.sqrt(
                2 * mpmath.pi * mpmath.sqrt(2 * mpmath.pi)
                / mpmath.agm(1, mpmath.sqrt(2)))
            oracle_b0 = -mpf(1) / 8 * mpmath.pi ** (-mpf(1) / 4) * gamma_quarter * zeta_half
            assert abs(mr[0].value - oracle_b0) < mpf(10) ** -20
            p1 = mr[1].value / (2 * mr[0].value)
        table = packaged_riemann_table(limit=10000, precision=256)
        assert len(table) >= 1000
        s, tail = partial_power_sum_with_tail(table, 1, "riemann", 256)
        oracle_p1 = float(s) + float(tail)
        assert abs(float(p1) - oracle_p1) <= 5e-5  # 3 significant digits
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_route_equality_all_catalog():
    with criterion(5, "derivative-form vs difference-route equality, j+k <= 12"):
        exact_specs = [
            (FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=256),
             F(1023, 1024)),
            (FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)},
                          mode="exact", precision=256), None),
            (FunctionSpec(FunctionKind.QBESSEL, params={"q": F(1, 2), "nu": F(0)},
                          mode="exact", precision=256), None),
            (FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": F(1, 2)},
                          mode="exact", precision=256), None),
        ]
        for spec, rho in exact_specs:
            defect = route_equality_defect(spec, 12, rho)
            assert defect == 0, f"{spec.label}: defect {defect}"
        float_specs = [
            FunctionSpec(FunctionKind.AIRY_PRODUCT, mode="float", precision=256),
            FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)},
                         mode="float", precision=256),
            FunctionSpec(FunctionKind.RIEMANN_XI, mode="float", precision=320),
            FunctionSpec(FunctionKind.DIRICHLET_XI,
                         params={"chi": kronecker_character(-4)},
                         mode="float", precision=320),
        ]
        for spec in float_specs:
            defect = route_equality_defect(spec, 12)
            # cells reach (j+k)! ~ 5e8; measure the defect against that scale
            bound = 2.0 ** (-spec.precision // 2) * float(factorial(12))
            assert float(defect) <= bound, f"{spec.label}: defect {float(defect)}"


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_bounded_certificates_positive_functions():
    with criterion(6, "bounded certificates PASS for proven-positive catalog"):
        runs = []
        sinc = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=256)
        runs.append(certify_moment(sinc, 20,
                                   LambdaPolicy(kind="explicit", value=F(1))))
        for nu in (F(0), F(1, 2), F(3)):
            spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": nu},
                                mode="exact", precision=256)
            table = bessel_zeros(nu, 1, 256)
            runs.append(certify_moment(
                spec, 20, LambdaPolicy(kind="zero-table", table=table)))
        for q in (F(1, 4), F(1, 2)):
            spec = FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": q},
                                mode="exact", precision=256)
            runs.append(certify_moment(spec, 20))
        runs.append(certify_moment(
            FunctionSpec(FunctionKind.QBESSEL, params={"q": F(1, 2), "nu": F(0)},
                         mode="exact", precision=256), 20))
        for rep in runs:
            counts = rep.counts()
            assert counts["NEGATIVE"] == 0, rep.function
            assert counts["INDETERMINATE"] == 0, rep.function
            assert rep.verdict == "BOUNDED-PASS"
            assert counts["NONNEGATIVE"] == 21 * 22 // 2


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_riemann_dirichlet_certificates():
    with criterion(7, "Riemann B=16 and Dirichlet B=12 certificates at 320 bits"):
        table = packaged_riemann_table(limit=1000, precision=320)
        riemann = FunctionSpec(FunctionKind.RIEMANN_XI, mode="float", precision=320)
        rep = certify_moment(riemann, 16,
                             LambdaPolicy(kind="zero-table", table=table))
        assert rep.counts()["NEGATIVE"] == 0, "negative cell in the Riemann run"
        assert rep.verdict == "BOUNDED-PASS"
        for D in (-4, -3):
            chi = kronecker_character(D)
            scan = phi_nonneg_scan(chi, GridConfig(t_max=6.0, points=10001),
                                   precision=128)
            assert scan.passed, f"kernel scan failed for D={D}"
            spec = FunctionSpec(FunctionKind.DIRICHLET_XI, params={"chi": chi},
                                mode="float", precision=320)
            rep = certify_moment(spec, 12)
            assert rep.counts()["NEGATIVE"] == 0, f"negative cell for D={D}"
            assert rep.verdict == "BOUNDED-PASS"


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_adversarial_detection():
    with criterion(8, "100/100 planted defects detected at j+k <= 24; controls pass"):
        rng = random.Random(80808)
        detected = 0
        control_pass = 0
        for _ in range(100):
            spec = draw_adversarial_spec(rng)
            assert abs(spec.defects[0].re) >= spec.lam / 4
            rep, depth = adversarial_run(spec, 24)
            if depth is not None and depth <= 24:
                detected += 1
            rep_c, depth_c = adversarial_run(spec, 24, include_defects=False)
            if rep_c.verdict == "BOUNDED-PASS" and depth_c is None:
                control_pass += 1
        assert detected == 100, f"only {detected}/100 detected"
        assert control_pass == 100, f"only {control_pass}/100 controls passed"


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_explicit_formulas():
    with criterion(9, "explicit low-order moment formulas match the pipeline"):
        rng = random.Random(90909)
        for _ in range(200):
            b = [F(rng.randint(1, 99), rng.randint(1, 13))] + \
                [F(rng.randint(-99, 99), rng.randint(1, 13)) for _ in range(4)]
            pe = explicit_p_formulas(b, 4)
            pg = power_sums_from_moment_list(b, 4)
            pr = b_recurrence_power_sums(b, 4)
            for k in range(1, 5):
                assert pe[k] == pg[k]
                assert pr[k] == pg[k]
                assert b_closed_form_power_sum(b, k) == pg[k]


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_shifted_even_runs():
    with criterion(10, "shifted-even certificates at B=8 and zero-shift identity"):
        sinc = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=256)
        for c in (F(0), F(1, 2), F(1)):
            rep = certify_shifted_even(sinc, c, 8)
            assert rep.counts()["NEGATIVE"] == 0, f"sinc shift c={c}"
            assert rep.verdict == "BOUNDED-PASS"
        kiz = FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)},
                           mode="float", precision=256)
        rep = certify_shifted_even(kiz, F(1, 2), 8)
        assert rep.counts()["NEGATIVE"] == 0, "bessel-k shift c=1/2"
        assert rep.verdict == "BOUNDED-PASS"
        # zero shift reproduces the unshifted reduced series
        from posroot.catalog import sinc_even_series
        G = sinc_even_series(48, 256)
        f0 = shifted_reduced_series(G, F(0), 256)
        direct = sinc.series(24)
        binding = sinc.bindings()
        with workprec(300):
            for k in range(20):
                want = direct[k]
                if isinstance(want, RationalFunction):
                    want = want.evaluate(binding)
                else:
                    want = BigFloat(F(want), 256)
                assert abs((f0[k] - want).value) < mpf(2) ** -200, f"coefficient {k}"


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_report_determinism(tmp_path):
    with criterion(11, "byte-identical reports for identical configs"):
        from posroot.cli import main
        pairs = [
            ["certify", "--function", "qbessel", "--q", "1/2", "--nu", "0",
             "--grid", "8", "--precision", "256"],
            ["certify", "--function", "riemann-xi", "--grid", "3",
             "--precision", "256"],
            ["adversarial", "--seed", "42", "--draws", "3", "--grid", "16",
             "--base-count", "24"],
        ]
        for i, args in enumerate(pairs):
            a = tmp_path / f"a{i}.json"
            b = tmp_path / f"b{i}.json"
            assert main(args + ["--output", str(a)]) == 0
            assert main(args + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), f"run {args} not deterministic"
