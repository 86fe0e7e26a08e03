import math
from dataclasses import replace
from fractions import Fraction as F
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import from_man_exp

from posroot.catalog import (
    FunctionKind,
    FunctionSpec,
    GridConfig,
    airy_coeffs,
    airy_raw_coefficient,
    besselk_moments,
    bessel_coeffs,
    dirichlet_evenness_defect,
    dirichlet_moments,
    dirichlet_phi,
    elementary_from_moments,
    phi_nonneg_scan,
    qbessel_coeffs,
    ramanujan_aq_coeffs,
    riemann_evenness_defect,
    riemann_moments,
    riemann_phi,
    sinc_coeffs,
)
from posroot import catalog
from posroot.characters import kronecker_character
from posroot.scalars import BigFloat, RationalFunction, ScalarError, bigfloat_str
from posroot.symfun import power_sums_from_elementary


def rf(sym):
    return RationalFunction.variable((sym,) if isinstance(sym, str) else sym,
                                     sym if isinstance(sym, str) else sym[0])


class TestClosedFormCoefficients:
    def test_sinc(self):
        e = sinc_coeffs(3)
        t = RationalFunction.variable(("t",), "t")
        assert e[0] == 1
        assert e[1] == t / 6
        assert e[3] == t ** 3 / 5040

    def test_bessel_symbolic(self):
        e = bessel_coeffs(None, 2)
        nu = RationalFunction.variable(("nu",), "nu")
        assert e[1] == 1 / (4 * (nu + 1))
        p = power_sums_from_elementary(e, 2)
        assert p[1] == 1 / (4 * (nu + 1))
        assert p[2] == 1 / (16 * (nu + 1) ** 2 * (nu + 2))

    def test_bessel_numeric_pole(self):
        from posroot.catalog import PoleAtParameter
        with pytest.raises(PoleAtParameter):
            bessel_coeffs(F(-3, 2), 3)

    def test_qbessel_symbolic_first(self):
        e = qbessel_coeffs(None, None, 1)
        syms = ("q", "t_nu")
        q = RationalFunction.variable(syms, "q")
        t = RationalFunction.variable(syms, "t_nu")
        assert e[0] == 1
        assert e[1] == q * t / ((1 - q) * (1 - q * t) * 4)

    def test_qbessel_numeric_half(self):
        e = qbessel_coeffs(F(1, 2), 0, 1)
        assert e[1] == F(1, 2)

    def test_symbolic_binding_matches_numeric(self):
        # (producer, numeric parameters, binding of the symbols, K)
        cases = [(bessel_coeffs, (nu,), {"nu": nu}, K)
                 for nu, K in ((F(0), 6), (F(1, 2), 3), (F(-2, 3), 8))]
        cases += [(qbessel_coeffs, (q, nu), {"q": q, "t_nu": q ** nu}, K)
                  for q, nu, K in ((F(1, 2), 0, 6), (F(1, 3), 2, 4), (F(3, 4), 1, 2))]
        cases += [(ramanujan_aq_coeffs, (q,), {"q": q}, K)
                  for q, K in ((F(1, 2), 6), (F(2, 3), 5), (F(1, 7), 3))]
        for produce, params, binding, K in cases:
            sym = produce(*[None] * len(params), K)
            num = produce(*params, K)
            assert sym.order == num.order == K
            for k in range(K + 1):
                assert sym[k].evaluate(binding) == num[k]

    def test_symbolic_terms_as_two_copy_recurrences_built_them(self):
        """The one-recurrence producers give the terms, in order, of the
        symbolic loops they replaced."""
        def reference(syms, step, K):
            one = RationalFunction.constant(syms, 1)
            xs = [RationalFunction.variable(syms, s) for s in syms]
            values, state = [one], (one, one)
            for k in range(1, K + 1):
                state, v = step(one, xs, state, k)
                values.append(v)
            return values

        def bessel(one, xs, state, k):
            poch = state[0] * (xs[0] + k)
            return (poch, one), RationalFunction.constant(
                ("nu",), F(1, factorial(k) * 4 ** k)) / poch

        def qbessel(one, xs, state, k):
            q, t = xs
            pq = state[0] * (one - q ** k)
            pqt = state[1] * (one - q ** k * t)
            return (pq, pqt), q ** (k * k) * t ** k / (pq * pqt * F(4 ** k))

        def ramanujan(one, xs, state, k):
            poch = state[0] * (one - xs[0] ** k)
            return (poch, one), xs[0] ** (k * k) / poch

        K = 6
        for got, want in ((bessel_coeffs(None, K), reference(("nu",), bessel, K)),
                          (qbessel_coeffs(None, None, K),
                           reference(("q", "t_nu"), qbessel, K)),
                          (ramanujan_aq_coeffs(None, K), reference(("q",), ramanujan, K))):
            for g, w in zip(got.values, want, strict=True):
                assert list(g.num.terms.items()) == list(w.num.terms.items())
                assert list(g.den.terms.items()) == list(w.den.terms.items())

    def test_numeric_parameter_errors(self):
        from posroot.catalog import PoleAtParameter
        for make in (lambda: bessel_coeffs(0, -1), lambda: bessel_coeffs(None, -1),
                     lambda: qbessel_coeffs(F(1, 2), 0, -1),
                     lambda: qbessel_coeffs(None, None, -1),
                     lambda: ramanujan_aq_coeffs(F(1, 2), -1),
                     lambda: ramanujan_aq_coeffs(None, -1)):
            with pytest.raises(ValueError):
                make()
        for nu in (-1, F(-5, 4), -3):
            with pytest.raises(PoleAtParameter):
                bessel_coeffs(nu, 2)
        for q in (0, 1, F(3, 2), F(-1, 2)):
            with pytest.raises(ValueError):
                qbessel_coeffs(q, 0, 2)
            with pytest.raises(ValueError):
                ramanujan_aq_coeffs(q, 2)
        for nu in (F(1, 2), -1):
            with pytest.raises(ValueError):
                qbessel_coeffs(F(1, 2), nu, 2)

    def test_ramanujan(self):
        e = ramanujan_aq_coeffs(None, 2)
        q = RationalFunction.variable(("q",), "q")
        assert e[1] == q / (1 - q)
        assert e[2] == q ** 4 / ((1 - q) * (1 - q ** 2))
        p = power_sums_from_elementary(e, 2)
        assert p[1] == q / (1 - q)
        # independent route: p2 = e1^2 - 2 e2
        assert p[2] == q ** 2 / (1 - q) ** 2 - 2 * q ** 4 / ((1 - q) * (1 - q ** 2))

    def test_ramanujan_numeric_half(self):
        p = power_sums_from_elementary(ramanujan_aq_coeffs(F(1, 2), 1), 1)
        assert p[1] == 1


class TestAiry:
    def test_a0_is_two_pi(self):
        a0 = airy_raw_coefficient(0, 256)
        with mpmath.workprec(300):
            assert abs(a0.value - 2 * mpmath.pi) < mpmath.mpf(2) ** -240

    def test_a1_closed_form(self):
        # a1/a0 = 4 pi^2 / (3 Gamma(1/3)^4), cross-checked below against the
        # Airy-zero sum; derivations that use
        # Gamma(1/6) = 2^(5/3) Gamma(1/3)^2 / (sqrt(3) sqrt(pi)) are off by 4/3
        a0 = airy_raw_coefficient(0, 256)
        a1 = airy_raw_coefficient(1, 256)
        with mpmath.workprec(300):
            expected = 4 * mpmath.pi ** 2 / (3 * mpmath.gamma(mpmath.mpf(1) / 3) ** 4)
            assert abs(a1.value / a0.value - expected) < mpmath.mpf(2) ** -240

    def test_e1_against_zero_sum_oracle(self):
        # independent oracle: e_1 = sum 1/i_n^2 over zeros i_n = 3^(1/3)|a_n|
        # of the scaled Airy function, partial sum plus asymptotic-density tail
        e = airy_coeffs(1, 128)
        with mpmath.workprec(80):
            N = 250
            s = mpmath.mpf(0)
            for n in range(1, N + 1):
                a = mpmath.airyaizero(n)
                s += 1 / (a * a)
            f = lambda n: (3 * mpmath.pi * (4 * n - 1) / 8) ** (mpmath.mpf(-4) / 3)
            tail = mpmath.quad(f, [N + 1, mpmath.inf]) + f(N + 1) / 2
            oracle = (s + tail) * 3 ** (-mpmath.mpf(2) / 3)
            assert abs(float(e[1]) - float(oracle)) < 5e-7

    def test_normalized(self):
        e = airy_coeffs(4, 192)
        assert e[0] == 1
        assert all(float(e[k]) > 0 for k in range(1, 5))


class TestBesselK:
    def test_c0_value(self):
        mr = besselk_moments(1, 4, 256)
        # independent oracle on a finer, longer grid: the strip bound asks more at 320 bits
        mr2 = besselk_moments(1, 4, 320)
        assert mr2.metadata["h_final"] < mr.metadata["h_final"]
        assert mr2.metadata["T"] > mr.metadata["T"]
        with mpmath.workprec(300):
            assert abs(mr[0].value - mr2[0].value) < mpmath.mpf(2) ** -230
            assert abs(float(mr[0].value) - 0.4210244382) < 1e-9
            # classical special value of the zeroth moment
            assert abs(mr[0].value - mpmath.besselk(0, 1)) < mpmath.mpf(2) ** -230

    def test_monotone_in_a(self):
        m1 = besselk_moments(1, 5, 192)
        m2 = besselk_moments(2, 5, 192)
        for n in range(6):
            assert m2[n] < m1[n]

    def test_positive(self):
        mr = besselk_moments(F(3, 2), 6, 192)
        assert all(v > 0 for v in mr.values)


class TestRiemannKernel:
    def test_positive_at_small_t(self):
        assert riemann_phi(F(1, 10), 192) > 0

    @pytest.mark.parametrize("t", [0.3, 0.7, 1.2])
    def test_evenness(self, t):
        d = riemann_evenness_defect(F(t).limit_denominator(10), 160)
        phi = riemann_phi(0, 160)
        assert float(d) <= float(phi) * 2.0 ** -150

    def test_fast_decrease(self):
        r = riemann_phi(3, 192) / riemann_phi(0, 192)
        assert float(r) < 1e-10

    def test_moments_match_closed_form(self):
        mr = riemann_moments(3, 256)
        with mpmath.workprec(320):
            oracle = (-mpmath.mpf(1) / 8 * mpmath.pi ** (-mpmath.mpf(1) / 4)
                      * mpmath.gamma(mpmath.mpf(1) / 4) * mpmath.zeta(mpmath.mpf(1) / 2))
            assert abs(mr[0].value - oracle) < mpmath.mpf(10) ** -60

    def test_moments_positive(self):
        mr = riemann_moments(8, 192)
        assert all(v > 0 for v in mr.values)

    def test_error_estimates_cover_refinement(self):
        mr1 = riemann_moments(4, 160)
        # a finer, longer grid: the strip bound asks more at 224 bits
        mr2 = riemann_moments(4, 224)
        assert mr2.metadata["h_final"] < mr1.metadata["h_final"]
        assert mr2.metadata["T"] > mr1.metadata["T"]
        for n in range(5):
            diff = abs(mr1[n].value - mr2[n].value)
            allowance = (mr1.errors[n].value + mr2.errors[n].value
                         + mpmath.mpf(2) ** -150 * abs(mr1[n].value))
            assert diff <= allowance * 4

    def test_first_power_sum(self):
        mr = riemann_moments(1, 192)
        p1 = float(mr[1].value / (2 * mr[0].value))
        assert abs(p1 - 0.0231050) < 5e-6


class TestDirichletKernel:
    def test_positive_at_sample(self):
        chi = kronecker_character(-4)
        assert dirichlet_phi(F(1, 5), chi, 160) > 0
        chi3 = kronecker_character(-3)
        assert dirichlet_phi(F(3, 2), chi3, 160) > 0

    @pytest.mark.parametrize("D", [-4, -3, 5])
    def test_evenness_theta_variant(self, D):
        chi = kronecker_character(D)
        d = dirichlet_evenness_defect(F(7, 10), chi, 160)
        scale = dirichlet_phi(0, chi, 160)
        assert float(d) <= abs(float(scale)) * 2.0 ** -140

    def test_printed_exponent_breaks_evenness_for_odd(self):
        chi = kronecker_character(-4)
        d = dirichlet_evenness_defect(F(7, 10), chi, 160, printed_exponent=True)
        assert float(d) > 1e-3

    def test_printed_exponent_fine_for_even(self):
        chi = kronecker_character(5)
        d = dirichlet_evenness_defect(F(7, 10), chi, 160, printed_exponent=True)
        scale = dirichlet_phi(0, chi, 160)
        assert float(d) <= abs(float(scale)) * 2.0 ** -140

    def test_b0_against_l_value(self):
        chi = kronecker_character(-4)
        mr = dirichlet_moments(chi, 2, 256)
        with mpmath.workprec(320):
            s = mpmath.mpf(1) / 2
            L = 4 ** (-s) * (mpmath.zeta(s, mpmath.mpf(1) / 4)
                             - mpmath.zeta(s, mpmath.mpf(3) / 4))
            oracle = (mpmath.pi / 4) ** (-mpmath.mpf(3) / 4) * mpmath.gamma(mpmath.mpf(3) / 4) * L
            assert abs(mr[0].value - oracle) < mpmath.mpf(10) ** -60

    def test_p1_equals_moment_ratio(self):
        chi = kronecker_character(-3)
        mr = dirichlet_moments(chi, 2, 192)
        e = elementary_from_moments(mr)
        p = power_sums_from_elementary(e, 2)
        expected = mr[1] / (2 * mr[0])
        assert abs(float(p[1] - expected)) < 1e-40


def reference_riemann_terms(t, eps_bits):
    """The Riemann theta kernel with one exponential per term (no recurrence)."""
    X = mpmath.exp(-2 * t)
    E9, E5 = mpmath.exp(-9 * t / 2), mpmath.exp(-5 * t / 2)
    twopi = 2 * mpmath.pi
    eps = mpmath.mpf(2) ** -eps_bits
    acc = maxab = mpmath.mpf(0)
    prev = None
    for n in range(1, catalog._THETA_TERMS + 1):
        term = twopi * (twopi * n ** 4 * E9 - 3 * n * n * E5) * mpmath.exp(-n * n * mpmath.pi * X)
        acc += term
        maxab = max(maxab, abs(term))
        if prev is not None and abs(term) < prev and abs(term) <= eps * (maxab + abs(acc)):
            return acc, n
        prev = abs(term)
    raise AssertionError("reference theta series did not converge")


def reference_dirichlet_terms(t, chi, two_c, eps_bits):
    """The character theta kernel with one exponential per term and exp(-c t) damping."""
    X = mpmath.exp(-2 * t)
    damp = mpmath.exp(-mpmath.mpf(two_c) / 2 * t)
    eps = mpmath.mpf(2) ** -eps_bits
    acc = maxab = mpmath.mpf(0)
    prev = None
    for n in range(1, catalog._THETA_TERMS + 1):
        if chi(n) == 0:
            continue
        term = n ** chi.parity * chi(n) * mpmath.exp(-n * n * mpmath.pi * X / chi.modulus)
        acc += term
        maxab = max(maxab, abs(term))
        if prev is not None and abs(term) < prev and abs(term) <= eps * (maxab + abs(acc)):
            return 2 * damp * acc, n
        prev = abs(term)
    raise AssertionError("reference character series did not converge")


def operator_theta_weights(q):
    """``_theta_weights`` written with ``mpf`` operators."""
    q2 = q * q
    r = w = q
    while True:
        yield w
        r *= q2
        w *= r


def operator_riemann_terms(t, eps_bits):
    """``_riemann_kernel_terms`` written with ``mpf`` operators."""
    E = mpmath.exp(-t / 2)
    E9 = E ** 9
    E5 = E ** 5
    X = E ** 4
    q = mpmath.exp(-mpmath.pi * X)
    twopi = 2 * mpmath.pi
    eps = mpmath.mpf(2) ** (-eps_bits)
    acc = mpmath.mpf(0)
    maxab = mpmath.mpf(0)
    prev = None
    for n, w in zip(range(1, catalog._THETA_TERMS + 1), operator_theta_weights(q)):
        term = twopi * (twopi * (n ** 4) * E9 - 3 * (n * n) * E5) * w
        acc += term
        at = abs(term)
        if at > maxab:
            maxab = at
        if prev is not None and at < prev and at <= eps * (maxab + abs(acc)):
            return acc, n
        prev = at
    raise AssertionError("operator theta series did not converge")


def operator_dirichlet_terms(t, chi, two_c, eps_bits):
    """``_dirichlet_kernel_terms`` written with ``mpf`` operators."""
    m = chi.modulus
    a = chi.parity
    E = mpmath.exp(-t / 2)
    q = mpmath.exp(-mpmath.pi * E ** 4 / m)
    damp = E ** two_c
    eps = mpmath.mpf(2) ** (-eps_bits)
    acc = mpmath.mpf(0)
    maxab = mpmath.mpf(0)
    prev = None
    for n, w in zip(range(1, catalog._THETA_TERMS + 1), operator_theta_weights(q)):
        c = chi(n)
        if c == 0:
            continue
        term = (n ** a) * c * w
        acc += term
        at = abs(term)
        if at > maxab:
            maxab = at
        if prev is not None and at < prev and at <= eps * (maxab + abs(acc)):
            return 2 * damp * acc, n
        prev = at
    raise AssertionError("operator character series did not converge")


def theta_error_bound(n, prec, t, *character):
    """The bound ``catalog._theta_sum`` states on a kernel's n-term sum at ``prec`` bits:
    ``(n^2 (48 X + 32) + 2^(1 - guard) n^7) 2^-prec S``; ``character`` is
    ``(chi, two_c)`` for the Dirichlet kernel and empty for the Riemann one."""
    with mpmath.workprec(prec + 64):
        X, pi = mpmath.exp(-2 * t), mpmath.pi
        if character:
            chi, two_c = character
            S = 2 * mpmath.exp(-mpmath.mpf(two_c) / 2 * t) * sum(
                k ** chi.parity * mpmath.exp(-k * k * pi * X / chi.modulus)
                for k in range(1, n + 1) if chi(k))
        else:
            A, B = 4 * pi ** 2 * mpmath.exp(-9 * t / 2), 6 * pi * mpmath.exp(-5 * t / 2)
            S = sum((A * k ** 4 + B * k * k) * mpmath.exp(-k * k * pi * X)
                    for k in range(1, n + 1))
        factor = n * n * (48 * X + 32) + mpmath.mpf(2) ** (1 - catalog._THETA_GUARD) * n ** 7
        return factor * mpmath.mpf(2) ** -prec * S


def _assert_within_bound(got, want, n, prec, args):
    """``got``, a kernel's n-term sum at ``prec`` bits from ``args`` (t, chi and two_c
    for the Dirichlet kernel, eps_bits), within the stated bound of ``want``, which
    carries the same bound 64 bits lower."""
    bound = theta_error_bound(n, prec, *args[:-1])
    with mpmath.workprec(prec + 64):
        assert abs(got - want) <= bound * (1 + mpmath.mpf(2) ** -64)


@settings(max_examples=40, deadline=None)
@given(st.fractions(-3, 3, max_denominator=64), st.integers(64, 1024),
       st.sampled_from([None, -4, 5, 8]))
@example(F(5, 2), 1024, 8)          # literal, the most terms
@example(F(-3), 64, None)           # tame, the weights vanish after the first
def test_kernels_within_the_stated_bound(t, precision, D):
    """Either kernel at a rational t, directly at ``precision + 48`` bits, against its
    one-exponential-per-term reference 64 bits higher: same term count, within the bound."""
    prec = precision + 48
    with mpmath.workprec(prec):
        tv = mpmath.mpf(t.numerator) / t.denominator
        if D is None:
            args, kernel, reference = (tv,), catalog._riemann_kernel_terms, reference_riemann_terms
        else:
            chi = kronecker_character(D)
            args = (tv, chi, 2 * chi.parity + 1)
            kernel, reference = catalog._dirichlet_kernel_terms, reference_dirichlet_terms
        got, n = kernel(*args, precision + 16)
        with mpmath.workprec(prec + 64):
            want, n_ref = reference(*args, precision + 16)
    assert n == n_ref
    _assert_within_bound(got, want, n, prec, (*args, precision + 16))


class TestThetaRecurrence:
    """The kernels' q^(n^2) recurrence against one exponential per term.

    Each kernel call is paired with the reference at the same working
    precision; the public value must agree to 2^-precision relative and
    the series must stop after the same number of terms.  The integer loops
    must also stay within the error bound ``catalog._theta_sum`` states of
    the same loops written with ``mpf`` operators 64 bits higher.
    """

    T_VALUES = (0, F(3, 10), 1, F(5, 2))

    @staticmethod
    def _paired(monkeypatch, name, reference):
        real = getattr(catalog, name)
        calls = []

        def both(*args):
            got = real(*args)
            calls.append((got, reference(*args)))
            return got

        monkeypatch.setattr(catalog, name, both)
        return calls

    @staticmethod
    def _paired_higher(monkeypatch, name, reference):
        """``_paired`` with ``reference`` run 64 bits higher; each entry is ``(args,
        prec, result, reference result)``."""
        real = getattr(catalog, name)
        calls = []

        def both(*args):
            got, prec = real(*args), mpmath.mp.prec
            with mpmath.workprec(prec + 64):
                calls.append((args, prec, got, reference(*args)))
            return got

        monkeypatch.setattr(catalog, name, both)
        return calls

    @staticmethod
    def _check(value, calls, precision):
        assert len(calls) == 1
        (got, n), (want, n_ref) = calls.pop()
        assert n == n_ref
        want = BigFloat(want, precision).value
        assert abs(value.value - want) <= mpmath.mpf(2) ** -precision * abs(want)

    @pytest.mark.parametrize("precision", [96, 320, 1024])
    def test_riemann(self, monkeypatch, precision):
        calls = self._paired(monkeypatch, "_riemann_kernel_terms", reference_riemann_terms)
        for t in self.T_VALUES:
            for even in (True, False):
                v = riemann_phi(t, precision, use_evenness=even)
                self._check(v, calls, precision)

    @pytest.mark.parametrize("precision", [96, 320, 1024])
    def test_dirichlet(self, monkeypatch, precision):
        calls = self._paired(monkeypatch, "_dirichlet_kernel_terms", reference_dirichlet_terms)
        for chi in (kronecker_character(-4), kronecker_character(5)):
            for printed in (False, True):
                for t in self.T_VALUES:
                    for even in (True, False):
                        v = dirichlet_phi(t, chi, precision, use_evenness=even,
                                          printed_exponent=printed)
                        self._check(v, calls, precision)

    @pytest.mark.parametrize("precision", [96, 320, 1024])
    def test_within_the_stated_bound_of_the_operator_loops(self, monkeypatch, precision):
        riemann = self._paired_higher(monkeypatch, "_riemann_kernel_terms",
                                      operator_riemann_terms)
        dirichlet = self._paired_higher(monkeypatch, "_dirichlet_kernel_terms",
                                        operator_dirichlet_terms)
        for t in self.T_VALUES:
            for even in (True, False):
                riemann_phi(t, precision, use_evenness=even)
                for D in (-4, 5):
                    dirichlet_phi(t, kronecker_character(D), precision, use_evenness=even)
        assert len(riemann) == 2 * len(self.T_VALUES)
        assert len(dirichlet) == 4 * len(self.T_VALUES)
        for args, prec, (got, n), (want, n_ref) in riemann + dirichlet:
            assert isinstance(got, mpmath.mpf)
            assert n == n_ref
            _assert_within_bound(got, want, n, prec, args)

    def test_two_exponentials_per_node(self, monkeypatch):
        calls = []
        real_exp = mpmath.exp

        def counting_exp(x):
            calls.append(x)
            return real_exp(x)

        monkeypatch.setattr(mpmath, "exp", counting_exp)
        runs = [lambda: riemann_moments(4, 160),
                lambda: dirichlet_moments(kronecker_character(-4), 4, 160),
                lambda: dirichlet_moments(kronecker_character(5), 4, 160)]
        for run in runs:
            calls.clear()
            mr = run()
            assert 0 < len(calls) <= 2 * mr.metadata["nodes"]


class TestScan:
    @pytest.mark.parametrize("D", [-4, -3])
    def test_scan_passes(self, D):
        chi = kronecker_character(D)
        rep = phi_nonneg_scan(chi, GridConfig(t_max=6.0, points=501), precision=96)
        assert rep.passed
        assert float(rep.min_value) >= 0

    def test_principal_rejected_upstream(self):
        from posroot.characters import NotFundamental
        with pytest.raises(NotFundamental):
            kronecker_character(1)


def _read_by(kind, params):
    """The entries of ``params`` that ``kind`` reads."""
    return {k: v for k, v in params.items() if k in catalog._REQUIRED_PARAMS[kind]}


class TestFunctionSpec:
    def test_exact_mode_limited_to_closed_forms(self):
        with pytest.raises(ScalarError):
            FunctionSpec(FunctionKind.RIEMANN_XI, mode="exact")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.BESSEL, params={"nu": F(-2)})
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": F(3, 2)})
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(-1)}, mode="float")

    def test_replaced_spec_holds_no_cached_moments(self):
        spec = FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)}, mode="float",
                            precision=128)
        assert spec.moments(2).precision == 128
        doubled = replace(spec, precision=256)
        assert doubled._moments is None
        assert doubled.moments(2).precision == 256

    def test_sinc_binding_matches_direct_float(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=192)
        e = spec.elementary(6)
        binding = spec.bindings()
        with mpmath.workprec(220):
            for k in range(1, 7):
                bound = e[k].evaluate(binding)
                direct = mpmath.pi ** (2 * k) / mpmath.factorial(2 * k + 1)
                assert abs(bound.value - direct) < mpmath.mpf(2) ** -180

    def test_cached_longer_moments_are_recomputed_at_the_request(self):
        from posroot.criterion import _spec_metadata

        spec = FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)}, mode="float",
                            precision=128)
        spec.moments(6)
        assert spec.elementary(2).order == 2
        fresh = FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)}, mode="float",
                             precision=128)
        fresh.elementary(2)
        assert _spec_metadata(spec) == _spec_metadata(fresh)
        assert len(_spec_metadata(spec)["moment_errors"]) == 3
        assert spec.moments(2) is spec.moments(2)

    def test_report_does_not_depend_on_an_earlier_call(self):
        # the B = 10 quadrature has its own T, grid and errors, and none of
        # them may reach a later B = 3 report on the same spec
        import io

        from posroot.cli import _write_json
        from posroot.criterion import LambdaPolicy, certify_moment

        policy = LambdaPolicy(kind="explicit", value=F(1, 100))

        def report_bytes(spec):
            buf = io.StringIO()
            _write_json(certify_moment(spec, 3, policy).as_dict(), buf)
            return buf.getvalue()

        def bessel_k():
            return FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)}, mode="float",
                                precision=128)

        used = bessel_k()
        certify_moment(used, 10, policy)
        assert report_bytes(used) == report_bytes(bessel_k())

    @pytest.mark.parametrize("kind, params, missing", [
        (FunctionKind.BESSEL, {}, "nu"),
        (FunctionKind.QBESSEL, {"nu": F(0)}, "q"),
        (FunctionKind.QBESSEL, {"q": F(1, 2)}, "nu"),
        (FunctionKind.RAMANUJAN_AQ, {}, "q"),
        (FunctionKind.BESSEL_K, {}, "a"),
        (FunctionKind.DIRICHLET_XI, {}, "chi"),
    ])
    @pytest.mark.parametrize("mode", [None, "float"])
    def test_missing_parameter_is_named(self, kind, params, missing, mode):
        with pytest.raises(ScalarError, match=f"needs the parameter {missing}$"):
            FunctionSpec(kind, params=params, mode=mode)

    @pytest.mark.parametrize("kind, mode, params, unread", [
        (FunctionKind.SINC, None, {"nu": F(3), "q": F(1, 2), "a": F(5)}, "a"),
        (FunctionKind.SINC, "float", {"q": F(1, 2)}, "q"),
        (FunctionKind.BESSEL, "ratfunc", {"chi": kronecker_character(-4)}, "chi"),
        (FunctionKind.RIEMANN_XI, None, {"nu": F(3)}, "nu"),
        (FunctionKind.AIRY_PRODUCT, None, {"q": F(1, 2)}, "q"),
        (FunctionKind.BESSEL_K, None, {"a": F(1), "q": F(1, 2)}, "q"),
        (FunctionKind.DIRICHLET_XI, None, {"chi": kronecker_character(5), "a": F(1)}, "a"),
    ])
    def test_unread_parameter_is_named(self, kind, mode, params, unread):
        with pytest.raises(ScalarError, match=f"^{kind.value} takes no parameter {unread}$"):
            FunctionSpec(kind, params=params, mode=mode)

    def test_ratfunc_mode_needs_no_parameter(self):
        assert FunctionSpec(FunctionKind.QBESSEL, mode="ratfunc").elementary(1).order == 1

    @pytest.mark.parametrize("kind, mode", [
        (FunctionKind.SINC, "ratfunc"),
        (FunctionKind.BESSEL, "exact"),
        (FunctionKind.QBESSEL, "exact"),
        (FunctionKind.RAMANUJAN_AQ, "exact"),
        (FunctionKind.AIRY_PRODUCT, "float"),
        (FunctionKind.BESSEL_K, "float"),
        (FunctionKind.RIEMANN_XI, "float"),
        (FunctionKind.DIRICHLET_XI, "float"),
    ])
    def test_default_mode(self, kind, mode):
        params = {"nu": F(0), "q": F(1, 2), "a": F(1), "chi": kronecker_character(-4)}
        assert FunctionSpec(kind, params=_read_by(kind, params)).mode == mode

    def test_moment_kinds_are_the_quadrature_kinds(self):
        params = {"nu": F(0), "q": F(1, 2), "a": F(1), "chi": kronecker_character(8)}
        for kind in FunctionKind:
            spec = FunctionSpec(kind, params=_read_by(kind, params), precision=64)
            if kind in catalog.MOMENT_KINDS:
                assert len(spec.moments(0)) == 1
            else:
                with pytest.raises(ScalarError, match="not moments"):
                    spec.moments(0)


class TestNodeSplit:
    """The node grid: the strip bound picks its spacing before any kernel value
    is computed, and a kernel error surfaces at its node."""

    def test_scan_first_minimum_wins(self, monkeypatch):
        # ties at grid points 11, 12 and 21
        def phi(t, chi, precision):
            return BigFloat(0 if round(10 * t) in (11, 12, 21) else 1, precision)

        monkeypatch.setattr(catalog, "dirichlet_phi", phi)
        rep = phi_nonneg_scan(kronecker_character(-4), GridConfig(t_max=3.0, points=31))
        assert rep.argmin == 11 * 0.1

    def test_not_converged(self, monkeypatch):
        monkeypatch.setattr(catalog, "_H_FLOOR_SCALE", catalog._H0 / 2 / catalog._CELL)
        with pytest.raises(catalog.QuadratureNotConverged, match="below the floor 0.125$"):
            besselk_moments(1, 4, 256)

    @pytest.mark.parametrize("halvings", [0, -1])
    def test_no_refinement_is_not_converged(self, monkeypatch, halvings):
        def kernel(t):
            raise AssertionError("a kernel value was computed")

        floor = catalog._H0 / 2 ** halvings     # at or above the widest spacing
        monkeypatch.setattr(catalog, "_H_FLOOR_SCALE", floor / catalog._CELL)
        with pytest.raises(catalog.QuadratureNotConverged, match=f"below the floor {floor}$"):
            catalog._even_line_moments(kernel, 2, 64, "never", catalog._BesselKMajorant(1.0, 64))

    @pytest.mark.parametrize("bad_t", [0.75, 1.0])  # fails at the first node from bad_t on
    def test_kernel_error_raised_here(self, bad_t):
        class KernelFailed(Exception):
            pass

        grid = []

        def recording(t):
            grid.append(t)
            return mpmath.exp(-mpmath.cosh(t))

        def run(kernel):
            return catalog._even_line_moments(kernel, 2, 64, "failing",
                                              catalog._BesselKMajorant(1.0, 64))

        assert run(recording).metadata["nodes"] == len(grid)
        node = min(t for t in grid if t >= bad_t)
        assert node < grid[-1]

        def kernel(t):
            if t == node:
                raise KernelFailed(t)
            return mpmath.exp(-mpmath.cosh(t))

        with pytest.raises(KernelFailed, match=str(node)):
            run(kernel)


def _with_strip_bounds(monkeypatch, change):
    """Run ``_strip_bounds`` and hand its (M, tail, goal) to ``change``; T passes as is."""
    strip_bounds = catalog._strip_bounds

    def changed(*args):
        T, *bounds = strip_bounds(*args)
        return (T, *change(*bounds))

    monkeypatch.setattr(catalog, "_strip_bounds", changed)


def _strip_error(s, log_M, log_tail, h):
    """Logs of the strip bound ``2M/(e^y - 1)``, ``y = 2 pi s/h``, plus the tail."""
    E = mpmath.exp
    return [float(mpmath.log(2 * E(m) / mpmath.expm1(2 * mpmath.pi * s / h) + E(t)))
            for m, t in zip(log_M, log_tail)]


class TestStripBound:
    """The a priori trapezoid bound: the spacing, recorded errors and the guard."""

    def test_understated_M_trips_the_guard(self, monkeypatch):
        cut = 200 * math.log(2)
        _with_strip_bounds(monkeypatch, lambda M, tail, goal: ([m - cut for m in M], tail, goal))
        with pytest.raises(catalog.QuadratureNotConverged, match="exceeds its strip bound"):
            riemann_moments(4, 256)

    @pytest.mark.parametrize("precision", [160, 256, 1024])
    def test_riemann_error_covers_closed_form(self, precision):
        mr = riemann_moments(1, precision)
        with mpmath.workprec(precision + 64):
            b0 = (-mpmath.pi ** (-mpmath.mpf(1) / 4) * mpmath.gamma(mpmath.mpf(1) / 4)
                  * mpmath.zeta(mpmath.mpf(1) / 2) / 8)
            assert abs(mr[0].value - b0) <= mr.errors[0].value
            # the bound is tight: rounding to the report precision dominates it
            assert mr.errors[0].value < b0 * mpmath.mpf(2) ** -precision

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("precision", [192, 512])
    def test_besselk_error_covers_closed_form(self, a, precision):
        mr = besselk_moments(a, 1, precision)
        with mpmath.workprec(precision + 64):
            c0 = mpmath.besselk(0, a)
            assert abs(mr[0].value - c0) <= mr.errors[0].value
            assert mr.errors[0].value < c0 * mpmath.mpf(2) ** -precision

    @pytest.mark.parametrize("run, precision", [
        (lambda p: riemann_moments(4, p), 256),
        (lambda p: dirichlet_moments(kronecker_character(-4), 4, p), 192),
        (lambda p: dirichlet_moments(kronecker_character(5), 4, p), 192),
        (lambda p: besselk_moments(1, 4, p), 192),
    ], ids=["riemann", "dirichlet-4", "dirichlet5", "besselk"])
    def test_error_covers_finer_reference(self, monkeypatch, run, precision):
        mr = run(precision)
        majorants, strip_bounds = [], catalog._strip_bounds
        monkeypatch.setattr(catalog, "_strip_bounds",
                            lambda maj, *args: majorants.append(maj) or strip_bounds(maj, *args))
        h = run(precision + 64).metadata["h_final"]
        # inflating M by e^(y + 1), y = 2 pi s/h, raises every moment's y by more
        # than y: the spacing at least halves
        boost = 2 * math.pi * majorants[-1].s / h + 1
        _with_strip_bounds(monkeypatch, lambda M, tail, goal: ([m + boost for m in M], tail, goal))
        ref = run(precision + 64)
        assert ref.metadata["h_final"] <= h / 2
        assert h <= mr.metadata["h_final"]
        with mpmath.workprec(precision + 128):
            for n in range(5):
                assert abs(mr[n].value - ref[n].value) <= mr.errors[n].value + ref.errors[n].value
                assert ref.errors[n].value < mr.errors[n].value * mpmath.mpf(2) ** -48

    # the spacing is the widest the strip bound allows: 2^-10 wider misses a goal;
    # the node counts are ceilings, so a longer cut-off or a narrower spacing shows
    @pytest.mark.parametrize("run, nodes", [
        (lambda: riemann_moments(25, 1024), 462),
        (lambda: riemann_moments(16, 1024), 453),
        (lambda: dirichlet_moments(kronecker_character(-4), 25, 1024), 561),
        (lambda: dirichlet_moments(kronecker_character(8), 17, 640), 365),
        (lambda: besselk_moments(2, 16, 1024), 561),
        (lambda: riemann_moments(41, 320), 155),
    ], ids=["riemann-K25-1024", "riemann-K16-1024", "dirichlet-4-K25-1024",
            "dirichlet8-K17-640", "besselk2-K16-1024", "riemann-K41-320"])
    def test_levels_of_the_xi_quadrature_jobs(self, monkeypatch, run, nodes):
        seen = []
        strip_bounds = catalog._strip_bounds

        def recording(majorant, *args):
            seen.append((majorant, strip_bounds(majorant, *args)))
            return seen[-1][1]

        monkeypatch.setattr(catalog, "_strip_bounds", recording)
        mr = run()
        [(majorant, (T, M, tail, goal))] = seen
        h = mr.metadata["h_final"]
        assert mr.metadata["levels_used"] == 1
        assert mr.metadata["nodes"] == math.floor(T / h) + 1 <= nodes
        assert all(b <= g for b, g in zip(_strip_error(majorant.s, M, tail, h), goal))
        wider = _strip_error(majorant.s, M, tail, h * (1 + 2 ** -10))
        assert any(b > g for b, g in zip(wider, goal))

    # node ceilings: the strip narrows as a grows (at s = 1.4 a = 1000, 50000 and
    # 100000 took 54, 592 and 591 nodes)
    @pytest.mark.parametrize("a, T", [(50, 1.875), (1000, 0.5), (50000, 0.125),
                                      (100000, 0.0625)])
    def test_besselk_converges_at_large_a(self, a, T):
        mr = besselk_moments(a, 2, 128)
        assert mr.metadata["T"] == T
        assert mr.metadata["nodes"] <= {50: 32, 1000: 37, 50000: 65, 100000: 46}[a]
        with mpmath.workprec(256):
            assert abs(mr[0].value - mpmath.besselk(0, a)) <= mr.errors[0].value

    @pytest.mark.parametrize("majorant", [
        catalog._RIEMANN_MAJORANT, catalog._BesselKMajorant(1.0, 64),
        catalog._BesselKMajorant(64.0, 1024)], ids=["riemann", "besselk1", "besselk64"])
    def test_spacing_floor_is_absolute_up_to_a_64(self, majorant):
        assert majorant.cell * catalog._H_FLOOR_SCALE == 2 ** -14

    def test_spacing_floor_follows_the_kernel_width(self):
        # at a = 10^9 the kernel is about 1/sqrt(a) wide, and its spacing lies
        # far below the theta kernels' floor 2^-14
        mr = besselk_moments(10 ** 9, 2, 64)
        assert mr.metadata["h_final"] < 2 ** -14
        assert mr.metadata["nodes"] <= 3437
        with mpmath.workprec(128):
            assert abs(mr[0].value - mpmath.besselk(0, 10 ** 9)) <= mr.errors[0].value

    @pytest.mark.parametrize("a, precision", [(1, 1024), (2, 1024), (64, 128), (50, 64)])
    def test_besselk_strip_is_wide_at_small_a(self, a, precision):
        assert catalog._BesselKMajorant(a, precision).s == 1.4

    @pytest.mark.parametrize("majorant, K, precision", [
        (catalog._RIEMANN_MAJORANT, 4, 256),
        (catalog._RIEMANN_MAJORANT, 41, 320),
        (catalog._BesselKMajorant(2.0, 1024), 16, 1024),
        (catalog._BesselKMajorant(50.0, 128), 2, 128),
        (catalog._BesselKMajorant(1000.0, 128), 2, 128),
    ], ids=["riemann-K4", "riemann-K41", "besselk2", "besselk50", "besselk1000"])
    def test_T_is_the_first_grid_point_whose_tail_meets_the_goal(self, majorant, K, precision):
        spare = catalog._T_SPARE * math.log(2)
        T, _, tail, goal = catalog._strip_bounds(majorant, K, precision)
        assert T > catalog._T_STEP and T % catalog._T_STEP == 0
        assert tail == catalog._tail(majorant, K, T)
        assert all(t <= g - spare for t, g in zip(tail, goal))
        shorter = catalog._tail(majorant, K, T - catalog._T_STEP)
        assert any(t > g - spare for t, g in zip(shorter, goal))


def _fraction(x):
    """A finite mpf as its exact Fraction."""
    man, exp = x.man_exp
    return F(man) * F(2) ** exp


class TestIntegerNodeSums:
    """The node sums are exact integers; the kernel values, their fixed-point
    conversion and the final scaling are the roundings left."""

    @settings(max_examples=300)
    @given(st.integers(-2 ** 80, 2 ** 80), st.integers(-120, 60), st.integers(-40, 200))
    @example(0, 0, 7)           # zero
    @example(5, -1, 0)          # 5/2 ties to 2
    @example(-7, -1, 0)         # -7/2 ties to -4
    @example(3, -2, 1)          # 3/2 ties to 2
    @example(-1, -2, 0)         # -1/4 rounds to 0
    def test_fixed_point_rounds_to_nearest(self, man, exp, shift):
        """round(x 2^F), ties to even, for both signs, zero, left and right shifts."""
        x = from_man_exp(man, exp)
        assert catalog._fixed_point(x, shift) == round(F(man) * F(2) ** (exp + shift))

    @pytest.mark.parametrize("h", [0.375, 0.1])
    def test_dyadic_kernel_sums_exactly(self, h):
        values = [F((-1) ** i * (2 * i + 1), 2 ** i) for i in range(9)]
        seen = []

        def kernel(t):
            seen.append(_fraction(t))
            v = values[len(seen) - 1]
            return mpmath.mpf(v.numerator) / v.denominator    # exact: dyadic

        K, shift = 5, 12
        with mpmath.workprec(128):
            even, odd = catalog._node_sums(kernel, mpmath.mpf(h)._mpf_, len(values), K, shift)
        assert seen == [F(h) * i for i in range(len(values))]
        for parity, sums in enumerate((even, odd)):
            assert sums == [sum((1 if i == 0 else 2) * v * 2 ** shift * i ** (2 * n)
                                for i, v in enumerate(values) if i % 2 == parity)
                            for n in range(K + 1)]

    @pytest.mark.parametrize("ulps", [1, 2 ** 8, 2 ** 40], ids=["1ulp", "2^8ulps", "2^40ulps"])
    @pytest.mark.parametrize("run", [
        lambda: riemann_moments(24, 1024),
        lambda: dirichlet_moments(kronecker_character(-4), 6, 192),
        lambda: besselk_moments(1, 6, 192),
    ], ids=["riemann", "dirichlet-4", "besselk"])
    def test_errors_do_not_follow_the_kernels_last_bits(self, monkeypatch, run, ulps):
        # every kernel value some ulps of the working precision up (one ulp is
        # below the node sums' fixed-point grid, 2^40 is 2^-(precision+24) of
        # the value): a moment whose value does not move keeps its recorded
        # error, bit for bit
        base, even_line_moments = run(), catalog._even_line_moments

        def perturbed(kernel, *args, **kw):
            def up(t):
                w = kernel(t)
                _, man, exp, bc = w._mpf_
                return w + ulps * mpmath.ldexp(1, exp + bc - mpmath.mp.prec) if man else w
            return even_line_moments(up, *args, **kw)

        monkeypatch.setattr(catalog, "_even_line_moments", perturbed)
        moved = run()
        kept = [n for n in range(len(base)) if bigfloat_str(moved[n]) == bigfloat_str(base[n])]
        assert kept
        assert [bigfloat_str(moved.errors[n]) for n in kept] == \
            [bigfloat_str(base.errors[n]) for n in kept]

    @pytest.mark.parametrize("unit", [1, -1])
    @pytest.mark.parametrize("run", [
        lambda: riemann_moments(8, 256),
        lambda: dirichlet_moments(kronecker_character(-4), 6, 192),
        lambda: besselk_moments(1, 6, 192),
    ], ids=["riemann", "dirichlet-4", "besselk"])
    def test_every_unit_off_stays_within_the_errors(self, monkeypatch, run, unit):
        base, fixed, calls = run(), catalog._fixed_point, []

        def off(x, shift):
            calls.append(shift)
            return fixed(x, shift) + unit

        monkeypatch.setattr(catalog, "_fixed_point", off)
        moved = run()
        assert len(calls) == base.metadata["nodes"]
        with mpmath.workprec(base.precision + 64):
            for n in range(len(base)):
                assert abs(moved[n].value - base[n].value) <= base.errors[n].value
