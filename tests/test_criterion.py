import json
import random
from fractions import Fraction as F
from math import comb, factorial

import mpmath
import pytest
from mpmath.libmp import from_man_exp
from hypothesis import given, settings, strategies as st

from posroot import criterion, hausdorff
from posroot.catalog import FunctionKind, FunctionSpec, sinc_even_series
from posroot.criterion import (
    AdversarialSpec,
    BoundPolicy,
    Defect,
    LambdaPolicy,
    RhoPolicy,
    SAFETY_DOWN,
    SeriesSpec,
    ZeroB0,
    _even_source_series,
    _first_root_bound,
    adversarial_power_sums,
    adversarial_run,
    b_closed_form_power_sum,
    b_recurrence_power_sums,
    certify_derivative,
    certify_moment,
    certify_shifted_even,
    draw_adversarial_spec,
    explicit_p_formulas,
    power_sums_from_moment_list,
    route_equality_defect,
    shifted_reduced_series,
)
from posroot.scalars import BigFloat, RationalFunction, _mpf_to_fraction, serialize_scalar
from posroot.series import TruncatedSeries, power_sums_from_log_derivative
from posroot.zeros import bessel_zeros

from test_symfun import direct_power_sums


class TestCertifyMoment:
    def test_sinc_symbolic(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=192)
        rep = certify_moment(spec, 8)
        assert rep.verdict == "BOUNDED-PASS"
        assert rep.lam == F(1)
        assert rep.counts()["NONNEGATIVE"] == 9 * 10 // 2

    def test_bessel_zero_table_lambda_stays_exact(self):
        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)},
                            mode="exact", precision=192)
        table = bessel_zeros(0, 1, 192)
        rep = certify_moment(spec, 8, LambdaPolicy(kind="zero-table", table=table))
        assert rep.verdict == "BOUNDED-PASS"
        assert isinstance(rep.lam, F)  # dyadic rational keeps the table exact
        assert all(isinstance(c.value, F) for c in rep.cells)

    def test_ramanujan_coefficient_bound(self):
        spec = FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": F(1, 2)},
                            mode="exact", precision=192)
        rep = certify_moment(spec, 10)
        assert rep.verdict == "BOUNDED-PASS"
        assert rep.lam == F(1)  # e_1 = q/(1-q) at q = 1/2

    def test_qbessel(self):
        spec = FunctionSpec(FunctionKind.QBESSEL, params={"q": F(1, 2), "nu": F(0)},
                            mode="exact", precision=192)
        rep = certify_moment(spec, 10)
        assert rep.verdict == "BOUNDED-PASS"
        assert rep.lam == F(1, 2)

    def test_negative_grid_rejected(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc")
        with pytest.raises(ValueError):
            certify_moment(spec, -1)
        with pytest.raises(ValueError):
            certify_derivative(spec, -1)
        with pytest.raises(ValueError):
            certify_shifted_even(spec, F(1, 2), -1)


class TestCertifyDerivative:
    def test_explicit_two_roots(self):
        spec = SeriesSpec(TruncatedSeries([F(1), F(-5, 6), F(1, 6)]))
        rep = certify_derivative(
            spec, 10, RhoPolicy(kind="explicit", value=F(2) * F(1023, 1024)))
        assert rep.verdict == "BOUNDED-PASS"
        assert rep.metadata["route_equality_max_defect"] == "0"

    def test_planted_negative_root_fails(self):
        # f = (1+z/2)(1-z/3): sequence {-1/2, 1/3}; oracle from direct sums
        f = TruncatedSeries([F(1), -(F(-1, 2) + F(1, 3)), F(-1, 2) * F(1, 3)])
        spec = SeriesSpec(f)
        rep = certify_derivative(spec, 8, RhoPolicy(kind="explicit", value=F(2)))
        assert rep.verdict == "FAIL"
        # brute-force oracle: some difference cell of the scaled sums is negative
        p = direct_power_sums([F(-1, 2), F(1, 3)], 10)
        from posroot.hausdorff import derivative_cells_from_power_sums
        from posroot.symfun import PowerSumSequence
        cells = derivative_cells_from_power_sums(PowerSumSequence(p), F(2), 8)
        assert any(v > 0 for v in cells.values())

    @pytest.mark.parametrize("B", [4, 12])
    def test_log_derivative_built_at_most_twice(self, monkeypatch, B):
        import posroot.hausdorff
        import posroot.series

        calls = []
        original = posroot.series.log_derivative_series

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(posroot.hausdorff, "log_derivative_series", counting)
        monkeypatch.setattr(posroot.series, "log_derivative_series", counting)
        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact")
        rep = certify_derivative(spec, B)
        assert rep.verdict == "BOUNDED-PASS"
        assert len(rep.cells) == (B + 1) * (B + 2) // 2
        assert len(calls) <= 2

    def test_catalog_coefficients_built_once(self, monkeypatch):
        # Each producer is reached through its module attribute, where the
        # benchmark tracer wraps it.
        import posroot.catalog

        for name, kind, params in (
                ("bessel_coeffs", FunctionKind.BESSEL, {"nu": F(0)}),
                ("qbessel_coeffs", FunctionKind.QBESSEL, {"q": F(1, 2), "nu": F(0)}),
                ("ramanujan_aq_coeffs", FunctionKind.RAMANUJAN_AQ, {"q": F(1, 2)})):
            calls = []
            original = getattr(posroot.catalog, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(posroot.catalog, name, counting)
            spec = FunctionSpec(kind, params=params, mode="exact")
            rep = certify_derivative(spec, 6)
            assert rep.verdict == "BOUNDED-PASS"
            assert len(calls) == 1
            calls.clear()
            assert route_equality_defect(spec, 6) == 0
            assert len(calls) == 1

    def test_sinc_symbolic_derivative(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=192)
        rep = certify_derivative(spec, 6, RhoPolicy(kind="explicit",
                                                    value=F(1023, 1024)))
        assert rep.verdict == "BOUNDED-PASS"
        assert rep.metadata["route_equality_max_defect"] == "0"

    def test_route_equality_defect_binds_symbols(self):
        # the coefficient-bound rho needs e_1 at the binding nu = 1/2
        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": F(1, 2)}, mode="ratfunc",
                            precision=128)
        assert certify_derivative(spec, 4).metadata["route_equality_max_defect"] == "0"
        assert route_equality_defect(spec, 4) == 0

    @pytest.mark.parametrize("spec, B", [
        (FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact"), 8),
        (FunctionSpec(FunctionKind.SINC, mode="ratfunc"), 6),
        (FunctionSpec(FunctionKind.AIRY_PRODUCT, mode="float", precision=128), 8),
        (FunctionSpec(FunctionKind.QBESSEL, params={"q": F(1, 2), "nu": F(1)},
                      mode="ratfunc"), 4),
    ], ids=["exact", "ratfunc", "float", "ratfunc-two-symbols"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_perturbed_log_derivative_power_sum_raises(self, monkeypatch, spec, B, k):
        # the route equality is 0 for any p; the Newton check is not, and in
        # floats it sees a p_k moved by one unit in the last place; q-Bessel
        # power sums are fractions over Q(q, t_nu)
        real = criterion.power_sums_from_log_derivative

        def perturbed(f, K):
            p = list(real(f, K).values)
            x = p[k - 1]
            p[k - 1] = one_ulp_up(x) if isinstance(x, BigFloat) else x + F(1, 10 ** 9)
            return criterion.PowerSumSequence(p)

        monkeypatch.setattr(criterion, "power_sums_from_log_derivative", perturbed)
        with pytest.raises(criterion.ScalarError, match=rf"p_{k} differs"):
            certify_derivative(spec, B, RhoPolicy(kind="explicit", value=F(1, 100)))

    def test_riemann_derivative_route(self):
        from posroot.zeros import packaged_riemann_table
        table = packaged_riemann_table(limit=10, precision=256)
        spec = FunctionSpec(FunctionKind.RIEMANN_XI, mode="float", precision=256)
        rep = certify_derivative(spec, 6, RhoPolicy(kind="zero-table", table=table))
        assert rep.verdict == "BOUNDED-PASS"
        defect = rep.metadata["route_equality_max_defect"]
        from posroot.scalars import parse_bigfloat
        assert float(parse_bigfloat(defect)) < 2.0 ** -100


def one_ulp_up(x: BigFloat) -> BigFloat:
    """``x`` (nonzero) moved one unit in its last place, away from zero."""
    sign, man, exp, bc = x.value._mpf_
    shift = x.prec - bc
    mag = (man << shift) + 1
    y = BigFloat(mpmath.mp.make_mpf(from_man_exp(-mag if sign else mag, exp - shift)), x.prec)
    assert y != x and _mpf_to_fraction(y.value - x.value) != 0
    return y


class TestResolveBound:
    @pytest.mark.parametrize("form, err", [("lambda", criterion.LambdaUnavailable),
                                           ("rho", criterion.RhoUnavailable)])
    def test_errors_name_the_form(self, form, err):
        e = criterion.ElementarySequence([F(1), F(-1, 4)])
        cases = [(BoundPolicy(kind="explicit"), f"explicit {form} policy without a value"),
                 (BoundPolicy(kind="zero-table"), f"zero-table {form} policy without a table"),
                 (BoundPolicy(), "coefficient bound e_1 = -1/4 not positive"),
                 (BoundPolicy(kind="nearest"), f"unknown {form} policy 'nearest'")]
        for policy, message in cases:
            with pytest.raises(err, match=f"^{message}$"):
                criterion.resolve_bound(policy, form, e, None, True, 128)

    def test_first_root_is_a_rho_policy_only(self):
        e = criterion.ElementarySequence([F(1), F(1, 4)])
        with pytest.raises(criterion.LambdaUnavailable, match="unknown lambda policy"):
            criterion.resolve_bound(BoundPolicy(kind="first-root"), "lambda", e, None, True, 128)

    def test_one_policy_type(self):
        assert LambdaPolicy is RhoPolicy is BoundPolicy

    @pytest.mark.parametrize("form", ["lambda", "rho"])
    def test_coefficient_bound_values(self, form):
        e = criterion.ElementarySequence([F(1), F(3, 4)])
        want = F(3, 4) if form == "lambda" else SAFETY_DOWN / F(3, 4)
        assert criterion.resolve_bound(BoundPolicy(), form, e, None, True, 128)[0] == want
        e = criterion.ElementarySequence([F(1), BigFloat(F(3, 4), 128)])
        got, prov = criterion.resolve_bound(BoundPolicy(), form, e, None, True, 128)
        assert prov.endswith(" [exact dyadic]")
        assert type(got) is F and (form == "lambda") == (got == F(3, 4))

    def test_bound_in_domain(self):
        x = mpmath.mpf(1) / 3
        bf = BigFloat(x, 64)
        got, prov = criterion._bound_in_domain(x, True, 64, "p")
        assert got == _mpf_to_fraction(x) and prov == "p [exact dyadic]"
        got, prov = criterion._bound_in_domain(bf, True, 64, "p")
        assert got == _mpf_to_fraction(bf.value) and prov == "p [exact dyadic]"
        assert criterion._bound_in_domain(bf, False, 128, "p") == (bf, "p")
        got, prov = criterion._bound_in_domain(x, False, 64, "p")
        assert got.prec == 64 and got.value == bf.value and prov == "p"
        assert criterion._bound_in_domain(F(2, 3), True, 64, "p") == (F(2, 3), "p")

    def test_first_root_binds_symbols(self):
        # sinc over Q(t): the scan reads the series at t = pi^2
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=128)
        f = spec.series(10)
        bindings = spec.bindings()
        rho, prov = criterion.resolve_bound(BoundPolicy(kind="first-root"), "rho",
                                            spec.elementary(10), f, True, 128, bindings)
        bound = TruncatedSeries([hausdorff.bind_cell(c, bindings) for c in f.coefficients])
        assert rho == _mpf_to_fraction(_first_root_bound(bound, 128, SAFETY_DOWN).value)
        assert prov.endswith(" [exact dyadic]")
        assert 0.99 < float(rho) < 1  # the smallest root of the reduced sinc product is 1

    @pytest.mark.parametrize("zero", [F(0), BigFloat(0, 128)], ids=["fraction", "bigfloat"])
    def test_first_root_without_linear_term_is_unavailable(self, zero):
        one = F(1) if isinstance(zero, F) else BigFloat(1, 128)
        f = TruncatedSeries([one, zero, -one])
        with pytest.raises(criterion.RhoUnavailable, match="vanishing linear coefficient"):
            _first_root_bound(f, 128, SAFETY_DOWN)


class TestDerivScale:
    @pytest.mark.parametrize("n", [0, 7, 170, 171, 180])
    @pytest.mark.parametrize("v", ["3", "-2.5e100", "6e329"])
    def test_scale_covers_value_and_factorial(self, n, v):
        # the scale is max(|v|, (j+k)!) exactly, as an (a, b) pair for a/b, in
        # and beyond the float range alike
        x = BigFloat(v, 192)
        a, b = criterion._deriv_scale(n // 3, n - n // 3, x)
        assert F(a, b) == max(abs(F(*x.as_integer_ratio())), factorial(n))


def fraction_series_cells(g, rho, B):
    """The series-route loop of ``derivative_form_cells``, transcribed on Fractions."""
    rho_pow = [rho]
    for _ in range(B):
        rho_pow.append(rho_pow[-1] * rho)
    scaled = [g[m] * rho_pow[m] for m in range(B + 1)]
    cells = {}
    for j in range(B + 1):
        signed = [comb(j, s) * (-1) ** (j - s) for s in range(j + 1)]
        for k in range(B + 1 - j):
            n = j + k
            cells[(j, k)] = sum(scaled[n - s] * c for s, c in enumerate(signed)) * factorial(n)
    return cells


def fraction_difference_cells(p, rho, B):
    """The difference-route loop of ``derivative_cells_from_power_sums`` on Fractions;
    ``p`` lists ``p_1 .. p_(B+1)``."""
    seq = [p[k] * rho ** (k + 1) for k in range(B + 1)]
    return {(j, k): -sum(seq[k + i] * (-1) ** i * comb(j, i) for i in range(j + 1))
            * factorial(j + k)
            for j in range(B + 1) for k in range(B + 1 - j)}


@st.composite
def rational_series_and_rho(draw):
    B = draw(st.integers(0, 8))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    extra = draw(st.integers(0, 3))
    f = TruncatedSeries([F(1)] + draw(st.lists(coeff, min_size=B + 1 + extra,
                                               max_size=B + 1 + extra)))
    rho = draw(st.fractions(min_value=F(1, 30), max_value=5, max_denominator=30))
    return f, rho, B


class TestIntegerRoutes:
    """Exact derivative cells summed as integers over one scale."""

    @settings(max_examples=120)
    @given(rational_series_and_rho())
    def test_integer_routes_match_fraction_loops(self, case):
        f, rho, B = case
        p = power_sums_from_log_derivative(f, B + 1)
        g = [-x for x in p.values]
        series, s_scale, diff, d_scale = criterion._integer_route_cells(f, g, p, rho, B)
        want_series = fraction_series_cells(g, rho, B)
        want_diff = fraction_difference_cells(p.values, rho, B)
        assert s_scale > 0 and d_scale > 0
        assert all(type(v) is int for v in (*series.values(), *diff.values()))
        assert list(series) == list(want_series)
        for jk, want in want_series.items():
            assert F(series[jk], s_scale) == want
            assert F(diff[jk], d_scale) == want_diff[jk]
        cells, worst = criterion._two_route_cells(f, p, rho, B, None)
        assert cells == want_series
        assert all(type(v) is F for v in cells.values())
        assert worst == 0 and type(worst) is F

    def test_integer_routes_take_no_gcd(self, monkeypatch):
        import math

        B = 16
        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact")
        f = spec.series(2 * B + 4)
        p = power_sums_from_log_derivative(f, B + 1)
        g = [-x for x in p.values]
        rho = F(7, 5)
        calls = []
        gcd = math.gcd

        def counting(*args):
            calls.append(1)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting)
        criterion._integer_route_cells(f, g, p, rho, B)
        assert calls == []
        cells, _ = criterion._two_route_cells(f, p, rho, B, None)
        assert len(calls) == len(cells) + 1  # one reduction per cell, one for the defect

    @pytest.mark.parametrize("index, delta", [(0, F(1, 7)), (3, F(-2, 3)), (8, F(5))])
    def test_perturbed_power_sum_defect_matches_fractions(self, index, delta):
        B = 8
        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact")
        f = spec.series(2 * B + 4)
        p = power_sums_from_log_derivative(f, B + 1)
        g = [-x for x in p.values]
        bad = list(p.values)
        bad[index] += delta
        bad = criterion.PowerSumSequence(bad)
        rho = F(9, 5)
        cells, worst = criterion._two_route_cells(f, bad, rho, B, None, g=g)
        want_series = fraction_series_cells(g, rho, B)
        want_diff = fraction_difference_cells(bad.values, rho, B)
        want = max(abs(v - want_diff[jk]) for jk, v in want_series.items())
        assert cells == want_series
        assert serialize_scalar(worst) == serialize_scalar(want) != "0"

    @pytest.mark.parametrize("run", [
        lambda: certify_derivative(
            FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact"), 8),
        lambda: certify_derivative(
            FunctionSpec(FunctionKind.SINC, mode="ratfunc"), 4,
            RhoPolicy(kind="explicit", value=F(1023, 1024))),
        lambda: certify_derivative(
            FunctionSpec(FunctionKind.AIRY_PRODUCT, mode="float", precision=192), 6),
        lambda: certify_shifted_even(
            FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=192), F(1, 2), 4),
    ], ids=["exact", "ratfunc", "float", "shifted-even"])
    def test_log_derivative_built_once(self, monkeypatch, run):
        import posroot.hausdorff
        import posroot.series

        calls = []
        original = posroot.series.log_derivative_series

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(posroot.hausdorff, "log_derivative_series", counting)
        monkeypatch.setattr(posroot.series, "log_derivative_series", counting)
        assert run().verdict == "BOUNDED-PASS"
        assert len(calls) == 1


def complex_shift_reduction(G, c, prec):
    """(G(w+ic)+G(w-ic))/2 from two complex Taylor shifts in raw mpc at
    ``prec+32`` bits, its even coefficients divided by the constant term."""
    with mpmath.workprec(prec + 32):
        a = [x.value if isinstance(x, BigFloat) else mpmath.mpf(x.numerator) / x.denominator
             for x in G.coefficients]
        N = len(a) - 1

        def shift(s):
            return [mpmath.fsum(a[n] * comb(n, j) * s ** (n - j) for n in range(j, N + 1))
                    for j in range(N + 1)]

        ic = mpmath.mpc(0, mpmath.mpf(c.numerator) / c.denominator)
        S = [(u + v) / 2 for u, v in zip(shift(ic), shift(-ic))]
        return [S[j] / S[0] for j in range(0, N + 1, 2)]


class TestShiftedEven:
    @pytest.mark.parametrize("c", [F(0), F(1, 2), F(1), F(7, 3)], ids=str)
    @pytest.mark.parametrize("kind, params", [
        (FunctionKind.SINC, {}), (FunctionKind.BESSEL_K, {"a": F(1)})], ids=["sinc", "besselk"])
    def test_real_transform_matches_complex_shifts(self, kind, params, c):
        prec = 192
        G = _even_source_series(FunctionSpec(kind, params=params, mode="float",
                                             precision=prec), 32)
        got = shifted_reduced_series(G, c, prec)
        want = complex_shift_reduction(G, c, prec)
        assert len(got) == len(want) == 17
        with mpmath.workprec(prec + 32):
            tol = mpmath.mpf(2) ** (16 - prec)
            for k, (x, w) in enumerate(zip(got.coefficients, want)):
                assert isinstance(x, BigFloat) and x.prec == prec
                assert abs(w.imag) <= tol * abs(w), k
                assert abs(x.value - w.real) <= tol * abs(w), k

    def test_zero_shift_matches_unshifted(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=192)
        G = sinc_even_series(40, 192)
        f0 = shifted_reduced_series(G, F(0), 192)
        direct = spec.series(20)
        binding = spec.bindings()
        with mpmath.workprec(200):
            for k in range(15):
                want = direct[k].evaluate(binding) if isinstance(direct[k], RationalFunction) else BigFloat(F(direct[k]), 192)
                got = f0[k]
                assert abs((got - want).value) < mpmath.mpf(2) ** -150

    def test_sinc_shift_one(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=224)
        rep = certify_shifted_even(spec, F(1), 6)
        assert rep.verdict == "BOUNDED-PASS"

    def test_besselk_shift_half(self):
        spec = FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)},
                            mode="float", precision=224)
        rep = certify_shifted_even(spec, F(1, 2), 6)
        assert rep.verdict == "BOUNDED-PASS"


def bigfloat_horner_first_root(f, precision, safety):
    """``_first_root_bound`` with the series evaluated in ``BigFloat`` arithmetic."""
    e1 = f[1]
    with mpmath.workprec(precision + 16):
        if isinstance(e1, BigFloat):
            scale = abs(1 / e1.value)
        else:
            e1f = F(e1)
            scale = abs(mpmath.mpf(e1f.denominator) / e1f.numerator)

        def fb(z):
            v = f.evaluate(BigFloat(z, precision + 16))
            return v.value if isinstance(v, BigFloat) else v

        lo = mpmath.mpf(0)
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
        assert hi is not None
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
            if hi - lo <= mpmath.mpf(2) ** (-(precision + 8)) * hi:
                break
        root = (lo + hi) / 2
        return BigFloat(root * safety.numerator / safety.denominator, precision)


def _shifted(kind, params, order2, c, precision):
    spec = FunctionSpec(kind, params=params, mode="float", precision=precision)
    return shifted_reduced_series(_even_source_series(spec, order2), c, precision)


FIRST_ROOT_SERIES = {
    "sinc-c1/2": lambda: (_shifted(FunctionKind.SINC, {}, 64, F(1, 2), 256), 256),
    "sinc-c7/3": lambda: (_shifted(FunctionKind.SINC, {}, 48, F(7, 3), 256), 256),
    "besselk-a1-c1/2": lambda: (_shifted(FunctionKind.BESSEL_K, {"a": F(1)}, 48, F(1, 2), 256),
                                256),
    "bessel-nu0-fractions": lambda: (FunctionSpec(FunctionKind.BESSEL,
                                                  params={"nu": F(0)}).series(24), 192),
}


class TestFirstRootBound:
    @pytest.mark.parametrize("name", sorted(FIRST_ROOT_SERIES))
    def test_bit_identical_to_bigfloat_horner(self, monkeypatch, name):
        # the root, and every evaluation of the series along the scan
        f, precision = FIRST_ROOT_SERIES[name]()
        seen = []
        real = criterion._horner

        def recording(coeffs, z):
            v = real(coeffs, z)
            seen.append((z, v))
            return v

        monkeypatch.setattr(criterion, "_horner", recording)
        got = _first_root_bound(f, precision, SAFETY_DOWN)
        want = bigfloat_horner_first_root(f, precision, SAFETY_DOWN)
        assert got.prec == want.prec == precision
        assert got.value._mpf_ == want.value._mpf_
        assert len(seen) > precision
        for z, v in seen:
            w = f.evaluate(BigFloat(z, precision + 16))
            assert v._mpf_ == w.value._mpf_


class TestExplicitFormulas:
    def test_doubling_moments(self):
        b = [F(1), F(2), F(4), F(8), F(16)]
        p = explicit_p_formulas(b, 4)
        assert [p[k] for k in range(1, 5)] == [F(1), F(2, 3), F(8, 15), F(136, 315)]

    def test_b2_zero(self):
        p = explicit_p_formulas([F(3), F(0), F(5), F(7), F(11)], 1)
        assert p[1] == 0

    def test_b0_zero_rejected(self):
        with pytest.raises(ZeroB0):
            explicit_p_formulas([F(0), F(1), F(1), F(1), F(1)], 2)

    def test_random_vectors_all_routes_agree(self):
        rng = random.Random(555)
        for _ in range(50):
            b = [F(rng.randint(1, 60), rng.randint(1, 9))] + \
                [F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(4)]
            pe = explicit_p_formulas(b, 4)
            pg = power_sums_from_moment_list(b, 4)
            pr = b_recurrence_power_sums(b, 4)
            for k in range(1, 5):
                assert pe[k] == pg[k] == pr[k] == b_closed_form_power_sum(b, k)

    def test_symbolic_membership(self):
        # run with the moments as free symbols: the power sums stay inside
        # the rational-function field generated by them
        syms = ("b0", "b2", "b4", "b6", "b8")
        b = [RationalFunction.variable(syms, s) for s in syms]
        pe = explicit_p_formulas(b, 4)
        pg = power_sums_from_moment_list(b, 4)
        for k in range(1, 5):
            assert isinstance(pe[k], RationalFunction)
            assert pe[k] == pg[k]
        assert pe[1] == b[1] / (2 * b[0])


class TestAdversarial:
    def test_half_defect_detected(self):
        base = tuple(F(1, n * n) for n in range(1, 49))
        spec = AdversarialSpec(base=base, defects=(Defect(re=F(-1, 2)),), lam=F(1))
        rep, depth = adversarial_run(spec, 24)
        assert rep.verdict == "FAIL"
        assert depth is not None and depth <= 24

    def test_control_passes(self):
        base = tuple(F(1, n * n) for n in range(1, 49))
        spec = AdversarialSpec(base=base, defects=(Defect(re=F(-1, 2)),), lam=F(1))
        rep, depth = adversarial_run(spec, 24, include_defects=False)
        assert rep.verdict == "BOUNDED-PASS"
        assert depth is None

    def test_complex_pair_power_sums_exact(self):
        # (a+bi)^k + conj sums must match direct complex arithmetic
        spec = AdversarialSpec(base=(F(1, 4),),
                               defects=(Defect(re=F(3, 10), im=F(2, 5)),),
                               lam=F(1))
        p = adversarial_power_sums(spec, 6)
        for k in range(1, 7):
            z = complex(F(3, 10), F(2, 5)) ** k
            expected = float(F(1, 4) ** k) + 2 * z.real
            assert abs(float(p[k]) - expected) < 1e-12

    def test_complex_pair_run_records_depth(self):
        spec = AdversarialSpec(base=tuple(F(1, n * n) for n in range(1, 33)),
                               defects=(Defect(re=F(3, 10), im=F(2, 5)),),
                               lam=F(1))
        rep, depth = adversarial_run(spec, 24)
        assert depth is None or depth <= 24  # recorded either way

    def test_seeded_draws_deterministic(self):
        a = draw_adversarial_spec(random.Random(11))
        b = draw_adversarial_spec(random.Random(11))
        assert a == b
        assert abs(a.defects[0].re) >= F(1, 4)


class TestReport:
    def test_json_stability_and_shape(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=160)
        rep1 = certify_moment(spec, 4)
        rep2 = certify_moment(FunctionSpec(FunctionKind.SINC, mode="ratfunc",
                                           precision=160), 4)
        j1 = json.dumps(rep1.as_dict(), sort_keys=True, indent=2)
        j2 = json.dumps(rep2.as_dict(), sort_keys=True, indent=2)
        assert j1 == j2
        d = json.loads(j1)
        assert d["schema"] == 1
        assert d["verdict"] == "BOUNDED-PASS"
        assert "bounded certificate" in d["metadata"]["statement"]
        for key in ("function", "mode", "lambda", "rho", "grid_bound",
                    "precision_bits", "cells", "verdict", "failures", "metadata"):
            assert key in d

    def test_csv_shape(self):
        spec = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=160)
        rep = certify_moment(spec, 4)
        lines = rep.to_csv().strip().split("\n")
        assert len(lines) == 6  # header + rows j = 0..4
        assert lines[0].startswith("j\\k,")
        assert lines[1].count(",") == 5

    def test_roundtrip_parse(self):
        spec = FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": F(1, 4)},
                            mode="exact", precision=160)
        rep = certify_moment(spec, 5)
        d = json.loads(json.dumps(rep.as_dict(), sort_keys=True))
        assert d["cells"] == rep.as_dict()["cells"]


class TestIndeterminateRetry:
    def test_float_boundary_sequence_reports_without_retry(self):
        # all-ones float sequence: difference cells are exactly 0.0, which a
        # float can never confidently call nonnegative; the series' float
        # coefficients keep their bits, so a rerun could decide nothing more
        # and the run reports INDETERMINATE at its own precision
        f = TruncatedSeries([BigFloat(1, 128), BigFloat(-1, 128)] +
                            [BigFloat(0, 128)] * 20)
        spec = SeriesSpec(f, precision=128, mode="float")
        rep = certify_moment(spec, 4)
        assert rep.verdict == "INDETERMINATE"
        assert rep.precision_bits == 128
        assert "retried_at_bits" not in rep.metadata
        counts = rep.counts()
        assert counts["NEGATIVE"] == 0
        assert counts["INDETERMINATE"] > 0

    def test_float_series_reports_the_precision_its_verdicts_used(self):
        # the single atom 1/50 at lam = 1/50: cells (j, k) with j >= 1 are
        # exactly 0, so INDETERMINATE; every cell was decided with the 64-bit band
        f = TruncatedSeries([BigFloat(c, 64) for c in product_coefficients([F(1, 50)])])
        rep = certify_moment(SeriesSpec(f, precision=64, mode="float"), 4,
                             BoundPolicy(kind="explicit", value=F(1, 50)))
        assert rep.verdict == "INDETERMINATE"
        d = rep.as_dict()
        assert d["precision_bits"] == 64
        assert "retried_at_bits" not in d["metadata"]

    def test_exact_boundary_sequence_decides(self):
        # the same sequence in exact arithmetic passes on the boundary
        f = TruncatedSeries([F(1), F(-1)] + [F(0)] * 20)
        rep = certify_moment(SeriesSpec(f), 4)
        assert rep.verdict == "BOUNDED-PASS"


def product_coefficients(atoms):
    """Coefficients of ``prod (1 - l z)`` over the atoms ``l``, exactly."""
    c = [F(1)]
    for l in atoms:
        c = [a - l * b for a, b in zip(c + [F(0)], [F(0)] + c)]
    return c


class TestFiniteProducts:
    @settings(max_examples=30)
    @given(st.lists(st.fractions(F(1, 50), F(1)), min_size=1, max_size=6, unique=True),
           st.fractions(F(1), F(2)), st.sampled_from([64, 96, 128]), st.integers(30, 45))
    def test_float_cells_are_never_negative(self, atoms, stretch, prec, B):
        # Every exact cell sum_n x_n^(k+1) (1 - x_n)^j, x_n = l_n/lam, is >= 0,
        # so no float verdict may be NEGATIVE.  At these depths a band as narrow
        # as the exact cells' wide tag calls rounding NEGATIVE: the single atom
        # 1/50 at lam = 1/50, 64 bits and B = 34 has two such cells.
        f = TruncatedSeries([BigFloat(c, prec) for c in product_coefficients(atoms)])
        rep = certify_moment(SeriesSpec(f, precision=prec, mode="float"), B,
                             LambdaPolicy(kind="explicit", value=max(atoms) * stretch))
        assert rep.counts()["NEGATIVE"] == 0

    @settings(max_examples=40)
    @given(st.lists(st.fractions(F(1, 50), F(1), max_denominator=60), min_size=1, max_size=5,
                    unique=True),
           st.fractions(F(1), F(2), max_denominator=60), st.sampled_from([64, 128, 256]),
           st.integers(4, 20))
    def test_cells_are_the_closed_form(self, atoms, stretch, prec, B):
        # With x_n = l_n/lam, moment cell (j, k) is
        # sum_n x_n^(k+1) (1 - x_n)^j, and derivative cell (j, k) at rho = 1/lam is
        # -(j+k)! times it: exactly in exact mode, and in float mode within the
        # cell's own band, scale 2^(-P/2), which is the premise of the band.  P is
        # the moments' precision, prec, also after a retry: the series' float
        # coefficients keep their bits.
        lam = max(atoms) * stretch
        coeffs = product_coefficients(atoms)

        def closed(j, k):
            return sum((l / lam) ** (k + 1) * (1 - l / lam) ** j for l in atoms)

        moment, rho = LambdaPolicy(kind="explicit", value=lam), RhoPolicy(kind="explicit",
                                                                          value=1 / lam)
        exact = SeriesSpec(TruncatedSeries(coeffs))
        for c in certify_moment(exact, B, moment).cells:
            assert c.value == closed(c.j, c.k)
        for c in certify_derivative(exact, B, rho).cells:
            assert c.value == -factorial(c.j + c.k) * closed(c.j, c.k)

        floats = SeriesSpec(TruncatedSeries([BigFloat(c, prec) for c in coeffs]),
                            precision=prec, mode="float")
        cells = certify_moment(floats, B, moment).cells
        value = {(c.j, c.k): F(*c.value.as_integer_ratio()) for c in cells}
        for (j, k), v in value.items():
            scale = max(1, sum(comb(j, i) * abs(value[(0, k + i)]) for i in range(j + 1)))
            assert (v - closed(j, k)) ** 2 * 2 ** prec <= scale ** 2, (j, k)
        for c in certify_derivative(floats, B, rho).cells:
            v, n = F(*c.value.as_integer_ratio()), factorial(c.j + c.k)
            assert (v + n * closed(c.j, c.k)) ** 2 * 2 ** c.value.prec <= max(abs(v), n) ** 2


class TestExitCodeMapping:
    def test_all_three_verdicts(self):
        from posroot.cli import _report_exit

        f_pass = TruncatedSeries([F(1), F(-1, 2)] + [F(0)] * 12)
        rep = certify_moment(SeriesSpec(f_pass), 4,
                             LambdaPolicy(kind="explicit", value=F(1)))
        assert rep.verdict == "BOUNDED-PASS" and _report_exit(rep) == 0

        f_bad = TruncatedSeries([F(1), F(1, 2)] + [F(0)] * 12)  # root -2
        rep = certify_moment(SeriesSpec(f_bad), 4,
                             LambdaPolicy(kind="explicit", value=F(1)))
        assert rep.verdict == "FAIL" and _report_exit(rep) == 2

        f_zero = TruncatedSeries([BigFloat(1, 128), BigFloat(-1, 128)] +
                                 [BigFloat(0, 128)] * 12)
        rep = certify_moment(SeriesSpec(f_zero, precision=128, mode="float"), 3)
        assert rep.verdict == "INDETERMINATE" and _report_exit(rep) == 3


class TestBindingErrors:
    def test_missing_symbol_binding_is_explained(self):
        from posroot.scalars import ScalarError
        from posroot.hausdorff import moment_criterion
        from posroot.symfun import PowerSumSequence

        nu = RationalFunction.variable(("nu",), "nu")
        p = PowerSumSequence([1 / (4 * (nu + 1)), 1 / (16 * (nu + 1) ** 2 * (nu + 2))])
        with pytest.raises(ScalarError, match="binding"):
            moment_criterion(p, F(1), J=1, bindings={})

    def test_sinc_exact_mode_rejected(self):
        from posroot.scalars import ScalarError

        with pytest.raises(ScalarError, match="ratfunc"):
            FunctionSpec(FunctionKind.SINC, mode="exact")
