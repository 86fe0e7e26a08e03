import json
import random
from fractions import Fraction as F
from math import comb, factorial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from posroot import hausdorff
from posroot.catalog import FunctionKind, FunctionSpec
from posroot.criterion import certify_moment
from posroot.hausdorff import (
    InsufficientMoments,
    NonPositiveLambda,
    _noise_scales,
    bind_cell,
    derivative_cells_from_power_sums,
    derivative_form_cells,
    derivative_form_coefficient,
    difference_table,
    moment_criterion,
)
from posroot.scalars import (
    DEFAULT_PRECISION_BITS,
    BigFloat,
    ScalarError,
    Verdict,
    _mpf_to_fraction,
)
from posroot.symfun import (
    InsufficientCoefficients,
    PowerSumSequence,
    power_sums_from_elementary,
)
from posroot.series import (
    TruncatedSeries,
    log_derivative_series,
    power_sums_from_log_derivative,
)

from test_symfun import direct_power_sums
from test_series import poly_series


def brute_cell(values, j, k):
    """Independent binomial-formula evaluation of one cell."""
    return sum(comb(j, i) * (-1) ** i * values[k + i] for i in range(j + 1))


def reference_derivative_cell(f, rho, j, k):
    """One derivative-form cell from its own log-derivative, in the library's
    operation order, so float results must match bit for bit."""
    n = j + k
    g = log_derivative_series(f, n + 1)
    rho_pow = [rho]
    for _ in range(n):
        rho_pow.append(rho_pow[-1] * rho)
    acc = None
    for s in range(j + 1):
        t = g[n - s] * rho_pow[n - s] * (comb(j, s) * (-1) ** (j - s))
        acc = t if acc is None else acc + t
    return acc * factorial(n)


def same_scalar(a, b):
    if isinstance(a, BigFloat):
        return isinstance(b, BigFloat) and (a.value, a.prec) == (b.value, b.prec)
    return type(a) is type(b) and a == b


class TestDifferenceTable:
    def test_geometric_half(self):
        # m_k = (1/2)^k: differencing telescopes to (1/2)^(k+j)
        m = [F(1, 2) ** k for k in range(9)]
        t = difference_table(m, 8)
        for j in range(len(t.rows)):
            for k in range(len(t.rows[j])):
                assert t.cell(j, k) == F(1, 2) ** (k + j)

    def test_constant_moments(self):
        m = [F(1)] * 7
        t = difference_table(m, 6)
        for j in range(1, len(t.rows)):
            assert all(c == 0 for c in t.rows[j])

    def test_alternating_point_mass(self):
        # point mass at -1/2: cells (-1/2)^k (3/2)^j by the binomial sum
        m = [F(-1, 2) ** k for k in range(8)]
        t = difference_table(m, 7)
        for j in range(len(t.rows)):
            for k in range(len(t.rows[j])):
                assert t.cell(j, k) == F(-1, 2) ** k * F(3, 2) ** j

    def test_recursive_equals_binomial_everywhere(self):
        rng = random.Random(90210)
        vals = [F(rng.randint(-40, 40), rng.randint(1, 17)) for _ in range(10)]
        t = difference_table(vals, 9)
        for j in range(len(t.rows)):
            for k in range(len(t.rows[j])):
                assert t.cell(j, k) == brute_cell(vals, j, k)

    def test_insufficient_moments(self):
        with pytest.raises(InsufficientMoments):
            difference_table([F(1), F(2)], 5)

    def test_float_cross_check_and_boost(self):
        vals = [BigFloat(F(1, 2) ** k, 128) for k in range(12)]
        t = difference_table(vals, 11)
        for j in range(0, 12, 3):
            for k in range(len(t.rows[j])):
                expected = float(F(1, 2) ** (k + j))
                assert abs(float(t.cell(j, k)) - expected) < 1e-25


    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_cross_check_catches_tampered_cell(self, exact):
        vals = [F(1, 2) ** k for k in range(10)]
        if not exact:
            vals = [BigFloat(v, 128) for v in vals]
        t = difference_table(vals, 9)
        hausdorff._cross_check(t)
        # the check samples rows 1, 4, 7 and columns 0, 3, 6
        t.rows[4][3] = t.rows[4][3] + F(1, 10 ** 6)
        with pytest.raises(ScalarError, match=r"cross-check failed at \(4,3\)"):
            hausdorff._cross_check(t)


    def test_cross_check_runs_on_every_table(self, monkeypatch):
        real = hausdorff._binomial_cell
        monkeypatch.setattr(hausdorff, "_binomial_cell",
                            lambda values, j, k: real(values, j, k) + F(1, 10 ** 6))
        p = PowerSumSequence([F(1, 2) ** k for k in range(1, 9)])
        with pytest.raises(ScalarError, match="cross-check failed"):
            moment_criterion(p, F(1), J=7)
        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact")
        with pytest.raises(ScalarError, match="cross-check failed"):
            certify_moment(spec, 6)


    @settings(max_examples=60)
    @given(st.lists(st.fractions(max_denominator=10 ** 6) | st.integers(-50, 50),
                    min_size=2, max_size=14),
           st.integers(0, 200), st.sampled_from([F(0), F(1, 10 ** 9), F(-3), 1]))
    def test_integer_cross_check_agrees_with_fractions(self, vals, where, delta):
        t = difference_table(vals, len(vals) - 1)
        sampled = [(j, k) for j in range(1, len(t.rows), 3)
                   for k in range(0, len(t.rows[j]), 3)]
        if sampled:
            j, k = sampled[where % len(sampled)]
            t.rows[j][k] = t.rows[j][k] + delta
        # the Fraction comparison the check made before the common denominator
        bad = [(j, k) for j, k in sampled
               if t.rows[j][k] != brute_cell([F(v) for v in vals], j, k)]
        if bad:
            with pytest.raises(ScalarError, match=r"cross-check failed at \(%d,%d\)" % bad[0]):
                hausdorff._cross_check(t)
        else:
            hausdorff._cross_check(t)

    def test_exact_cross_check_takes_no_gcd(self, monkeypatch):
        import math

        vals = [F(1, n * n) ** 3 + F(-2, 7) ** n for n in range(1, 26)]
        t = difference_table(vals, 24)
        calls = []
        gcd = math.gcd

        def counting(*args):
            calls.append(1)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting)
        hausdorff._cross_check(t)
        assert calls == []


def printed_fraction(text):
    """The exact value of a report's ``[-]0x<mantissa>p<exp>@<bits>`` cell."""
    body = text.split("@")[0]
    man, exp = body.lstrip("-")[2:].split("p")
    value = int(man, 16) * F(2) ** int(exp)
    return -value if body.startswith("-") else value


def one_ulp(x: BigFloat, direction: int) -> BigFloat:
    """``x`` moved by one unit in the last place of its ``prec``-bit tag."""
    _, _, exp, bc = x.value._mpf_
    with mpmath.workprec(x.prec + 8):
        return BigFloat(x.value + direction * mpmath.mpf(2) ** (exp + bc - x.prec), x.prec)


class TestExactFloatTable:
    """A float table is the exact triangle of its row 0; no cell is rounded."""

    @pytest.mark.parametrize("function", ["riemann-xi", "airy"])
    def test_report_cells_are_the_exact_triangle_of_row0(self, tmp_path, function):
        # Riemann's coefficient-bound moments decay fast: cells (38,0), (39,0)
        # and (40,0) need more bits than P + len + J, so the table's tag widens.
        # Airy's needs none; it is the control.
        from posroot.cli import main

        out = tmp_path / "r.json"
        argv = ["certify", "--function", function, "--mode", "moment", "--grid", "40",
                "--precision", "320", "--lambda-policy", "coefficient-bound",
                "--format", "json", "--output", str(out)]
        assert main(argv) == 0
        cells = {(c["j"], c["k"]): c["value"] for c in json.loads(out.read_text())["cells"]}
        rows = [[printed_fraction(cells[(0, k)]) for k in range(41)]]
        for j in range(1, 41):
            rows.append([a - b for a, b in zip(rows[-1], rows[-1][1:])])
        assert len(cells) == 41 * 42 // 2
        for (j, k), text in cells.items():
            assert printed_fraction(text) == rows[j][k], (j, k)
        assert {text.split("@")[1] for text in cells.values()} == \
            ({"408"} if function == "riemann-xi" else {"401"})

    @pytest.mark.parametrize("j, k", [(1, 0), (4, 3), (7, 0), (7, 3)])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_cross_check_catches_one_ulp(self, j, k, direction):
        vals = [BigFloat(F(1, 3) ** n, 128) for n in range(12)]
        t = difference_table(vals, 11)
        t.rows[j][k] = one_ulp(t.rows[j][k], direction)
        with pytest.raises(ScalarError, match=r"cross-check failed at \(%d,%d\)" % (j, k)):
            hausdorff._cross_check(t)

    @settings(max_examples=40)
    @given(st.data(), st.integers(64, 1024), st.integers(1, 40), st.integers(0, 80))
    def test_float_table_equals_fraction_triangle(self, data, prec, B, decay):
        # mantissas of up to prec bits, each on an exponent that falls by about
        # ``decay`` bits per column: decay 0 keeps the row on one scale, a large
        # one makes the fast-decaying rows whose differences need the widest tag
        row = []
        for k in range(B + 1):
            man = data.draw(st.integers(-(2 ** prec - 1), 2 ** prec - 1))
            exp = data.draw(st.integers(-2, 2)) - decay * k - prec
            row.append(F(man) * F(2) ** exp)
        t = difference_table([BigFloat(x, prec) for x in row], B)
        rows = [row]
        for _ in range(B):
            rows.append([a - b for a, b in zip(rows[-1], rows[-1][1:])])
        for j, k, cell in t.iter_cells():
            assert _mpf_to_fraction(cell.value) == rows[j][k], (j, k)
        tags = {cell.prec for _, _, cell in t.iter_cells()}
        widest = max(cell.value._mpf_[3] for _, _, cell in t.iter_cells())
        assert tags == {max(prec + 2 * B + 1, widest)} and t.precision == prec


class TestMomentCriterion:
    def test_all_ones_boundary_pass(self):
        p = PowerSumSequence([F(1)] * 13)
        t = moment_criterion(p, F(1), J=12)
        assert t.is_pass()
        for j in range(1, len(t.rows)):
            assert all(c == 0 for c in t.rows[j])

    def test_planted_negative_fails(self):
        # l = {-1/2, 1/4}: brute-force oracle table from direct power sums
        roots = [F(-1, 2), F(1, 4)]
        p = PowerSumSequence(direct_power_sums(roots, 13))
        t = moment_criterion(p, F(1), J=12)
        assert not t.is_pass()
        moments = [sum(F(r) ** (k + 1) for r in roots) for k in range(13)]
        negs = [(j, k) for j in range(13) for k in range(13 - j)
                if brute_cell(moments, j, k) < 0]
        assert negs
        assert {(c.j, c.k) for c in t.failures()} == set(negs)

    def test_sinc_symbolic_grid20_passes(self):
        from posroot.catalog import sinc_coeffs
        e = sinc_coeffs(21)
        p = power_sums_from_elementary(e, 21)
        with mpmath.workprec(280):
            pi2 = BigFloat(mpmath.pi ** 2, 256)
        t = moment_criterion(p, F(1), J=20, bindings={"t": pi2})
        assert t.is_pass()
        assert t.counts()["NONNEGATIVE"] == 21 * 22 // 2

    def test_rational_bindings_decide_exactly(self):
        # q = 1/2 binds every cell to a Fraction: an exact verdict and margin
        spec = FunctionSpec(FunctionKind.RAMANUJAN_AQ, params={"q": F(1, 2)}, mode="ratfunc")
        rep = certify_moment(spec, 6)
        assert rep.verdict == "BOUNDED-PASS"
        for c in rep.cells:
            value = bind_cell(c.value, spec.bindings())
            assert type(c.margin) is F and c.margin == abs(value) and value >= 0

    def test_positive_rational_sequence_passes_exactly(self):
        rng = random.Random(64)
        for _ in range(10):
            roots = [F(rng.randint(1, 40), rng.randint(40, 80)) for _ in range(5)]
            lam = max(roots)
            p = PowerSumSequence(direct_power_sums(roots, 11))
            t = moment_criterion(p, lam, J=10)
            assert t.is_pass()
            for j, k, v in t.iter_cells():
                assert v >= 0

    def test_lambda_must_be_positive(self):
        p = PowerSumSequence([F(1)] * 3)
        with pytest.raises(NonPositiveLambda):
            moment_criterion(p, F(0), J=2)
        with pytest.raises(NonPositiveLambda):
            moment_criterion(p, F(-2), J=2)

    def test_scaling_coherence(self):
        # m_k at 2*lambda equals m_k at lambda divided by 2^(k+1)
        roots = [F(1, 2), F(1, 3), F(1, 7)]
        p = PowerSumSequence(direct_power_sums(roots, 9))
        t1 = moment_criterion(p, F(1), J=8)
        t2 = moment_criterion(p, F(2), J=8)
        for k in range(9):
            assert t2.rows[0][k] == t1.rows[0][k] / F(2) ** (k + 1)
        assert t1.is_pass() and t2.is_pass()


def exact_binomial_scale(values, j, k):
    """``sum_i C(j,i) |m_(k+i)|`` of the values, exactly, as a Fraction."""
    m = [abs(F(*v.as_integer_ratio())) for v in values]
    return sum(comb(j, i) * m[k + i] for i in range(j + 1))


class TestNoiseScales:
    """The Pascal-triangle noise scales of the verdicts against the exact
    binomial sums ``sum_i C(j,i) |m_(k+i)|``."""

    @pytest.mark.parametrize("kind, params, mode, precision, B", [
        (FunctionKind.AIRY_PRODUCT, {}, "float", 320, 40),
        (FunctionKind.RIEMANN_XI, {}, "float", 1024, 24),
        (FunctionKind.SINC, {}, "ratfunc", DEFAULT_PRECISION_BITS, 8),
    ], ids=["airy", "riemann-xi", "sinc-symbolic"])
    def test_pascal_equals_binomial_scale(self, monkeypatch, kind, params, mode, precision, B):
        seen = []
        real = hausdorff.decide_table_verdicts

        def capture(table, **kw):
            seen.append((table, kw))
            return real(table, **kw)

        monkeypatch.setattr(hausdorff, "decide_table_verdicts", capture)
        spec = FunctionSpec(kind, params=params, mode=mode, precision=precision)
        assert certify_moment(spec, B).verdict == "BOUNDED-PASS"
        (table, kw), = seen
        bindings = kw["bindings"]
        floats = [bind_cell(x, bindings) for x in table.rows[0]]
        scales = _noise_scales(floats, len(table.rows))
        cells = 0
        for j, k, _ in table.iter_cells():
            assert F(*scales[j][k]) == max(1, exact_binomial_scale(floats, j, k))
            cells += 1
        assert cells == (B + 1) * (B + 2) // 2

    def test_scale_beyond_float_range_is_exact(self):
        # moments -2^(1100(k+1)): every Pascal magnitude is beyond float range,
        # and the cells are decided by their sign, (-1)^(j+1)
        p = PowerSumSequence([BigFloat(-1, 256)] * 4)
        t = moment_criterion(p, BigFloat(F(1, 2 ** 1100), 256), J=3)
        assert t.counts() == {"NONNEGATIVE": 4, "NEGATIVE": 6, "INDETERMINATE": 0}
        for c in t.cells:
            assert c.verdict is (Verdict.NEGATIVE if c.j % 2 == 0 else Verdict.NONNEGATIVE)
        row0 = list(t.rows[0])
        scales = _noise_scales(row0, 4)
        assert F(*scales[3][0]) == exact_binomial_scale(row0, 3, 0) >= F(2) ** 4400

    @pytest.mark.parametrize("terms", [
        ("0.25",), ("3", "7"), ("1e300", "2.5e299"), (3, factorial(171)), (2 ** 1100 + 1, 7),
    ])
    def test_scales_are_exact_pascal_sums(self, terms):
        # every scale is max(1, sum_i C(j,i) |m_(k+i)|) with nothing rounded, in
        # and beyond the float range alike
        row0 = [BigFloat(t, 2048) for t in terms]
        scales = _noise_scales(row0, len(row0))
        m = [abs(F(*x.as_integer_ratio())) for x in row0]
        for j, row in enumerate(scales):
            for k, (n, d) in enumerate(row):
                assert F(n, d) == max(1, sum(comb(j, i) * m[k + i] for i in range(j + 1)))


class TestDerivativeForm:
    def test_single_root_row0(self):
        # f = 1 - z, rho = 1: value(0,k) = -k!
        f = TruncatedSeries([F(1), F(-1)] + [F(0)] * 10)
        for k in range(8):
            assert derivative_form_coefficient(f, F(1), 0, k) == -factorial(k)

    def test_single_root_general_cells(self):
        # p_k = 1 so cells equal -(j+k)! (-D)^j applied to the constant 1:
        # zero for j >= 1, -(k)! on row 0
        f = TruncatedSeries([F(1), F(-1)] + [F(0)] * 10)
        for j in range(5):
            for k in range(5):
                v = derivative_form_coefficient(f, F(1), j, k)
                assert v == (-factorial(k) if j == 0 else 0)

    def test_cell_00_is_rho_times_f_prime(self):
        f = poly_series([F(1, 2), F(1, 3)], 8)
        rho = F(3, 7)
        assert derivative_form_coefficient(f, rho, 0, 0) == rho * f[1]
        p1 = F(1, 2) + F(1, 3)
        assert derivative_form_coefficient(f, rho, 0, 0) == -rho * p1

    def test_route_equality_random_positive_roots(self):
        rng = random.Random(1999)
        for _ in range(12):
            roots = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(6)]
            f = poly_series(roots, 20)
            p = power_sums_from_log_derivative(f, 9)
            rho = F(1023, 1024) / max(roots)  # just below the smallest product root
            cells = derivative_cells_from_power_sums(p, rho, 8)
            for j in range(9):
                for k in range(9 - j):
                    v = derivative_form_coefficient(f, rho, j, k)
                    assert v == cells[(j, k)]
                    assert v <= 0

    @pytest.mark.parametrize("spec, rho", [
        (FunctionSpec(FunctionKind.BESSEL, params={"nu": F(0)}, mode="exact"), F(5, 4)),
        (FunctionSpec(FunctionKind.AIRY_PRODUCT, mode="float", precision=256),
         BigFloat("0.25", 256)),
    ], ids=["bessel-exact", "airy-float"])
    def test_all_cells_match_single_cells(self, spec, rho):
        B = 8
        f = spec.series(2 * B + 4)
        cells = derivative_form_cells(f, rho, B)
        assert list(cells) == [(j, k) for j in range(B + 1) for k in range(B + 1 - j)]
        for (j, k), v in cells.items():
            assert same_scalar(v, derivative_form_coefficient(f, rho, j, k))
            assert same_scalar(v, reference_derivative_cell(f, rho, j, k))

    def test_float_cells_keep_working_precision(self):
        # (j+k)! reaches 118 bits at B=32; the 256-bit cells must match a
        # 512-bit evaluation of the cell definition to 200 bits.
        B, rho = 32, F(1, 2)
        airy = [FunctionSpec(FunctionKind.AIRY_PRODUCT, mode="float", precision=prec)
                for prec in (256, 512)]
        cells = derivative_form_cells(airy[0].series(2 * B + 4), rho, B)
        g = log_derivative_series(airy[1].series(2 * B + 4), B + 1)
        with mpmath.workprec(512):
            scaled = [g[m].value / 2 ** (m + 1) for m in range(B + 1)]
            for (j, k), v in cells.items():
                n = j + k
                want = factorial(n) * mpmath.fsum(
                    comb(j, s) * (-1) ** (j - s) * scaled[n - s] for s in range(j + 1))
                assert abs(v.value - want) <= abs(want) * mpmath.mpf(2) ** -200, (j, k)

    def test_all_cells_need_bound_plus_one_coefficients(self):
        f = poly_series([F(1, 2), F(1, 3)], 6)
        assert len(derivative_form_cells(f, F(1), 5)) == 21
        with pytest.raises(InsufficientCoefficients):
            derivative_form_cells(f, F(1), 6)

    def test_route_equality_symbolic(self):
        from posroot.catalog import sinc_coeffs
        from posroot.series import series_from_elementary
        e = sinc_coeffs(13)
        f = series_from_elementary(e)
        p = power_sums_from_log_derivative(f, 7)
        rho = F(1)
        cells = derivative_cells_from_power_sums(p, rho, 6)
        for j in range(7):
            for k in range(7 - j):
                v = derivative_form_coefficient(f, rho, j, k)
                assert v == cells[(j, k)]
