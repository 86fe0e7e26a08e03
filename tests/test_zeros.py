from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

from posroot.scalars import BigFloat
from posroot.zeros import (
    NotMonotone,
    ParseError,
    _bessel_series,
    _decimal,
    bessel_series_value,
    bessel_zeros,
    load_zero_table,
    partial_power_sum_with_tail,
    verify_sign_changes,
)


class TestLoadZeroTable:
    def test_known_prefix(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("# leading comment\n"
                     "14.134725141\n21.022039638\n25.010857580  # inline note\n")
        table = load_zero_table(p, precision=128)
        assert len(table) == 3
        assert abs(float(table.first) - 14.134725141) < 1e-9
        assert table.source == "FILE"

    def test_limit(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert len(load_zero_table(p, limit=2)) == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(ParseError):
            load_zero_table(p)

    def test_unsorted(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("21.02\n14.13\n")
        with pytest.raises(NotMonotone):
            load_zero_table(p)

    def test_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.1\nnot-a-number\n")
        with pytest.raises(ParseError):
            load_zero_table(p)

    def test_negative_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("-3.0\n")
        with pytest.raises(ParseError):
            load_zero_table(p)

    @pytest.mark.parametrize("text, error, message", [
        ("14.1\n# c\nnot-a-number\n", ParseError, ":3: cannot parse 'not-a-number'"),
        ("14.1\n1.2.3\n", ParseError, ":2: cannot parse '1.2.3'"),
        ("14.1\n\n-3.0  # x\n", ParseError, ":3: ordinate -3.0 not positive"),
        ("0\n", ParseError, ":1: ordinate 0 not positive"),
        ("1e3\n2E+3\n-0.0\n", ParseError, ":3: ordinate -0.0 not positive"),
        ("# only\n", ParseError, ": no ordinates found"),
        ("14.1\n21.02\n21.02\n", NotMonotone, ": ordinates not strictly increasing near 21.02"),
        ("+.5\n1.\n0.25\n", NotMonotone, ": ordinates not strictly increasing near 0.25"),
        ("5\n4.999999999999999999999999999999999999999999\n", NotMonotone,
         ": ordinates not strictly increasing near 5.0"),
        ("14.134725141735\n14.1347251417350000000000000000000000000000000001\n", NotMonotone,
         ": ordinates not strictly increasing near 14.134725141735"),
    ])
    def test_messages_name_the_line(self, tmp_path, text, error, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(error) as exc:
            load_zero_table(p, precision=128)
        assert str(exc.value) == str(p) + message


_digits = st.text("0123456789", max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "+", "-"]), _digits, st.one_of(st.none(), _digits),
       st.one_of(st.none(), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+"]),
                                      st.integers(-60, 60))),
       st.sampled_from([53, 320, 1024]))
def test_decimal_rounds_like_mpf(sign, whole, frac, exponent, prec):
    if not (whole or frac):
        whole = "0"
    text = sign + whole + ("" if frac is None else "." + frac)
    if exponent is not None:
        e, plus, k = exponent
        text += e + (plus if k >= 0 else "") + str(k)
    negative, man, exp = _decimal(text, prec)
    assert man <= 2 ** prec
    with mpmath.workprec(prec):
        assert from_man_exp(-man if negative else man, exp) == mpmath.mpf(text)._mpf_


class TestBesselZeros:
    def test_first_zero_nu0(self):
        table = bessel_zeros(0, 1, 192)
        # independent oracle
        with mpmath.workprec(220):
            oracle = mpmath.besseljzero(0, 1)
            assert abs(table.first.value - oracle) < mpmath.mpf(2) ** -180
        assert abs(float(table.first) - 2.404825558) < 1e-9

    def test_half_order_is_pi_multiples(self):
        table = bessel_zeros(F(1, 2), 4, 160)
        with mpmath.workprec(200):
            for k, z in enumerate(table.ordinates, start=1):
                assert abs(z.value - k * mpmath.pi) < mpmath.mpf(2) ** -140

    def test_against_mpmath_for_various_orders(self):
        for nu, k in ((0, 3), (1, 2), (3, 1), (F(3, 2), 2)):
            table = bessel_zeros(nu, k, 128)
            with mpmath.workprec(160):
                oracle = mpmath.besseljzero(float(F(nu)), k)
                assert abs(table[k - 1].value - oracle) < 1e-30

    def test_interlacing(self):
        t0 = bessel_zeros(0, 6, 128)
        t1 = bessel_zeros(1, 6, 128)
        for k in range(5):
            assert t0[k] < t1[k] < t0[k + 1]

    def test_computed_table_holds_the_zeros_exactly(self, monkeypatch):
        import posroot.zeros as zeros

        made = []

        class Recording(BigFloat):
            def __init__(self, value, precision):
                super().__init__(value, precision)
                made.append((self.value._mpf_, self.prec))

        monkeypatch.setattr(zeros, "BigFloat", Recording)
        table = bessel_zeros(F(1, 3), 5, 160)
        assert [(z.value._mpf_, z.prec) for z in table] == made

    def test_sign_change_verification(self):
        table = bessel_zeros(0, 3, 128)

        def ev(x):
            with mpmath.workprec(200):
                return BigFloat(bessel_series_value(F(0), x.value), 128)

        verify_sign_changes(table, ev, indices=[0, 1, 2])


def _two_loop_reference(nu, x):
    """The value and derivative sums as two separate loops, each recomputing
    the shared terms; returns ``((value, n), (derivative, n))`` with the
    ``n`` at which each loop stopped."""
    nu = F(nu)
    out = []
    for derivative in (False, True):
        z = x * x
        quarter = -z / 4
        term = mpmath.mpf(1)
        acc = mpmath.mpf(0 if derivative else 1)
        n = 0
        eps = mpmath.mpf(2) ** (-(mpmath.mp.prec + 8))
        maxab = mpmath.mpf(1)
        while True:
            n += 1
            denom = n * (mpmath.mpf(nu.numerator) / nu.denominator + n)
            term = term * quarter / denom
            contrib = term * n / x * 2 if derivative else term
            acc += contrib
            at = abs(contrib)
            if at > maxab:
                maxab = at
            if n > 2 and at <= eps * maxab:
                break
        out.append((acc, n))
    return tuple(out)


class TestMergedBesselSeries:
    """The one-loop value and derivative equal the two-loop sums to the bit."""

    @pytest.mark.parametrize("prec", [96, 200, 512])
    def test_bit_identical_to_two_loops(self, prec):
        stops_differ = 0
        with mpmath.workprec(prec):
            for nu in (0, F(1, 2), 3, F(-1, 3)):
                for x in ("0.25", "1", "2.4048", "7.5", "31.3", "60"):
                    x = mpmath.mpf(x)
                    (value, n_value), (deriv, n_deriv) = _two_loop_reference(nu, x)
                    got_value, got_deriv = _bessel_series(nu, x, True)
                    assert got_value._mpf_ == value._mpf_
                    assert got_deriv._mpf_ == deriv._mpf_
                    assert bessel_series_value(nu, x)._mpf_ == value._mpf_
                    assert _bessel_series(nu, x, False) == (got_value, None)
                    stops_differ += n_value != n_deriv
        # the two sums stop at different n at 8 (96 bits) or 13 of these 24 points
        assert stops_differ >= 8


class TestPartialPowerSums:
    def test_rayleigh_first(self):
        table = bessel_zeros(0, 60, 160)
        s, tail = partial_power_sum_with_tail(table, 1, "bessel", 160)
        # exact limit is 1/4; the partial sum must sit within the estimate
        assert abs(float(s) - 0.25) <= float(tail)
        assert float(tail) < 2e-3

    def test_monotone_decreasing_in_n(self):
        p = None
        table = bessel_zeros(0, 25, 128)
        prev = None
        for n in range(1, 6):
            s, _ = partial_power_sum_with_tail(table, n, "none", 128)
            if prev is not None:
                assert s < prev
            prev = s

    def test_high_power_dominated_by_first_zero(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("14.134725141\n21.022039638\n25.010857580\n")
        table = load_zero_table(p, precision=160)
        s, tail = partial_power_sum_with_tail(table, 10, "riemann", 160)
        first = float(table.first) ** -20
        assert abs(float(s) - first) / first < 4e-4
        assert float(tail) < first * 1e-3

    def test_riemann_tail_model_shape(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("\n".join(str(14.0 + 7 * k) for k in range(50)))
        table = load_zero_table(p, precision=128)
        s1, t1 = partial_power_sum_with_tail(table, 1, "riemann", 128)
        s2, t2 = partial_power_sum_with_tail(table, 2, "riemann", 128)
        assert t2 < t1
        assert s2 < s1

    def test_bad_model_rejected(self):
        table = bessel_zeros(0, 2, 128)
        with pytest.raises(ValueError):
            partial_power_sum_with_tail(table, 1, "unknown-model")


class TestPackagedRiemannTable:
    def test_prefix_and_shape(self):
        from posroot.zeros import packaged_riemann_table
        table = packaged_riemann_table(limit=50, precision=160)
        assert len(table) == 50
        assert abs(float(table.first) - 14.134725141) < 1e-9
        assert abs(float(table[1]) - 21.022039639) < 1e-8

    def test_held_in_under_1_2_mb(self):
        import tracemalloc

        from posroot.zeros import packaged_riemann_table
        packaged_riemann_table(limit=1, precision=320)      # imports and caches
        tracemalloc.start()
        try:
            table = packaged_riemann_table(precision=320)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 10000
        assert held < 1.2e6

    def test_ordinates_are_the_decimals_rounded_once(self):
        from posroot.zeros import packaged_riemann_table
        from importlib.resources import files

        table = packaged_riemann_table(precision=128)
        lines = [l for l in files("posroot").joinpath("data/riemann_zeros_10000.txt")
                 .read_text().splitlines() if l and not l.startswith("#")]
        assert len(table) == len(lines)
        for i in (0, 1, 999, 1000, len(lines) - 1, -1):
            _, man, exp = _decimal(lines[i], 128)
            assert table[i].value._mpf_ == from_man_exp(man, exp)
            assert table[i].prec == 128
        assert table.ordinates[-1] == table[len(table) - 1]
        assert [z.value for z in reversed(table)][:3] == [table[-k].value for k in (1, 2, 3)]
        assert table.first.value == next(iter(table)).value

    def test_first_ordinates_bracket_series_sign_changes(self):
        # the loaded ordinates are validated against the function itself:
        # the moment-built series for the reduced xi product changes sign
        # across each squared ordinate.  Distant zeros damp the product to
        # ~1e-6 near the third ordinate, so enough moments are needed to push
        # the truncation bias below that, and the window is a few percent.
        from posroot.catalog import riemann_moments, reduced_series_from_moments
        from posroot.zeros import packaged_riemann_table, verify_sign_changes

        mr = riemann_moments(48, 320)
        Fz = reduced_series_from_moments(mr)
        table = packaged_riemann_table(limit=3, precision=320)

        def ev(x):
            return Fz.evaluate(x * x)

        verify_sign_changes(table, ev, indices=[0, 1, 2], rel_h=0.03)
