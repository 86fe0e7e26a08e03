import random
from fractions import Fraction as F

import pytest

from posroot import scalars
from posroot.catalog import qbessel_coeffs
from posroot.scalars import RationalFunction
from posroot.symfun import (
    ElementarySequence,
    InsufficientCoefficients,
    Partition,
    elementary_from_power_sums,
    enumerate_partitions,
    power_sums_closed_form,
    power_sums_from_elementary,
)


def elementary_of(roots, K):
    """Brute-force e_k of a finite sequence by expanding prod (1 - l z)."""
    coeffs = [F(1)]
    for lam in roots:
        new = coeffs + [F(0)]
        for i in range(len(coeffs), 0, -1):
            new[i] = new[i] - lam * coeffs[i - 1]
        coeffs = new
    e = [F(1)]
    for k in range(1, K + 1):
        c = coeffs[k] if k < len(coeffs) else F(0)
        e.append(c if k % 2 == 0 else -c)
    return ElementarySequence(e)


def direct_power_sums(roots, K):
    return [sum(F(l) ** k for l in roots) for k in range(1, K + 1)]


def brute_force_partitions(k):
    """Independent enumeration: all descending part lists summing to k."""
    out = []

    def rec(rem, maxpart, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rem, maxpart), 0, -1):
            rec(rem - p, p, acc + [p])

    rec(k, k, [])
    return out


class TestExamples:
    def test_two_point_sequence(self):
        # l = {1/2, 1/3}: oracle by direct summation
        roots = [F(1, 2), F(1, 3)]
        e = ElementarySequence([F(1), F(5, 6), F(1, 6), F(0)])
        p = power_sums_from_elementary(e, 3)
        assert [p[k] for k in (1, 2, 3)] == direct_power_sums(roots, 3)
        assert [p[k] for k in (1, 2, 3)] == [F(5, 6), F(13, 36), F(35, 216)]

    def test_single_root(self):
        e = ElementarySequence([F(1), F(1)] + [F(0)] * 8)
        p = power_sums_from_elementary(e, 8)
        assert all(p[k] == 1 for k in range(1, 9))

    def test_sinc_symbolic_matches_numeric_zeta(self):
        # e_k = t^k/(2k+1)! gives p_1 = t/6, p_2 = t^2/90; the numeric oracle
        # is direct summation of 1/n^2 and 1/n^4 against pi^2/6, pi^4/90
        t = RationalFunction.variable(("t",), "t")
        e = ElementarySequence([RationalFunction.constant(("t",), 1),
                                t / 6, t ** 2 / 120])
        p = power_sums_from_elementary(e, 2)
        assert p[1] == t / 6
        assert p[2] == t ** 2 / 90
        import mpmath
        with mpmath.workprec(80):
            z2 = mpmath.nsum(lambda n: 1 / n ** 2, [1, mpmath.inf])
            z4 = mpmath.nsum(lambda n: 1 / n ** 4, [1, mpmath.inf])
            pi2 = mpmath.pi ** 2
            got1 = p[1].evaluate({"t": F(1)})  # rational coefficient of t
            got2 = p[2].evaluate({"t": F(1)})
            assert abs(float(got1) - float(z2 / pi2)) < 1e-12
            assert abs(float(got2) - float(z4 / pi2 ** 2)) < 1e-12


class TestQBesselOverTwoSymbols:
    """Newton over Q(q, t_nu) keeps every power sum fully reduced."""

    def test_term_counts_of_the_reduced_power_sums(self):
        # (numerator, denominator) term counts of p_1..p_4 in lowest terms,
        # as an independent computer algebra system's cancel gives them
        p = power_sums_from_elementary(qbessel_coeffs(None, None, 4), 4)
        assert [(len(p[k].num.terms), len(p[k].den.terms)) for k in range(1, 5)] == \
            [(1, 4), (3, 12), (8, 30), (25, 74)]

    def test_partial_reduction_keeps_the_values(self, monkeypatch):
        e = qbessel_coeffs(None, None, 3)
        reduced = power_sums_from_elementary(e, 3)
        monkeypatch.setattr(scalars, "HEU_GCD_TRIES", 0)
        partial = power_sums_from_elementary(qbessel_coeffs(None, None, 3), 3)
        for k in range(1, 4):
            assert partial[k] == reduced[k]
        assert len(partial[3].den.terms) > len(reduced[3].den.terms)


class TestClosedForm:
    def test_matches_recurrence_on_example(self):
        e = ElementarySequence([F(1), F(5, 6), F(1, 6)])
        assert power_sums_closed_form(e, 2) == F(13, 36)

    def test_k1_is_e1(self):
        e = ElementarySequence([F(1), F(7, 3), F(2)])
        assert power_sums_closed_form(e, 1) == F(7, 3)

    def test_single_root_k3(self):
        e = ElementarySequence([F(1), F(1), F(0), F(0)])
        assert power_sums_closed_form(e, 3) == 1

    def test_random_vectors_match_recurrence(self):
        rng = random.Random(424242)
        for _ in range(60):
            K = rng.randint(1, 12)
            e = ElementarySequence(
                [F(1)] + [F(rng.randint(-50, 50), rng.randint(1, 20))
                          for _ in range(K)])
            p = power_sums_from_elementary(e, K)
            for k in range(1, K + 1):
                assert power_sums_closed_form(e, k) == p[k]


class TestPartitions:
    def test_k1(self):
        assert enumerate_partitions(1) == [Partition((1,))]

    @pytest.mark.parametrize("k,count", [(4, 5), (10, 42)])
    def test_counts_against_bruteforce(self, k, count):
        brute = brute_force_partitions(k)
        assert len(brute) == count
        parts = enumerate_partitions(k)
        assert len(parts) == count
        # same multisets, each exactly once
        def to_mult(part_list):
            m = [0] * k
            for p in part_list:
                m[p - 1] += 1
            j = max(part_list)
            return tuple(m[:j])
        assert sorted(p.multiplicities for p in parts) == sorted(map(to_mult, brute))

    def test_weights_sum_correctly(self):
        for part in enumerate_partitions(9):
            assert part.k == 9

    def test_deterministic_order(self):
        a = enumerate_partitions(7)
        b = enumerate_partitions(7)
        assert a == b
        # first partition is the single part (k), last is all ones
        assert a[0].multiplicities == (0,) * 6 + (1,)
        assert a[-1].multiplicities == (7,)


class TestRoundTrip:
    def test_example(self):
        p = power_sums_from_elementary(
            ElementarySequence([F(1), F(5, 6), F(1, 6), F(0)]), 3)
        e = elementary_from_power_sums(p, 3)
        assert list(e.values) == [F(1), F(5, 6), F(1, 6), F(0)]

    def test_all_ones(self):
        from posroot.symfun import PowerSumSequence
        p = PowerSumSequence([F(1)] * 6)
        e = elementary_from_power_sums(p, 6)
        assert list(e.values) == [F(1), F(1)] + [F(0)] * 5

    def test_symbolic_q_t(self):
        t = RationalFunction.variable(("t",), "t")
        from posroot.symfun import PowerSumSequence
        p = PowerSumSequence([t / 6, t ** 2 / 90])
        e = elementary_from_power_sums(p, 2)
        assert e[1] == t / 6
        assert e[2] == t ** 2 / 120  # = t^2/5! matches the sinc coefficient

    def test_random_roundtrip_exact(self):
        rng = random.Random(1331)
        for _ in range(40):
            K = rng.randint(1, 12)
            e = ElementarySequence(
                [F(1)] + [F(rng.randint(-30, 30), rng.randint(1, 12))
                          for _ in range(K)])
            p = power_sums_from_elementary(e, K)
            back = elementary_from_power_sums(p, K)
            assert all(back[k] == e[k] for k in range(K + 1))


class TestFiniteSequences:
    def test_planted_rational_roots(self):
        rng = random.Random(777)
        for _ in range(30):
            N = rng.randint(1, 6)
            K = rng.randint(1, 12)
            roots = [F(rng.randint(-20, 20), rng.randint(1, 15)) for _ in range(N)]
            e = elementary_of(roots, K)
            p = power_sums_from_elementary(e, K)
            direct = direct_power_sums(roots, K)
            assert [p[k] for k in range(1, K + 1)] == direct

    def test_insufficient_coefficients(self):
        e = ElementarySequence([F(1), F(1)])
        with pytest.raises(InsufficientCoefficients):
            power_sums_from_elementary(e, 5)

    def test_e0_must_be_one(self):
        with pytest.raises(ValueError):
            ElementarySequence([F(2), F(1)])
