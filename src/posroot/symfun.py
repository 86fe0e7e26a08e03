"""Newton's identities between elementary symmetric values and power sums.

For an absolutely summable sequence ``l_1, l_2, ...`` write

    p_k = sum_n l_n**k            (power sums, k >= 1)
    e_k = sum over k-subsets of products of distinct l's   (e_0 = 1)

The two families determine each other.  This module provides the triangular
recurrence

    p_k = (-1)**(k-1) * k * e_k + sum_{i=1}^{k-1} (-1)**(k-1+i) e_{k-i} p_i

its inverse (solved for ``e_k``), and the closed multinomial formula that
expresses ``p_k`` directly as a sum over integer partitions of ``k``.  All
three work verbatim in any coefficient domain from :mod:`posroot.scalars`
because they only use ring operations and division by integers.

Truncation semantics: although the underlying sequences may be infinite,
``p_1 .. p_K`` depend only on ``e_1 .. e_K``, so the first ``K`` entries of
either family are exactly computable from the first ``K`` of the other.  Sequences that are actually finite (polynomial products) are handled
by treating the missing elementary values as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .scalars import BigFloat, RationalFunction, DomainMismatch, ScalarError

__all__ = [
    "ElementarySequence",
    "PowerSumSequence",
    "Partition",
    "enumerate_partitions",
    "power_sums_from_elementary",
    "power_sums_closed_form",
    "elementary_from_power_sums",
    "InsufficientCoefficients",
]


class InsufficientCoefficients(ScalarError):
    """Not enough sequence entries to produce the requested index."""


def _domain_tag(values) -> str:
    kinds = set()
    for v in values:
        if isinstance(v, (int, Fraction)):
            kinds.add("rational")
        elif isinstance(v, RationalFunction):
            kinds.add("ratfunc")
        elif isinstance(v, BigFloat):
            kinds.add("float")
        else:
            raise DomainMismatch(f"unsupported coefficient type {type(v).__name__}")
    if kinds <= {"rational"}:
        return "rational"
    if kinds <= {"rational", "ratfunc"}:
        return "ratfunc"
    if kinds <= {"rational", "float"}:
        return "float"
    raise DomainMismatch(f"mixed coefficient domains: {sorted(kinds)}")


@dataclass(frozen=True)
class ElementarySequence:
    """Elementary symmetric values ``e_0 .. e_K`` with ``e_0 == 1``."""

    values: tuple
    domain: str

    def __init__(self, values: Sequence):
        values = tuple(values)
        if not values:
            raise InsufficientCoefficients("empty elementary sequence")
        if values[0] != 1:
            raise ValueError("e_0 must equal 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain", _domain_tag(values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int):
        """e_k; zero beyond the stored range (finite-sequence convention)."""
        if k < 0:
            raise IndexError(k)
        if k >= len(self.values):
            return _zero_like(self.values)
        return self.values[k]

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class PowerSumSequence:
    """Power sums ``p_1 .. p_K`` (index 1-based via :meth:`__getitem__`)."""

    values: tuple
    domain: str

    def __init__(self, values: Sequence):
        values = tuple(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain", _domain_tag(values) if values else "rational")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int):
        if not 1 <= k <= len(self.values):
            raise InsufficientCoefficients(f"p_{k} not available (have 1..{len(self.values)})")
        return self.values[k - 1]


def _zero_like(values):
    for v in values:
        if isinstance(v, RationalFunction):
            return RationalFunction.constant(v.symbols, 0)
    return Fraction(0)


@dataclass(frozen=True)
class Partition:
    """Multiplicity vector ``r_1 .. r_j`` with ``sum(i * r_i) == k``."""

    multiplicities: tuple[int, ...]

    @property
    def k(self) -> int:
        return sum((i + 1) * r for i, r in enumerate(self.multiplicities))

    @property
    def part_count(self) -> int:
        return sum(self.multiplicities)


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of ``k`` as multiplicity vectors.

    Deterministic order: by decreasing largest part, then lexicographically
    on the remainder (the natural order of the recursive descent).
    """
    if k < 1:
        raise ValueError("k must be positive")
    out: list[Partition] = []

    def descend(remaining: int, largest: int, acc: list[int]) -> None:
        if remaining == 0:
            mult = [0] * k
            for part in acc:
                mult[part - 1] += 1
            j = max(acc)
            out.append(Partition(tuple(mult[:j])))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            descend(remaining - part, part, acc)
            acc.pop()

    descend(k, k, [])
    return out


def power_sums_from_elementary(e: ElementarySequence, K: int) -> PowerSumSequence:
    """``p_1 .. p_K`` by the triangular Newton recurrence."""
    if K < 1:
        raise ValueError("K must be positive")
    if e.order < K:
        raise InsufficientCoefficients(
            f"need e_0..e_{K}, have e_0..e_{e.order} "
            "(pad with zeros for a finite sequence)")
    p: list = []
    for k in range(1, K + 1):
        sign = 1 if (k - 1) % 2 == 0 else -1
        acc = e[k] * (sign * k)
        for i in range(1, k):
            s = 1 if (k - 1 + i) % 2 == 0 else -1
            term = e[k - i] * p[i - 1]
            acc = acc + (term if s > 0 else -term)
        p.append(acc)
    return PowerSumSequence(p)


def power_sums_closed_form(e: ElementarySequence, k: int):
    """``p_k`` by the closed multinomial sum over partitions of ``k``.

    Independent of the recurrence route: each partition with multiplicities
    ``r_1..r_j`` contributes
    ``(-1)**k * k * (r_1+..+r_j-1)! / (r_1! .. r_j!) * prod (-e_i)**r_i``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if e.order < k:
        raise InsufficientCoefficients(f"need e_1..e_{k}, have e_1..e_{e.order}")
    total = None
    k_sign = 1 if k % 2 == 0 else -1
    for part in enumerate_partitions(k):
        r = part.multiplicities
        m = part.part_count
        coeff = Fraction(k_sign * k * factorial(m - 1))
        for ri in r:
            coeff /= factorial(ri)
        term = coeff
        for i, ri in enumerate(r, start=1):
            if ri:
                term = term * (-e[i]) ** ri
        total = term if total is None else total + term
    return total


def elementary_from_power_sums(p: PowerSumSequence, K: int) -> ElementarySequence:
    """``e_0 .. e_K`` from ``p_1 .. p_K`` (the recurrence solved for e_k)."""
    if K < 1:
        raise ValueError("K must be positive")
    if len(p) < K:
        raise InsufficientCoefficients(f"need p_1..p_{K}, have p_1..p_{len(p)}")
    one = Fraction(1)
    e: list = [one]
    for k in range(1, K + 1):
        sign = 1 if (k - 1) % 2 == 0 else -1
        acc = p[k]
        for i in range(1, k):
            s = 1 if (k - 1 + i) % 2 == 0 else -1
            term = e[k - i] * p[i]
            acc = acc - (term if s > 0 else -term)
        # acc == sign * k * e_k
        e.append(acc * Fraction(sign, k))
    return ElementarySequence(e)
