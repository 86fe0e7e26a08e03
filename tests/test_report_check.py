"""Every float verdict of the golden certificates, re-decided from the report bytes alone.

The checking code above the test uses only ``json``, ``fractions`` and
``re``: it parses each printed ``0x<mantissa>p<exp>@<bits>`` exactly and
applies the verdict rule to the printed value.  A moment cell ``(j, k)`` is
NONNEGATIVE at or above ``s 2^(-P/2)`` and NEGATIVE below ``-4 s 2^(-P/2)``,
with ``s = max(1, sum_i C(j,i) |m_(k+i)|)`` summed from the printed row 0 by
Pascal's rule and ``P`` the report's ``precision_bits``.  A derivative or
shifted-even cell ``v`` is decided ``<= 0``, on ``-v``, with ``s = max(|v|,
(j+k)!)`` and ``P`` its own tag.
"""

import json
import re
from fractions import Fraction

import pytest

from test_golden_reports import GOLDEN, _report

HEX_FLOAT = re.compile(r"(-?)0x([0-9a-f]+)p([+-]\d+)@(\d+)")


def parse_float(text: str) -> tuple[Fraction, int]:
    """The exact value of a printed float and its tag in bits."""
    sign, mantissa, exp, bits = HEX_FLOAT.fullmatch(text).groups()
    value = int(mantissa, 16) * Fraction(2) ** int(exp)
    return (-value if sign else value), int(bits)


def band_verdict(x: Fraction, scale: Fraction, prec: int) -> str:
    """``x >= scale 2^(-prec/2)`` and ``x < -4 scale 2^(-prec/2)``, each side squared."""
    if x >= 0 and x * x * 2 ** prec >= scale * scale:
        return "NONNEGATIVE"
    if x < 0 and x * x * 2 ** prec > 16 * scale * scale:
        return "NEGATIVE"
    return "INDETERMINATE"


def redecide(report: dict) -> dict:
    """``(j, k) -> verdict`` for every cell, from the report's printed values."""
    cells = {(c["j"], c["k"]): parse_float(c["value"]) for c in report["cells"]}
    out = {}
    if report["mode"] == "MOMENT":
        row = [abs(cells[(0, k)][0]) for k in range(report["grid_bound"] + 1)]
        for j in range(len(row)):
            for k, s in enumerate(row):
                out[(j, k)] = band_verdict(cells[(j, k)][0], max(1, s),
                                           report["precision_bits"])
            row = [row[k] + row[k + 1] for k in range(len(row) - 1)]
        return out
    factorial = [1]
    while len(factorial) <= report["grid_bound"]:
        factorial.append(factorial[-1] * len(factorial))
    for (j, k), (v, bits) in cells.items():
        out[(j, k)] = band_verdict(-v, max(abs(v), factorial[j + k]), bits)
    return out


FLOAT_CERTIFICATES = [
    "airy-derivative-B8", "airy-moment-B12", "besselk-shifted-even-B3", "besselk-shifted-even-B8",
    "dirichlet-m4-moment-B4", "riemann-coefficient-bound-moment-B40", "riemann-derivative-B4",
    "riemann-moment-B4", "riemann-moment-B42-64", "sinc-shifted-even-B12", "sinc-shifted-even-B4",
    "sinc-shifted-even-B8-shift7/3",
]


RATIONAL = re.compile(r"-?\d+(/\d+)?")


def is_symbolic(report: dict) -> bool:
    """Whether some cell is a rational function of the report's symbols,
    decided at their bindings: with ``--symbolic``, and always for sinc,
    whose cells are over Q(t), t = pi^2."""
    return any(not (HEX_FLOAT.fullmatch(c["value"]) or RATIONAL.fullmatch(c["value"]))
               for c in report["cells"])


def test_every_other_non_symbolic_certificate_is_exact():
    for name, (args, _, _) in GOLDEN.items():
        if args[0] == "certify" and name not in FLOAT_CERTIFICATES:
            text = _report(name)[0].decode()
            symbolic = is_symbolic(json.loads(text))
            assert symbolic == ("--symbolic" in args or "sinc" in args), name
            if not symbolic:
                assert "@" not in text, name


@pytest.mark.parametrize("name", FLOAT_CERTIFICATES)
def test_every_float_verdict_follows_from_the_report(name):
    report = json.loads(_report(name)[0])
    printed = {(c["j"], c["k"]): c["verdict"] for c in report["cells"]}
    assert len(printed) == (report["grid_bound"] + 1) * (report["grid_bound"] + 2) // 2
    assert redecide(report) == printed
