"""The xi power sums against an oracle that shares no code with the pipeline.

``Lambda(1/2 + u) = Lambda(1/2) prod (1 + u^2/gamma^2)`` over the ordinates
``gamma > 0`` (for a real character too, whose ``Lambda`` is even in u), so

    log Lambda(1/2 + u) = log Lambda(1/2) + sum_k (-1)^(k+1) p_k u^(2k) / k

and ``p_k = sum gamma^(-2k)`` is ``(-1)^(k+1) k`` times the ``u^(2k)``
Taylor coefficient of ``log Lambda`` at 1/2 (Keiper, Math. Comp. 58, 1992).
For the Riemann function ``Lambda(s) = s(s-1)/2 pi^(-s/2) Gamma(s/2) zeta(s)``;
for a character of modulus q and parity a, ``Lambda(s) = (q/pi)^((s+a)/2)
Gamma((s+a)/2) L(s)`` with ``L(s) = q^(-s) sum_r chi(r) zeta(s, r/q)``.  The
factors ``pi^(-s/2)``, ``(q/pi)^(s/2)`` and ``q^(-s)`` are linear in ``log``
and drop out of the even coefficients; ``log Gamma(c + u/2)`` has the
coefficients ``psi^(m-1)(c) / (m! 2^m)``; ``log zeta`` and ``log L`` come from
the Hurwitz zeta derivatives by the log recurrence of a power series.  The
log step cancels about 7.6 bits per k, so the oracle works at
``prec + 8K + 64`` bits.  The pipeline runs end to end through the CLI:
theta-kernel quadrature, moments, Newton.
"""

import json

import mpmath
import pytest

from posroot.cli import main
from posroot.scalars import parse_bigfloat

# the real primitive characters of these discriminants, by residue
CHARACTERS = {
    -4: {1: 1, 3: -1},
    5: {1: 1, 2: -1, 3: -1, 4: 1},
    8: {1: 1, 3: -1, 5: -1, 7: 1},
}


def _log_series(a, M):
    """Coefficients 1..M of ``log(sum a_m u^m)``: ``m a_0 g_m = m a_m - sum j g_j a_(m-j)``."""
    g = [mpmath.mpf(0)] * (M + 1)
    for m in range(1, M + 1):
        g[m] = (m * a[m] - sum(j * g[j] * a[m - j] for j in range(1, m))) / (m * a[0])
    return g


def oracle_power_sums(K, precision, D=None):
    """p_1..p_K of the Riemann (D None) or Dirichlet xi function from Taylor series at 1/2."""
    M = 2 * K
    with mpmath.workprec(precision + 8 * K + 64):
        half = mpmath.mpf(1) / 2
        if D is None:
            parity, zeta = 0, [mpmath.zeta(half, 1, m) for m in range(M + 1)]
            # log(s(s-1)) = log(-(1/4 - u^2)): -sum_j (4u^2)^j / j past the constant
            c = [mpmath.mpf(0)] * (M + 1)
            for j in range(1, K + 1):
                c[2 * j] = -mpmath.mpf(4) ** j / j
        else:
            q, chi = abs(D), CHARACTERS[D]
            parity = int(chi[q - 1] == -1)
            zeta = [sum(x * mpmath.zeta(half, mpmath.mpf(r) / q, m) for r, x in chi.items())
                    for m in range(M + 1)]
            c = [mpmath.mpf(0)] * (M + 1)
        log_zeta = _log_series([z / mpmath.factorial(m) for m, z in enumerate(zeta)], M)
        shift = (half + parity) / 2
        p = []
        for k in range(1, K + 1):
            m = 2 * k
            log_gamma = mpmath.polygamma(m - 1, shift) / (mpmath.factorial(m) * 2 ** m)
            p.append((-1) ** (k + 1) * k * (c[m] + log_gamma + log_zeta[m]))
        return p


def pipeline_power_sums(K, precision, capsys, D=None):
    argv = ["powersums", "--function", "riemann-xi" if D is None else "dirichlet-xi",
            "--count", str(K), "--precision", str(precision)]
    if D is not None:
        argv += ["--discriminant", str(D)]
    capsys.readouterr()
    assert main(argv) == 0
    p = json.loads(capsys.readouterr().out)["power_sums"]
    return [parse_bigfloat(p[str(k)]).value for k in range(1, K + 1)]


def _assert_agree(K, precision, capsys, D=None):
    got = pipeline_power_sums(K, precision, capsys, D)
    want = oracle_power_sums(K, precision, D)
    with mpmath.workprec(precision + 64):
        for k, (g, w) in enumerate(zip(got, want), start=1):
            assert abs(g - w) <= abs(w) * mpmath.mpf(2) ** -(precision - 24), (D, k)


def test_riemann_power_sums_match_oracle(capsys):
    _assert_agree(8, 320, capsys)


@pytest.mark.parametrize("D", [-4, 5, 8])
def test_dirichlet_power_sums_match_oracle(capsys, D):
    _assert_agree(6, 256, capsys, D)


@pytest.mark.slow
def test_riemann_K41_power_sums_match_oracle(capsys):
    _assert_agree(41, 320, capsys)


def test_oracle_is_not_vacuous():
    # p_1 = sum 1/gamma^2 = 0.023105..., led by 1/14.1347^2 = 0.0050
    p1 = oracle_power_sums(1, 128)[0]
    assert abs(p1 - mpmath.mpf("0.0231049931154189")) < 1e-15
