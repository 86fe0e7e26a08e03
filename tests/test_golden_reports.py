"""Report bytes pinned across commits.

Each config runs ``posroot.cli.main`` and hashes the files it writes (the
JSON report, and the CSV triangle where the verb has one).  Fifteen hashes
were recorded from the tree before the certificate pipeline was merged into
one path, the three high-order shifted-even ones before the shifted-even
transform moved from complex Taylor shifts to real arithmetic, and the two
high-precision theta-kernel moment runs (an even character, and Riemann at
1024 bits) before the quadrature moved to libmp tuples, and the three
symbolic q-Bessel ones (ν = 1/2 certificates and the K = 4 power sums)
before polynomial products moved to packed exponent keys, and the
``scan-phi`` and ``zeros --table`` ones before the report envelopes were
built by one helper, and the two exact derivative ones (Bessel B=24 as a
JSON-only run, q-Bessel q=2/3 B=16) before exact cells were summed as
integers and the JSON was streamed, and the eight quadrature-backed ones
(Riemann, Dirichlet and Bessel-K moments and certificates) were re-recorded
when the quadrature began to stop at an a priori strip bound, which moved
only their ``errors``/``moment_errors``, ``nodes``, ``levels_used`` and
``h_final`` fields, and re-recorded again when the strip bound's tail began to
choose the truncation point ``T``, which moved only their ``T``, ``nodes`` and
``errors``/``moment_errors`` fields, and re-recorded again when the trapezoid
step became the largest the strip bound allows rather than a power-of-two
level, which moved only their ``errors``/``moment_errors``, ``nodes``,
``h_final`` and ``levels_used`` fields, and re-recorded again when the node
sums became exact integers, which moved only their ``errors``/``moment_errors``
fields.  Every ``certify``, ``moments`` and ``powersums`` pin (23 of them) was
re-recorded when the quadrature's settings left the command line, which deleted
only the ``quad_T``, ``quad_levels`` and ``quad_ns_max`` keys of
``metadata.config_echo``; each new pin is the hash of the earlier report with
those keys deleted, and no CSV moved.  The five ``moments`` and ``powersums``
pins were re-recorded when each verb began to take only the flags it reads:
``moments`` lost ``--format``, ``--nu``, ``--q`` and ``--symbolic``, and
``powersums`` lost ``--format``, which neither ever read (both only ever wrote
JSON).  Each new pin is the hash of the earlier report with those keys of
``metadata.config_echo`` deleted.  The two ``ramanujan-symbolic`` pins were
re-recorded when cells at rational bindings began to be decided exactly: only
their ``margin`` fields moved, from BigFloats to exact rationals, and every
value and verdict stayed.  The two ``riemann`` pins at B=40 with the
coefficient bound and at B=42 with 64 bits were added when float difference
tables became exact integer triangles decided with the band of their moments'
precision: the first has cells the earlier guard bits rounded, and the second
was a FAIL that rounding decided.  The ten quadrature-backed pins (the
values-only ones below) were re-recorded when each moment's recorded error
began to bound its rounding to the report precision by half an ulp of the
rounded value rather than by the rounding's own size, which moved only their
``errors``/``moment_errors`` fields.  The ``sinc-derivative-B8`` pin (cells
over Q(t) with margins at a 256-bit t = pi^2) was recorded before arithmetic
between rational functions and rational scalars skipped normalization.  The
four symbolic q-Bessel pins (the ν = 1/2 certificates at B=2 and the K = 3
and K = 4 power sums) were re-recorded when fractions in several symbols
began to be fully reduced: each printed fraction over Q(q, t_nu) equals its
earlier form by cross multiplication, every verdict and ``verdict_counts``
entry stayed, and only the certificates' float ``margin`` fields (of the
cells and of ``min_margin_cell``) at t_nu = q^(1/2) moved, by at most
2^-228 relative, since the float evaluation sums other terms.  The
three one-symbol symbolic pins (Ramanujan K = 10 and Bessel K = 12 power
sums, the Ramanujan certificate at q = 1/3, B=8) were recorded before sums
and products of one-symbol fractions were reduced by Henrici's rule.  A
change that alters any byte of any of these reports fails here.  The eight quadrature-backed reports above, and
those two, also carry a values-only pin, recorded before the integer node sums
and re-recorded with the echo keys deleted (the three ``moments`` ones twice),
that no change of the quadrature's bound or grid may move.  Criterion 11 only checks that two runs of one tree agree.  A
certificate runs with ``--format both`` unless its arguments name a format.
"""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from posroot.cli import main

GOLDEN = {
    "qbessel-moment-B8": (
        ["certify", "--function", "qbessel", "--q", "1/2", "--nu", "0",
         "--mode", "moment", "--grid", "8", "--precision", "192"],
        "b7435e3c69977f091130cbccec7f3a8066b5ea2af75e69801a076e2095f28fbf",
        "f4a8736f2380aa744054d9e0a2f4af31ba0d692074a0d749cd6c461b7a5f47a5"),
    "ramanujan-symbolic-moment-B6": (
        ["certify", "--function", "ramanujan-aq", "--symbolic", "--q", "1/2",
         "--mode", "moment", "--grid", "6"],
        "5a903b94faf17d274b53eb157b85f95f6ff89397fdca1c5f1d89829534fbd067",
        "a54085963ff19a0b8793641c2b5534ee4dff5163374d13739a6462b3add3b509"),
    "ramanujan-symbolic-derivative-B4": (
        ["certify", "--function", "ramanujan-aq", "--symbolic", "--q", "1/2",
         "--mode", "derivative", "--grid", "4"],
        "58492ea228b3dcd872e808c44775819aa7e6513fc8b91d54faac7985face3f4d",
        "eb832affebddfda7a2b38e031c398eabfb5b1d5a7352b7217957937186559a91"),
    "bessel-nu1-derivative-B8": (
        ["certify", "--function", "bessel", "--nu", "1", "--mode", "derivative",
         "--grid", "8", "--precision", "192"],
        "1bd040c5355b126a38635400b04802ca7276df5ad147cf6155b22465dbcf4d5f",
        "591da848b6e9d420f0153a31d8dc6c79924a77040825f760be2bd2b26f5ed406"),
    "airy-derivative-B8": (
        ["certify", "--function", "airy", "--mode", "derivative", "--grid", "8",
         "--precision", "192"],
        "4bd989b508c3c5a28ca038a36f700b037d7c36fea804805eea219dd96e759d37",
        "c2928d045d080510dac436462c343c0a9a01212957beb1a44b3807cd58ff08cd"),
    "airy-moment-B12": (
        ["certify", "--function", "airy", "--mode", "moment", "--grid", "12",
         "--precision", "192"],
        "47bcafbafa47a43880963347f2497659f7db1266c73de8383050db239adb9a77",
        "5a1aea76f43a3c7923491c8aca9f0b0447eb34beb8e4d159e9006af858eab34f"),
    "sinc-shifted-even-B4": (
        ["certify", "--function", "sinc", "--mode", "shifted-even", "--shift", "1/2",
         "--grid", "4", "--precision", "192"],
        "54e53e07b882967de646ba35c6d1cb7f3de440197bad3923bd3594579bd40271",
        "f19967f6470c18eed4d353299b4c1604a4e1c18513ce281eafbf7756bebf1441"),
    "besselk-shifted-even-B3": (
        ["certify", "--function", "bessel-k", "--a", "1", "--mode", "shifted-even",
         "--shift", "1/2", "--grid", "3", "--precision", "192"],
        "c2e883c2f030cdfe29ff1d14338e42ce2a838d04009d91a67b7e0704cb59385b",
        "2dc478dd48655b65facabbc45a5a3d5645c35297a6c30eb93177958872bc224a"),
    # Shifts of order 64 and 48 (C(n, j) exceeds 53 bits at order 64).  The
    # powers of the dyadic shift 1/2 are exact, so the 7/3 shift also pins
    # the rounding of c^m.
    "sinc-shifted-even-B12": (
        ["certify", "--function", "sinc", "--mode", "shifted-even", "--shift", "1/2",
         "--grid", "12", "--precision", "256"],
        "2ccdb5a50ef0c27eb37f626378de4dc70a71ce54214e9afd17f90ccf943455cc",
        "8ea115b81c8125b371066e6c34f51cbe198ccfeb0d60807c1a2ac5fcc3b7c1fd"),
    "besselk-shifted-even-B8": (
        ["certify", "--function", "bessel-k", "--a", "1", "--mode", "shifted-even",
         "--shift", "1/2", "--grid", "8", "--precision", "256"],
        "ca8fa778cd64702ba0282e618a38dbe8601dc713c51376760d0840f1d9fc6fef",
        "3d57c00e9938a8fe22669b3543b26ea96f3ef3a09d95d0a888743ec3875207e4"),
    "sinc-shifted-even-B8-shift7/3": (
        ["certify", "--function", "sinc", "--mode", "shifted-even", "--shift", "7/3",
         "--grid", "8", "--precision", "256"],
        "bdf45044d74c6dccba40611da170df30f95f0033c00134517a305d805d099a88",
        "b4f0f97843f4f36a977ecab178a631529862eeef18ac6e805a5864d2ca66de1f"),
    "riemann-moment-B4": (
        ["certify", "--function", "riemann-xi", "--mode", "moment", "--grid", "4",
         "--precision", "256"],
        "c082e2e7b7dd2fd6aade244804c5144b9d1c243245b8321c7149dd6dd3fb0dfc",
        "b7340bc0b9f19638b672a82eb60970e9e2336f52c00a4e5fb6a0ad3aacd23299"),
    # Fast-decaying moments: the exact triangle's cells (38,0)..(40,0) need
    # more bits than P + len + J, so every cell is tagged with the widest.
    "riemann-coefficient-bound-moment-B40": (
        ["certify", "--function", "riemann-xi", "--mode", "moment", "--grid", "40",
         "--precision", "320", "--lambda-policy", "coefficient-bound"],
        "3d041a564a17d8f54e87f0878d9d39aaee1bf4c33152c9bdd9747a4f707cd104",
        "6553469e5f833ab8c9ec5a33dac6f590698fc832461b9a324bdc4aa65086d920"),
    # Deeper than 64-bit moments can decide: INDETERMINATE (exit 3) after the
    # retry at 128 bits, where a band narrowed to the cells' tag said FAIL.
    "riemann-moment-B42-64": (
        ["certify", "--function", "riemann-xi", "--mode", "moment", "--grid", "42",
         "--precision", "64"],
        "0300a48745e38a1852f55b6c086cc40f0cf7c2cdc01ccc0d8538ce8c8916237b",
        "8b63adac16cec753f67a9ea6cae66c211bc1fbe8a8a293d0d5c4da3ba9d8bafc"),
    "riemann-derivative-B4": (
        ["certify", "--function", "riemann-xi", "--mode", "derivative", "--grid", "4",
         "--precision", "256"],
        "3be2258bc57a43d30be863406be778c2a6b003e4f35c863dc8c2f8503d573312",
        "07fdaec399de829e2d51ff99efff5836b81dfb5d3502cc313920c9869ad28624"),
    "dirichlet-m4-moment-B4": (
        ["certify", "--function", "dirichlet-xi", "--discriminant", "-4",
         "--mode", "moment", "--grid", "4", "--precision", "192"],
        "5a4af82a186385f5d9206e50ef3d543ccd48783860fac29b536d89dfbf8d6720",
        "31a3d994dc0b2911b59f6e6121423aa8dff7a91cafb8b2c0c8de7d254d921be3"),
    "adversarial-seed42": (
        ["adversarial", "--seed", "42", "--draws", "3", "--grid", "16",
         "--base-count", "24"],
        "1b3970e7693a9d21ae0cb30f0978389f03dcc25934c0f71083ee1958bb89241c", None),
    "moments-besselk": (
        ["moments", "--function", "bessel-k", "--a", "1", "--orders", "4",
         "--precision", "192"],
        "4f99cd7af2716f0ae3729825769afebed96e5361c1fea1c17c1d10c14948a2af", None),
    # D = 8 is an even character (a = 0); Riemann at the 1024 bits of the
    # xi-quadrature benchmark workload.
    "moments-dirichlet-D8-640": (
        ["moments", "--function", "dirichlet-xi", "--discriminant", "8", "--orders", "6",
         "--precision", "640"],
        "e31b5f39a890f53adeb2e6704859b64fa3fd1d7ad44b3996f461400976631440", None),
    "moments-riemann-1024": (
        ["moments", "--function", "riemann-xi", "--orders", "6", "--precision", "1024"],
        "14ee51b368738ac73d56b770e460c4f7bde3f8a104be065360f8fdd2e02d5dbb", None),
    # At ν = 1/2 the binding t_nu = q^ν is a BigFloat, so each multivariate
    # cell is summed term by term in float: the bytes pin the term order.
    "qbessel-symbolic-nu1/2-moment-B2": (
        ["certify", "--function", "qbessel", "--symbolic", "--q", "1/2", "--nu", "1/2",
         "--mode", "moment", "--grid", "2"],
        "e8f98004c8661b23b41ceac7d589f1595ca2964c308ef5aeaf7e5e2f0642d4f1",
        "998f06b1f0fab4fab91036c433932398c280612144c1ae7639f1d35da9244293"),
    "qbessel-symbolic-nu1/2-derivative-B2": (
        ["certify", "--function", "qbessel", "--symbolic", "--q", "1/2", "--nu", "1/2",
         "--mode", "derivative", "--grid", "2"],
        "4acfa1fd8f12963974066a612fe66cd591eb85c9b6eb19893049aab97c4a8a62",
        "5161c856ac0bf415f022556d6a096079a92353e4cc25fb8f21659afb326c029d"),
    "powersums-qbessel-symbolic-K3": (
        ["powersums", "--function", "qbessel", "--symbolic", "--count", "3"],
        "1bf71e7083d33deef5663f503752b25298d91af73d149416fc0bbf94cc5666cf", None),
    # The symbolic benchmark workload's q-Bessel job.
    "powersums-qbessel-symbolic-K4": (
        ["powersums", "--function", "qbessel", "--symbolic", "--count", "4"],
        "1234da90e4d181be2a69e6aabb9b8e5dee0079cc8e18a0517feb684d2c38c97f", None),
    # The symbolic benchmark workload's one-symbol jobs: power sums over Q(q)
    # and Q(nu), and a certificate over Q(q) decided at q = 1/3.
    "powersums-ramanujan-symbolic-K10": (
        ["powersums", "--function", "ramanujan-aq", "--symbolic", "--count", "10"],
        "597cfa15ae204b7975d5e8904027ae80454a2f1794e26f04e0043b1e17b3f654", None),
    "powersums-bessel-symbolic-K12": (
        ["powersums", "--function", "bessel", "--symbolic", "--count", "12"],
        "06427db51c831f68a1a833573f4622144617aa6ed0250184901cbf8a251e1266", None),
    "ramanujan-symbolic-q1/3-moment-B8": (
        ["certify", "--function", "ramanujan-aq", "--mode", "moment", "--grid", "8",
         "--symbolic", "--q", "1/3"],
        "b3914c7696d1b7addfa59e503e33b82bf4e26520201b0c6441a355cb84a0b92a",
        "af3c9d0ff75897e65eac133458f68076398ba6bf391ce9687640e56f9592ddba"),
    # Exact derivative cells summed over one integer scale; the B=24 run is
    # JSON-only, so no CSV is written.
    "bessel-nu0-derivative-B24-json": (
        ["certify", "--function", "bessel", "--nu", "0", "--mode", "derivative",
         "--grid", "24", "--format", "json"],
        "932a990f68c362b89fa2a1f5878b21244d964386d4c532215f0a73563f915c31", None),
    "qbessel-q2/3-derivative-B16": (
        ["certify", "--function", "qbessel", "--q", "2/3", "--nu", "0",
         "--mode", "derivative", "--grid", "16", "--format", "both"],
        "41f655dfc17a22ac7cd1046a3d5d2658915591053cf91ac35bf560cc71494d67",
        "d66a9127456e06fecc6054605baa48eba8a02e66fca15dcbecd49472f21effdb"),
    # Cells over Q(t), each decided at a 256-bit t = pi^2.
    "sinc-derivative-B8": (
        ["certify", "--function", "sinc", "--mode", "derivative", "--grid", "8"],
        "42945cc5ad4a3df230f2d269e8c14410ad1cee0ac6318bb95fb655f9771d44ef",
        "cb23f7de2209d0ae039043817e866fc9cd71afbe46123a75c4a6b4153296f7ce"),
    "zeros-nu0": (
        ["zeros", "--nu", "0", "--count", "5", "--precision", "128"],
        "46f94617d891db05fe5ce4950cd9b6633a0932d346a8f9fad5736de5d93845da", None),
    "scan-phi-D-4": (
        ["scan-phi", "--discriminant", "-4", "--t-max", "2", "--points", "21",
         "--precision", "64"],
        "5cc408101e8dc94ed0d62ee15f73b723688d9def27344b1aecbe944dc30b97b8", None),
}

# ``zeros --table`` echoes the table path into the report, so it runs from
# the table's directory with a relative path.
ZERO_TABLE = ("# test table\n14.134725141734693790\n21.022039638771554993\n"
              "25.010857580145688763\n30.424876125859513210\n")
ZERO_TABLE_SHA = "420b7e9d50a6aaf8eaf5dc4a658cacf4ca618126418740a55930f46b8fbbe29e"


# The quadrature-backed reports once more, as hashes of their canonical JSON
# (sorted keys, no whitespace) with the quadrature's error and grid fields
# deleted at any depth: a change that moves only the error bound, the cut-off
# or the grid re-records the byte pins above and leaves these, and one that
# moves any value or verdict fails here.
GRID_AND_ERROR_KEYS = {"errors", "moment_errors", "nodes", "h_final", "levels_used", "T"}
VALUES_ONLY = {
    "besselk-shifted-even-B3":
        "cdfab1940e865f4011f13bf4525e2048002cde52afadb32079b345205c3e5071",
    "besselk-shifted-even-B8":
        "73bd27868cbd970e97222c5058bd012c8705e86caabe149f2194e80beed1d43a",
    "dirichlet-m4-moment-B4":
        "cea288b898830104a9ecea9f208c99058a80ee791efb9d3a62dba9299e172144",
    "moments-besselk":
        "d9a2513ba68098c4a4d815f804e31dbd3e90372ca6888b8cc165da010f9a2601",
    "moments-dirichlet-D8-640":
        "17ded0d0a22ccf99407fa862e4612c72d648520909db6044e75619f1e4e3c8bf",
    "moments-riemann-1024":
        "066a6c0e52d1f594834ea30ea32ac959e84fda9ef34ec1d5ce04c52a7aaebc63",
    "riemann-coefficient-bound-moment-B40":
        "75949c295cd961f9a30093ac496767d2d4f126bd8254a7eea5d952ceda385a9b",
    "riemann-derivative-B4":
        "58337ee6b552b028c2a6dbc88e8bc1d8734cbdfde20ea248f7103beff8436766",
    "riemann-moment-B4":
        "77dadd5eb599f0ac30068639844f0f04ad36f990ac48793c353f371d8808de5a",
    "riemann-moment-B42-64":
        "a91de27f5fbc2146ea38587f5f3b0b41c5bf9dec31e29699926c68dcbb55d90f",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest() if data is not None else None


def _read(path):
    return path.read_bytes() if path.exists() else None


def _run(args, directory):
    """The JSON report's and the CSV triangle's bytes (None where not written)."""
    out = directory / "report.json"
    both = args[0] == "certify" and "--format" not in args
    fmt = ["--format", "both"] if both else []
    assert main(args + fmt + ["--output", str(out)]) in (0, 2, 3)
    return _read(out), _read(directory / "report.csv")


@functools.cache
def _report(name):
    with tempfile.TemporaryDirectory() as directory:
        return _run(GOLDEN[name][0], Path(directory))


def _values_only(obj):
    if isinstance(obj, dict):
        return {k: _values_only(v) for k, v in obj.items() if k not in GRID_AND_ERROR_KEYS}
    if isinstance(obj, list):
        return [_values_only(v) for v in obj]
    return obj


def _values_sha(report: bytes) -> str:
    canonical = json.dumps(_values_only(json.loads(report)), sort_keys=True,
                           separators=(",", ":"))
    return _sha(canonical.encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name):
    _, json_sha, csv_sha = GOLDEN[name]
    assert tuple(map(_sha, _report(name))) == (json_sha, csv_sha)


@pytest.mark.parametrize("name", sorted(VALUES_ONLY))
def test_report_values_unchanged(name):
    assert _values_sha(_report(name)[0]) == VALUES_ONLY[name]


def test_zero_table_report_bytes_unchanged(tmp_path, monkeypatch):
    (tmp_path / "zeros.txt").write_text(ZERO_TABLE)
    monkeypatch.chdir(tmp_path)
    args = ["zeros", "--table", "zeros.txt", "--limit", "3", "--precision", "128"]
    assert tuple(map(_sha, _run(args, tmp_path))) == (ZERO_TABLE_SHA, None)
