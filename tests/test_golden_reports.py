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
fields; a change that alters any byte of any of these reports fails here.
Those eight also carry a values-only pin, recorded before the integer node
sums, that no change of the quadrature's bound or grid may move.  Criterion 11
only checks that two runs of one tree agree.  A certificate runs with
``--format both`` unless its arguments name a format.
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
        "cc3cff005b5c34e3386f3f34afc376c4eb0200a74112348c4ed32dc216a49e69",
        "f4a8736f2380aa744054d9e0a2f4af31ba0d692074a0d749cd6c461b7a5f47a5"),
    "ramanujan-symbolic-moment-B6": (
        ["certify", "--function", "ramanujan-aq", "--symbolic", "--q", "1/2",
         "--mode", "moment", "--grid", "6"],
        "ca9424a029adc30b5f91a8d3c02e3046319f47d0b6292c6b1c1da1dd0d3e183f",
        "a54085963ff19a0b8793641c2b5534ee4dff5163374d13739a6462b3add3b509"),
    "ramanujan-symbolic-derivative-B4": (
        ["certify", "--function", "ramanujan-aq", "--symbolic", "--q", "1/2",
         "--mode", "derivative", "--grid", "4"],
        "8f4848ea609a0bad45260b392c116d0381f39bb542242c5d5badb5a11e66a9c3",
        "eb832affebddfda7a2b38e031c398eabfb5b1d5a7352b7217957937186559a91"),
    "bessel-nu1-derivative-B8": (
        ["certify", "--function", "bessel", "--nu", "1", "--mode", "derivative",
         "--grid", "8", "--precision", "192"],
        "de2c4e923ae429d917e6a8ce293c04c5134a000e01ade28375584afb65262c34",
        "591da848b6e9d420f0153a31d8dc6c79924a77040825f760be2bd2b26f5ed406"),
    "airy-derivative-B8": (
        ["certify", "--function", "airy", "--mode", "derivative", "--grid", "8",
         "--precision", "192"],
        "2782e307393c8790699a31933b0e5e8cce8ababe7379231808d27c70a57c2066",
        "c2928d045d080510dac436462c343c0a9a01212957beb1a44b3807cd58ff08cd"),
    "airy-moment-B12": (
        ["certify", "--function", "airy", "--mode", "moment", "--grid", "12",
         "--precision", "192"],
        "50ab0be220cf7d463230c4f00c28e8e91b80ec0adc5b5012962e596b8d05d79e",
        "5a1aea76f43a3c7923491c8aca9f0b0447eb34beb8e4d159e9006af858eab34f"),
    "sinc-shifted-even-B4": (
        ["certify", "--function", "sinc", "--mode", "shifted-even", "--shift", "1/2",
         "--grid", "4", "--precision", "192"],
        "90117a928d1be28c5680cc51248aa8f1b75b45ca0c208854fc67eaa86ed3bb4e",
        "f19967f6470c18eed4d353299b4c1604a4e1c18513ce281eafbf7756bebf1441"),
    "besselk-shifted-even-B3": (
        ["certify", "--function", "bessel-k", "--a", "1", "--mode", "shifted-even",
         "--shift", "1/2", "--grid", "3", "--precision", "192"],
        "c8a1fe3ffa037aeedabefab19665d4b6b98d94d1eada34aaca3012ad891a0873",
        "2dc478dd48655b65facabbc45a5a3d5645c35297a6c30eb93177958872bc224a"),
    # Shifts of order 64 and 48 (C(n, j) exceeds 53 bits at order 64).  The
    # powers of the dyadic shift 1/2 are exact, so the 7/3 shift also pins
    # the rounding of c^m.
    "sinc-shifted-even-B12": (
        ["certify", "--function", "sinc", "--mode", "shifted-even", "--shift", "1/2",
         "--grid", "12", "--precision", "256"],
        "c085137ce830149b935f38c6a5157d9f46f81fc8747bbdae3f9265b5a903542e",
        "8ea115b81c8125b371066e6c34f51cbe198ccfeb0d60807c1a2ac5fcc3b7c1fd"),
    "besselk-shifted-even-B8": (
        ["certify", "--function", "bessel-k", "--a", "1", "--mode", "shifted-even",
         "--shift", "1/2", "--grid", "8", "--precision", "256"],
        "730e41173781a9b0f4a35bd4c752f5f85ade5a953d0d84846a51d8472dcd601d",
        "3d57c00e9938a8fe22669b3543b26ea96f3ef3a09d95d0a888743ec3875207e4"),
    "sinc-shifted-even-B8-shift7/3": (
        ["certify", "--function", "sinc", "--mode", "shifted-even", "--shift", "7/3",
         "--grid", "8", "--precision", "256"],
        "c49b3bed245ce8bcbbaa78501957c8fe80318e82c1047fab9a6c0bc0d655f87b",
        "b4f0f97843f4f36a977ecab178a631529862eeef18ac6e805a5864d2ca66de1f"),
    "riemann-moment-B4": (
        ["certify", "--function", "riemann-xi", "--mode", "moment", "--grid", "4",
         "--precision", "256"],
        "6262c2ca380a2ffd8a135f0aaad4c68eb75e8c0eb5b69f4de44b46e8f54c9129",
        "b7340bc0b9f19638b672a82eb60970e9e2336f52c00a4e5fb6a0ad3aacd23299"),
    "riemann-derivative-B4": (
        ["certify", "--function", "riemann-xi", "--mode", "derivative", "--grid", "4",
         "--precision", "256"],
        "a3009957464947f53e44aae2679827fba00064cb4450c2f283b78ec3652d5884",
        "07fdaec399de829e2d51ff99efff5836b81dfb5d3502cc313920c9869ad28624"),
    "dirichlet-m4-moment-B4": (
        ["certify", "--function", "dirichlet-xi", "--discriminant", "-4",
         "--mode", "moment", "--grid", "4", "--precision", "192"],
        "cf32fe888bae7d6426c03450c1f52eb158cb299a7f0a49191b618fbf13d217f5",
        "31a3d994dc0b2911b59f6e6121423aa8dff7a91cafb8b2c0c8de7d254d921be3"),
    "adversarial-seed42": (
        ["adversarial", "--seed", "42", "--draws", "3", "--grid", "16",
         "--base-count", "24"],
        "1b3970e7693a9d21ae0cb30f0978389f03dcc25934c0f71083ee1958bb89241c", None),
    "moments-besselk": (
        ["moments", "--function", "bessel-k", "--a", "1", "--orders", "4",
         "--precision", "192"],
        "ce968e23cd3ccd15d7d5f038b571972eb8cc4541f737632cd4c255b824ec7924", None),
    # D = 8 is an even character (a = 0); Riemann at the 1024 bits of the
    # xi-quadrature benchmark workload.
    "moments-dirichlet-D8-640": (
        ["moments", "--function", "dirichlet-xi", "--discriminant", "8", "--orders", "6",
         "--precision", "640"],
        "e37ee55b9de8efcd4250d5d223f930087d39534bedcb126ff4fe24159cba991e", None),
    "moments-riemann-1024": (
        ["moments", "--function", "riemann-xi", "--orders", "6", "--precision", "1024"],
        "c550a36d718865bf6acc4753a4d3182dc1c76ea8414f3c089eb4100d4ebbe815", None),
    # At ν = 1/2 the binding t_nu = q^ν is a BigFloat, so each multivariate
    # cell is summed term by term in float: the bytes pin the term order.
    "qbessel-symbolic-nu1/2-moment-B2": (
        ["certify", "--function", "qbessel", "--symbolic", "--q", "1/2", "--nu", "1/2",
         "--mode", "moment", "--grid", "2"],
        "f2d1d80141ff2ca6862739d979e6d81ef0450c7f89fcce3c0495133914f3d18e",
        "58bd0fae40f07545c8e20175af8962c6f0dcb0ff96a0db566e950bb1576a07f9"),
    "qbessel-symbolic-nu1/2-derivative-B2": (
        ["certify", "--function", "qbessel", "--symbolic", "--q", "1/2", "--nu", "1/2",
         "--mode", "derivative", "--grid", "2"],
        "1e87f325f565fcc03211f798b5dc366282105c3dd0938c122d386dc581bb1660",
        "183ffc23bc8f96e1f08334b6266960124a8f3007b180fa59e71f4e607d8f67dc"),
    "powersums-qbessel-symbolic-K3": (
        ["powersums", "--function", "qbessel", "--symbolic", "--count", "3"],
        "5ebb487c5d41a03595f10ea08228aa8ce1270016bdc1ef8897646835cf0b5ccb", None),
    # The symbolic benchmark workload's q-Bessel job.
    "powersums-qbessel-symbolic-K4": (
        ["powersums", "--function", "qbessel", "--symbolic", "--count", "4"],
        "758dedbb34897bdc9b7f9010588f451fd36c52328bf74fdfbc49028c5649ceb2", None),
    # Exact derivative cells summed over one integer scale; the B=24 run is
    # JSON-only, so no CSV is written.
    "bessel-nu0-derivative-B24-json": (
        ["certify", "--function", "bessel", "--nu", "0", "--mode", "derivative",
         "--grid", "24", "--format", "json"],
        "465c708035051f6872a4c2812cf62276d67384a139244de4e1be7a07455931c3", None),
    "qbessel-q2/3-derivative-B16": (
        ["certify", "--function", "qbessel", "--q", "2/3", "--nu", "0",
         "--mode", "derivative", "--grid", "16", "--format", "both"],
        "65a08b5655145161d7e3e84c4e3d0af8cdfd0a1e597352900477cf420a380f68",
        "d66a9127456e06fecc6054605baa48eba8a02e66fca15dcbecd49472f21effdb"),
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
        "5b7cc3e272610fc6f94ee1664e2f4bc5985fb37f1342249584a72b629096b3c3",
    "besselk-shifted-even-B8":
        "75615811ed940376d589c4f668f15d56c64f9d8d7d8ac65e0d270464df1d4f03",
    "dirichlet-m4-moment-B4":
        "1980a6a040dca141d8528b8da6b051a0ae9b08132e6f29e4134d9edc01cc9641",
    "moments-besselk":
        "7b170b99e1d3aaa62d4346a1d9babc4f613ff2f42a1bf59cb3e5ebd8e8591205",
    "moments-dirichlet-D8-640":
        "d84bd1781de9a6467dec1e3188e22c9c70cd438d6d81db61ffd054575ddc5eaf",
    "moments-riemann-1024":
        "839a22c309e9ed484197494d32ce6337aa5f4c303a40f36b642232dbbf978d1c",
    "riemann-derivative-B4":
        "fd05f8d069904b856e53784c2813a8c66153bdbc1af936b09e0b9c87c4af7ce7",
    "riemann-moment-B4":
        "da0e9e74d32f3d411198298b4ccdbe13ed552d6fc21c0173838fd95de839d955",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest() if data is not None else None


def _read(path):
    return path.read_bytes() if path.exists() else None


def _run(args, directory):
    """The JSON report's and the CSV triangle's bytes (None where not written)."""
    out = directory / "report.json"
    both = args[0] in ("certify", "moments", "powersums") and "--format" not in args
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
