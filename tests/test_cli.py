import json
import random
import re
import time
from fractions import Fraction

import mpmath
import pytest

from posroot.cli import main
from posroot.scalars import parse_bigfloat, parse_rational
from posroot.zeros import bessel_zeros


def run_cli(args, capsys=None):
    code = main(args)
    return code


def evaluate_printed(text, **values):
    """A printed rational function read at exact values of its symbols."""
    expr = re.sub(r"\d+", lambda m: f"Fraction({m.group()})", text.replace("^", "**"))
    return eval(expr, {"Fraction": Fraction}, values)


class TestCertifyCommand:
    def test_sinc_pass_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["certify", "--function", "sinc", "--mode", "moment",
                     "--grid", "6", "--precision", "160", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "BOUNDED-PASS"
        assert data["schema"] == 1
        assert data["metadata"]["config_echo"]["grid"] == 6

    def test_negative_grid_config_error(self, capsys):
        code = main(["certify", "--function", "riemann-xi", "--grid", "-1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_param_config_error(self, capsys):
        code = main(["certify", "--function", "bessel", "--grid", "4"])
        assert code == 1

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["certify", "--function", "ramanujan-aq", "--q", "1/2",
                     "--grid", "5", "--format", "both", "--output", str(out)])
        assert code == 0
        csv_path = tmp_path / "report.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 7  # header + rows j=0..5
        assert lines[0].startswith("j\\k,")

    def test_derivative_mode(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["certify", "--function", "bessel", "--nu", "0",
                     "--mode", "derivative", "--grid", "5",
                     "--precision", "192", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "DERIVATIVE"
        assert data["rho"] is not None

    def test_shifted_even_retries_at_doubled_precision(self, tmp_path):
        # INDETERMINATE at 64 bits and BOUNDED-PASS at 128: every float mode retries once
        out = tmp_path / "r.json"
        code = main(["certify", "--function", "sinc", "--mode", "shifted-even", "--grid", "16",
                     "--shift", "1/2", "--precision", "64", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "BOUNDED-PASS"
        assert data["metadata"]["retried_at_bits"] == 128

    def test_deep_float_table_is_indeterminate_not_fail(self, tmp_path):
        # Cells (26,16) and (28,14) are positive at 128 bits but read about
        # -1e-13 from 64-bit moments: rounding, which a band as narrow as the
        # exact cells' wide tag would call NEGATIVE.  With the band of the
        # moments' precision they stay undecided, also after the retry.
        out = tmp_path / "r.json"
        code = main(["certify", "--function", "riemann-xi", "--mode", "moment", "--grid", "42",
                     "--precision", "64", "--format", "json", "--output", str(out)])
        assert code == 3
        data = json.loads(out.read_text())
        assert data["verdict"] == "INDETERMINATE"
        assert data["metadata"]["retried_at_bits"] == 128
        assert data["metadata"]["verdict_counts"] == {
            "INDETERMINATE": 27, "NEGATIVE": 0, "NONNEGATIVE": 919}

    def test_symbolic_ramanujan_derivative_grid6(self, tmp_path):
        # Univariate fractions in q of high degree: the gcd in every
        # RationalFunction must stay cheap for this run to finish quickly.
        out = tmp_path / "r.json"
        code = main(["certify", "--function", "ramanujan-aq", "--mode", "derivative",
                     "--grid", "6", "--symbolic", "--q", "1/2", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "BOUNDED-PASS"
        assert data["metadata"]["route_equality_max_defect"] == "0"

    @pytest.mark.parametrize("args", [
        pytest.param(["--function", "qbessel", "--symbolic", "--q", "1/2", "--nu", "1/2",
                      "--grid", "3", "--mode", "moment"], id="qbessel-moment"),
        pytest.param(["--function", "qbessel", "--symbolic", "--q", "1/2", "--nu", "1/2",
                      "--grid", "3", "--mode", "derivative"], id="qbessel-derivative"),
        pytest.param(["--function", "sinc", "--grid", "4", "--lambda-policy",
                      "coefficient-bound"], id="sinc-lambda"),
        pytest.param(["--function", "sinc", "--grid", "4", "--mode", "derivative",
                      "--rho-policy", "coefficient-bound"], id="sinc-rho"),
    ])
    def test_coefficient_bound_with_irrational_binding(self, tmp_path, args):
        # t_nu = q^nu and t = pi^2 are bound as floats; the coefficient bound
        # e_1 is then a float and must enter the symbolic pipeline as an
        # exact dyadic rational
        out = tmp_path / "r.json"
        assert main(["certify", *args, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "BOUNDED-PASS"
        bound = data["metadata"]["lambda_provenance"] or data["metadata"]["rho_provenance"]
        assert bound.endswith("(coefficient bound) [exact dyadic]")
        assert "/" in (data["lambda"] or data["rho"])
        if data["mode"] == "DERIVATIVE":
            assert data["metadata"]["route_equality_max_defect"] == "0"

    def test_symbolic_qbessel_moment_grid4_finishes(self, tmp_path):
        # every cell is a fraction over Q(q, t_nu); only their full
        # reduction keeps this run small
        out = tmp_path / "r.json"
        assert main(["certify", "--function", "qbessel", "--symbolic", "--q", "1/2",
                     "--nu", "1", "--mode", "moment", "--grid", "4",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "BOUNDED-PASS"

    @pytest.mark.parametrize("args", [
        ["--function", "sinc"],
        ["--function", "bessel", "--symbolic", "--nu", "1/2"],
        ["--function", "ramanujan-aq", "--symbolic", "--q", "1/2"],
    ], ids=["sinc", "bessel-symbolic", "ramanujan-symbolic"])
    def test_symbolic_first_root_rho_binds_symbols(self, tmp_path, args):
        # the first-root scan reads the series at the bindings, and its float
        # root enters the symbolic pipeline as an exact dyadic rational
        out = tmp_path / "r.json"
        assert main(["certify", *args, "--mode", "derivative", "--rho-policy", "first-root",
                     "--grid", "3", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "BOUNDED-PASS"
        assert data["metadata"]["route_equality_max_defect"] == "0"
        assert data["metadata"]["rho_provenance"].endswith("[exact dyadic]")
        assert "@" not in data["rho"]

    def test_exact_first_root_rho_is_rational(self, tmp_path):
        from posroot.catalog import FunctionKind, FunctionSpec
        from posroot.criterion import SAFETY_DOWN, _first_root_bound
        from posroot.scalars import _mpf_to_fraction

        out = tmp_path / "r.json"
        assert main(["certify", "--function", "bessel", "--nu", "0", "--mode", "derivative",
                     "--rho-policy", "first-root", "--grid", "3", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "BOUNDED-PASS"
        assert data["metadata"]["route_equality_max_defect"] == "0"
        assert data["metadata"]["rho_provenance"].endswith("[exact dyadic]")
        prec = data["precision_bits"]
        f = FunctionSpec(FunctionKind.BESSEL, params={"nu": Fraction(0)}).series(10)
        assert Fraction(data["rho"]) == _mpf_to_fraction(
            _first_root_bound(f, prec, SAFETY_DOWN).value)
        assert all("@" not in c["value"] for c in data["cells"])

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["certify", "--function", "qbessel", "--q", "1/2", "--nu", "0",
                "--grid", "6", "--precision", "192"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReportPath:
    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["default", "json"])
    def test_json_only_run_builds_no_csv(self, tmp_path, monkeypatch, fmt):
        from posroot.criterion import CertificateReport

        def refuse(self):
            raise AssertionError("to_csv called for a JSON-only report")

        monkeypatch.setattr(CertificateReport, "to_csv", refuse)
        out = tmp_path / "r.json"
        assert main(["certify", "--function", "bessel", "--nu", "0", "--mode", "derivative",
                     "--grid", "6", *fmt, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "BOUNDED-PASS"
        assert not (tmp_path / "r.csv").exists()

    def test_stdout_report_is_the_file_report(self, tmp_path, capsys):
        args = ["certify", "--function", "sinc", "--mode", "derivative", "--grid", "4"]
        out = tmp_path / "r.json"
        assert main(args + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_exact_report_memory_is_its_size(self, tmp_path):
        # The B=24 exact Bessel report is 1.8 MB.  Serializing it holds its
        # cell strings once; the JSON text is streamed, never held whole.
        import tracemalloc

        from posroot.catalog import FunctionKind, FunctionSpec
        from posroot.cli import emit_report
        from posroot.criterion import RhoPolicy, certify_derivative

        spec = FunctionSpec(FunctionKind.BESSEL, params={"nu": Fraction(0)}, mode="exact")
        report = certify_derivative(
            spec, 24, RhoPolicy(kind="zero-table", table=bessel_zeros(0, 1, spec.precision)))
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            emit_report(report.as_dict(), "json", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 1_000_000
        assert peak <= 1.25 * size, (peak, size)


class TestMomentsCommand:
    def test_riemann_b0(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["moments", "--function", "riemann-xi", "--orders", "2",
                     "--precision", "256", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        b0 = parse_bigfloat(data["moments"][0])
        assert abs(float(b0) - 0.4971207782) < 1e-9
        assert len(data["errors"]) == 3

    def test_rejects_closed_form_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--function", "sinc", "--orders", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'sinc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--nu", "0"], ["--q", "1/2"], ["--symbolic"],
                                       ["--format", "csv"]])
    def test_refuses_flags_it_cannot_read(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--function", "riemann-xi", "--orders", "2", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_besselk_at_large_a(self, tmp_path):
        # the spacing floor follows the kernel's width 1/sqrt(a)
        out = tmp_path / "m.json"
        assert main(["moments", "--function", "bessel-k", "--a", "1e9", "--orders", "2",
                     "--precision", "64", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metadata"]["nodes"] <= 3437
        c0, err0 = (parse_bigfloat(data[key][0]).value for key in ("moments", "errors"))
        with mpmath.workprec(128):
            assert abs(c0 - mpmath.besselk(0, 10 ** 9)) <= err0

    def test_no_refinement_is_an_error(self, tmp_path, capsys, monkeypatch):
        from posroot import catalog

        monkeypatch.setattr(catalog, "_H_FLOOR_SCALE", catalog._H0 / catalog._CELL)
        out = tmp_path / "m.json"
        code = main(["moments", "--function", "bessel-k", "--a", "1", "--orders", "2",
                     "--output", str(out)])
        assert code == 1
        assert "QuadratureNotConverged" in capsys.readouterr().err
        assert not out.exists()


class TestPowerSumsCommand:
    def test_symbolic_bessel(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["powersums", "--function", "bessel", "--symbolic",
                     "--count", "2", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["power_sums"]["1"] == "(1/4)/(nu+1)"
        assert data["domain"] == "ratfunc"

    def test_symbolic_qbessel_matches_exact_pipeline(self, tmp_path):
        # p_1..p_6 over Q(q, t_nu), read at q = 1/2 and t_nu = q^nu, are the
        # exact run's rationals
        out = tmp_path / "p.json"
        start = time.process_time()
        assert main(["powersums", "--function", "qbessel", "--symbolic", "--count", "6",
                     "--output", str(out)]) == 0
        assert time.process_time() - start < 2
        symbolic = json.loads(out.read_text())["power_sums"]
        q = Fraction(1, 2)
        for nu in (0, 1):
            assert main(["powersums", "--function", "qbessel", "--q", "1/2", "--nu", str(nu),
                         "--count", "6", "--output", str(out)]) == 0
            exact = json.loads(out.read_text())["power_sums"]
            assert {k: evaluate_printed(v, q=q, t_nu=q ** nu) for k, v in symbolic.items()} \
                == {k: parse_rational(v) for k, v in exact.items()}

    def test_refuses_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["powersums", "--function", "sinc", "--count", "2", "--format", "json"])
        assert exc.value.code == 2

    def test_ramanujan_numeric(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["powersums", "--function", "ramanujan-aq", "--q", "1/2",
                     "--count", "1", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["power_sums"]["1"] == "1"


class TestScanCommand:
    def test_scan_minus_four(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["scan-phi", "--discriminant", "-4", "--t-max", "4",
                     "--points", "301", "--precision", "96",
                     "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["scan"]["passed"] is True

    def test_non_fundamental_errors(self, capsys):
        code = main(["scan-phi", "--discriminant", "9"])
        assert code == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--points", "1", "--points 1 must be at least 2"),
        ("--points", "0", "--points 0 must be at least 2"),
        ("--t-max", "-1", "--t-max -1.0 must be positive and finite"),
        ("--t-max", "0", "--t-max 0.0 must be positive and finite"),
        ("--t-max", "inf", "--t-max inf must be positive and finite"),
        ("--t-max", "nan", "--t-max nan must be positive and finite"),
    ])
    def test_bad_grid_names_the_flag(self, monkeypatch, capsys, flag, value, message):
        from posroot import catalog

        def never(*args):
            raise AssertionError("a kernel value was computed")

        monkeypatch.setattr(catalog, "dirichlet_phi", never)
        assert main(["scan-phi", "--discriminant", "-4", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        grid = {"points": int(value)} if flag == "--points" else {"t_max": float(value)}
        with pytest.raises(ValueError):
            catalog.phi_nonneg_scan(catalog.kronecker_character(-4), catalog.GridConfig(**grid))


class TestZerosCommand:
    def test_compute_bessel(self, tmp_path):
        out = tmp_path / "z.json"
        code = main(["zeros", "--nu", "0", "--count", "2",
                     "--precision", "128", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(float(data["zeros"][0]) - 2.404825558) < 1e-8

    def test_validate_table(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("14.134725141\n21.022039638\n")
        out = tmp_path / "z.json"
        code = main(["zeros", "--table", str(table), "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["count"] == 2

    def test_bad_table_errors(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("21.0\n14.0\n")
        assert main(["zeros", "--table", str(table)]) == 1


class TestAdversarialCommand:
    def test_seeded_run(self, tmp_path):
        out = tmp_path / "adv.json"
        code = main(["adversarial", "--seed", "3", "--draws", "5",
                     "--grid", "20", "--base-count", "24", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["detected"] == 5
        assert len(data["runs"]) == 5

    @pytest.mark.parametrize("flag", ["--grid", "--draws"])
    def test_negative_count_names_the_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "adv.json"
        assert main(["adversarial", "--draws", "2", flag, "-1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} -1 must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_base_count_below_one_names_the_flag(self, tmp_path, capsys, count):
        out = tmp_path / "adv.json"
        assert main(["adversarial", "--draws", "2", "--base-count", count,
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --base-count {count} must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("base_count", [0, -3])
    def test_base_count_below_one_is_refused_by_the_library(self, base_count):
        from posroot.criterion import draw_adversarial_spec

        with pytest.raises(ValueError, match=f"base_count {base_count} must be positive"):
            draw_adversarial_spec(random.Random(0), base_count=base_count)

    def test_negative_grid_is_refused_by_the_library(self):
        from posroot.criterion import adversarial_run, draw_adversarial_spec

        spec = draw_adversarial_spec(random.Random(0), base_count=8)
        with pytest.raises(ValueError, match="grid bound must be nonnegative"):
            adversarial_run(spec, -1)

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["adversarial", "--seed", "9", "--draws", "3", "--grid", "16",
                "--base-count", "16"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    "certify --function bessel-k --a 0 --grid 2",
    "certify --function qbessel --q 2 --nu 0 --grid 2",
    "certify --function bessel --nu -2 --grid 2",
    "certify --function qbessel --q 1/2 --nu 1/2 --grid 2",
    "moments --function bessel-k --a 1 --orders -1",
    "zeros --nu 0 --count 0",
    "powersums --function riemann-xi --count 0",
    "certify --function bessel --symbolic --grid 4",
])
def test_bad_parameter_is_one_error_line(argv, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # a range error names the flag the user typed
    flag = {"--orders": "--orders -1 must be nonnegative", "--count": "--count 0 must be positive"}
    for name, message in flag.items():
        if name in argv.split():
            assert lines[0] == f"error: {message}"


@pytest.mark.parametrize("argv, name", [
    ("certify --function bessel --grid 2", "nu"),
    ("certify --function qbessel --q 1/2 --grid 2", "nu"),
    ("powersums --function qbessel --nu 0 --count 2", "q"),
    ("powersums --function ramanujan-aq --count 2", "q"),
    ("moments --function bessel-k --orders 2", "a"),
    ("moments --function dirichlet-xi --orders 2", "chi"),
])
def test_missing_parameter_is_one_named_error_line(argv, name, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"needs the parameter {name}\n")
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, name", [
    ("powersums --function sinc --nu 3 --q 1/2 --a 5 --count 1", "a"),
    ("certify --function riemann-xi --nu 3 --grid 2", "nu"),
    ("moments --function dirichlet-xi --discriminant -4 --a 1 --orders 2", "a"),
])
def test_unread_parameter_is_one_named_error_line(argv, name, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"takes no parameter {name}\n")
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


class TestEnvPrecision:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSROOT_PRECISION_BITS", "128")
        out = tmp_path / "r.json"
        code = main(["certify", "--function", "sinc", "--grid", "3",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["precision_bits"] == 128

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("POSROOT_PRECISION_BITS", "lots")
        code = main(["certify", "--function", "sinc", "--grid", "3"])
        assert code == 1

    def test_sub_minimum_precision_rejected(self, capsys):
        code = main(["certify", "--function", "sinc", "--grid", "3",
                     "--precision", "32"])
        assert code == 1
        assert "64-bit minimum" in capsys.readouterr().err
