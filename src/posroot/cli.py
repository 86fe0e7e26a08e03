"""Command-line front end.

One verb per capability: ``certify`` (bounded positivity certificates in
moment, derivative, or shifted-even mode), ``moments`` (arbitrary-precision
even moments of the xi / Bessel-K kernels), ``powersums`` (power sums of a
catalog function, symbolic where possible), ``scan-phi`` (grid
nonnegativity scan of a character kernel), ``zeros`` (compute Bessel zeros
or validate a zero table), and ``adversarial`` (seeded planted-defect
detection experiments).

Reports serialize bit-stably: sorted keys, canonical scalar strings (``p/q``
for rationals, hex-float plus precision tag for floats), no wall-clock
fields unless a timestamp is passed explicitly.  Two runs with the same
config and seed produce byte-identical files.

Exit codes: 0 certificate PASS, 2 FAIL, 3 INDETERMINATE, 1 usage or
pipeline error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# besselk_moments, dirichlet_moments and riemann_moments are not called here
# but stay importable from this module: perfbench/tracing.py looks them up by
# this path.
from .catalog import (
    MOMENT_KINDS,
    FunctionKind,
    FunctionSpec,
    GridConfig,
    besselk_moments,
    dirichlet_moments,
    phi_nonneg_scan,
    riemann_moments,
)
from .characters import kronecker_character
from .criterion import (
    CertificateReport,
    BoundPolicy,
    adversarial_run,
    certify_derivative,
    certify_moment,
    certify_shifted_even,
    draw_adversarial_spec,
    serialize_scalar,
)
from .scalars import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, ScalarError
from .symfun import power_sums_from_elementary
from .zeros import bessel_zeros, load_zero_table, packaged_riemann_table

__all__ = ["main", "run", "ConfigError", "emit_report"]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INDETERMINATE = 3


class ConfigError(ScalarError):
    """Invalid command-line configuration."""


def _precision(args) -> int:
    """``--precision``, else ``POSROOT_PRECISION_BITS``, else the default; never below
    ``MIN_PRECISION_BITS``."""
    precision = args.precision
    if not precision:
        env = os.environ.get("POSROOT_PRECISION_BITS")
        try:
            precision = int(env) if env else DEFAULT_PRECISION_BITS
        except ValueError as exc:
            raise ConfigError(f"POSROOT_PRECISION_BITS={env!r} is not an integer") from exc
    if precision < MIN_PRECISION_BITS:
        raise ConfigError(f"precision {precision} below the {MIN_PRECISION_BITS}-bit minimum")
    return precision


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posroot",
        description="power sums of zeros and bounded positivity certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", default=None, help="report path (default stdout)")
    report.add_argument("--timestamp", default=None,
                        help="optional timestamp echoed into the report "
                             "(omitted by default so reports stay byte-stable)")

    def verb(name, help):
        return sub.add_parser(name, help=help, parents=[report])

    def spec_flags(p, kinds=tuple(FunctionKind)):
        """The flags ``_build_spec`` reads that can matter for one of ``kinds``."""
        p.add_argument("--function", required=True, choices=[k.value for k in kinds])
        if not set(kinds) <= MOMENT_KINDS:
            p.add_argument("--nu", default=None, help="Bessel order (rational)")
            p.add_argument("--q", default=None, help="base q in (0,1) (rational)")
            p.add_argument("--symbolic", action="store_true",
                           help="keep parameters symbolic (rational-function mode)")
        p.add_argument("--a", default=None, help="Bessel-K argument a > 0")
        p.add_argument("--discriminant", type=int, default=None,
                       help="fundamental discriminant for dirichlet-xi")
        p.add_argument("--precision", type=int, default=None, help="bits")

    pc = verb("certify", help="run a bounded positivity certificate")
    spec_flags(pc)
    pc.add_argument("--format", default="json", choices=["json", "csv", "both"])
    pc.add_argument("--mode", default="moment",
                    choices=["moment", "derivative", "shifted-even"])
    pc.add_argument("--grid", type=int, default=16, help="triangle bound B (default 16)")
    pc.add_argument("--shift", default="0", help="shift c for shifted-even mode")
    pc.add_argument("--lambda-policy", dest="lambda_policy", default="auto",
                    choices=["auto", "explicit", "zero-table", "coefficient-bound"])
    pc.add_argument("--lambda", dest="lambda_value", default=None,
                    help="explicit scaling bound (rational)")
    pc.add_argument("--rho-policy", dest="rho_policy", default="auto",
                    choices=["auto", "explicit", "zero-table",
                             "coefficient-bound", "first-root"])
    pc.add_argument("--rho", dest="rho_value", default=None,
                    help="explicit root bound (rational)")
    pc.add_argument("--zeros", default=None, help="zero-table file")

    pm = verb("moments", help="compute even kernel moments")
    spec_flags(pm, [k for k in FunctionKind if k in MOMENT_KINDS])
    pm.add_argument("--orders", type=int, required=True, help="highest n of b_{2n}")

    pp = verb("powersums", help="power sums of a catalog function")
    spec_flags(pp)
    pp.add_argument("--count", type=int, required=True)

    ps = verb("scan-phi", help="kernel nonnegativity grid scan")
    ps.add_argument("--discriminant", type=int, required=True)
    ps.add_argument("--t-max", type=float, default=6.0)
    ps.add_argument("--points", type=int, default=10001)
    ps.add_argument("--precision", type=int, default=None)

    pz = verb("zeros", help="compute Bessel zeros or validate a table")
    pz.add_argument("--nu", default=None)
    pz.add_argument("--count", type=int, default=None)
    pz.add_argument("--table", default=None, help="validate this file instead")
    pz.add_argument("--limit", type=int, default=None)
    pz.add_argument("--precision", type=int, default=None)

    pa = verb("adversarial", help="seeded planted-defect experiments")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--draws", type=int, default=100)
    pa.add_argument("--grid", type=int, default=24)
    pa.add_argument("--base-count", type=int, default=48)
    pa.add_argument("--complex", action="store_true",
                    help="draw conjugate-pair defects instead of negative reals")

    return ap


def _parse_fraction(text, name):
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"--{name} {text!r} is not a rational number") from exc


def _build_spec(args) -> FunctionSpec:
    """The catalog entry the flags name; the catalog checks its parameters and
    picks its mode unless ``--symbolic`` asks for ratfunc."""
    precision = _precision(args)
    params = {name: _parse_fraction(text, name) for name in ("nu", "q", "a")
              if (text := getattr(args, name, None)) is not None}
    if args.discriminant is not None:
        params["chi"] = kronecker_character(args.discriminant)
    return FunctionSpec(FunctionKind(args.function), params=params,
                        mode="ratfunc" if getattr(args, "symbolic", False) else None,
                        precision=precision)


def _stamp(args) -> dict:
    """The report metadata every verb records: its configuration and timestamp."""
    # the output path is where the report lands, not part of the computation
    echo = {}
    for k, v in sorted(vars(args).items()):
        if k in ("command", "output"):
            continue
        echo[k] = v if isinstance(v, (int, float, str, bool)) or v is None else str(v)
    return {"config_echo": echo, "timestamp": args.timestamp}


def _bound_policy(args, spec, form) -> BoundPolicy:
    """The policy of ``--lambda-policy`` (``form`` "lambda") or ``--rho-policy`` ("rho")."""
    pol, value = getattr(args, form + "_policy"), getattr(args, form + "_value")
    auto = pol == "auto"
    if pol == "explicit" or value is not None:
        value = _parse_fraction(value, form)
        if value is None:
            raise ConfigError(f"--{form}-policy explicit needs --{form}")
        return BoundPolicy(kind="explicit", value=value)
    if pol == "zero-table" or (auto and args.mode != "shifted-even" and spec.kind in
                               (FunctionKind.BESSEL, FunctionKind.RIEMANN_XI)):
        return BoundPolicy(kind="zero-table", table=_zero_table_for(args, spec))
    if pol == "first-root" or (auto and args.mode == "shifted-even"):
        return BoundPolicy(kind="first-root")
    if auto and spec.kind is FunctionKind.SINC:
        return BoundPolicy(kind="explicit",
                           value=Fraction(1) if form == "lambda" else Fraction(1023, 1024))
    return BoundPolicy()


def _zero_table_for(args, spec):
    if getattr(args, "zeros", None):
        return load_zero_table(args.zeros, precision=spec.precision)
    if spec.kind is FunctionKind.BESSEL:
        if "nu" not in spec.params:
            raise ConfigError("a bessel zero table needs a numeric --nu (or pass --zeros)")
        return bessel_zeros(spec.params["nu"], 1, spec.precision)
    if spec.kind is FunctionKind.RIEMANN_XI:
        return packaged_riemann_table(limit=1000, precision=spec.precision)
    raise ConfigError(f"no zero-table source for {spec.kind.value}; pass --zeros")


def _write_json(payload: dict, stream) -> None:
    """Stream the canonical JSON text (sorted keys, indent 2, final newline)."""
    json.dump(payload, stream, sort_keys=True, indent=2)
    stream.write("\n")


def emit_report(payload: dict, fmt: str, path, csv_text: str = "") -> list[str]:
    """Write (or print) the report, its ``csv_text`` too for ``fmt`` csv or both;
    returns the list of files written.

    The JSON text is streamed to its destination, never held whole.
    """
    written = []
    if path is None:
        if fmt in ("json", "both"):
            _write_json(payload, sys.stdout)
        if fmt in ("csv", "both"):
            sys.stdout.write(csv_text)
        return written
    if fmt in ("json", "both"):
        with open(path, "w", encoding="utf-8") as f:
            _write_json(payload, f)
        written.append(path)
    if fmt in ("csv", "both"):
        csv_path = path + ".csv" if not path.endswith(".json") else path[:-5] + ".csv"
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(csv_text)
        written.append(csv_path)
    return written


def _emit(args, metadata=None, **fields) -> None:
    """Write the schema-1 JSON report of ``fields``, ``metadata`` plus ``_stamp``."""
    emit_report({"schema": 1, **fields, "metadata": {**(metadata or {}), **_stamp(args)}},
                "json", args.output)


def _report_exit(report: CertificateReport) -> int:
    return {"BOUNDED-PASS": EXIT_PASS, "FAIL": EXIT_FAIL,
            "INDETERMINATE": EXIT_INDETERMINATE}[report.verdict]


def _cmd_certify(args) -> int:
    if args.grid < 0:
        raise ConfigError(f"--grid {args.grid} must be nonnegative")
    spec = _build_spec(args)
    if args.mode == "moment":
        report = certify_moment(spec, args.grid, _bound_policy(args, spec, "lambda"))
    elif args.mode == "derivative":
        report = certify_derivative(spec, args.grid, _bound_policy(args, spec, "rho"))
    else:
        shift = _parse_fraction(args.shift, "shift")
        report = certify_shifted_even(spec, shift, args.grid, _bound_policy(args, spec, "rho"))
    report.metadata.update(_stamp(args))
    csv_text = report.to_csv() if args.format in ("csv", "both") else ""
    emit_report(report.as_dict(), args.format, args.output, csv_text)
    return _report_exit(report)


def _cmd_moments(args) -> int:
    if args.orders < 0:
        raise ConfigError(f"--orders {args.orders} must be nonnegative")
    spec = _build_spec(args)
    mr = spec.moments(args.orders)
    _emit(args, mr.metadata, function=spec.label,
          moments=[serialize_scalar(v) for v in mr.values],
          moments_decimal=[str(v) for v in mr.values],
          errors=[serialize_scalar(e) for e in mr.errors])
    return EXIT_PASS


def _cmd_powersums(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count {args.count} must be positive")
    spec = _build_spec(args)
    e = spec.elementary(args.count)
    p = power_sums_from_elementary(e, args.count)
    _emit(args, function=spec.label, domain=p.domain,
          power_sums={str(k): serialize_scalar(p[k]) for k in range(1, args.count + 1)})
    return EXIT_PASS


def _cmd_scan_phi(args) -> int:
    if args.points < 2:
        raise ConfigError(f"--points {args.points} must be at least 2")
    if not 0 < args.t_max < float("inf"):
        raise ConfigError(f"--t-max {args.t_max} must be positive and finite")
    chi = kronecker_character(args.discriminant)
    precision = _precision(args)
    report = phi_nonneg_scan(chi, GridConfig(t_max=args.t_max, points=args.points),
                             precision=precision)
    _emit(args, scan=report.as_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_zeros(args) -> int:
    precision = _precision(args)
    if args.table:
        table = load_zero_table(args.table, limit=args.limit, precision=precision)
        _emit(args, source=table.source, count=len(table), first=str(table.first),
              last=str(table[len(table) - 1]))
        return EXIT_PASS
    if args.nu is None or args.count is None:
        raise ConfigError("zeros needs either --table or both --nu and --count")
    if args.count < 1:
        raise ConfigError(f"--count {args.count} must be positive")
    table = bessel_zeros(_parse_fraction(args.nu, "nu"), args.count, precision)
    _emit(args, source=table.source, function="bessel", nu=str(args.nu),
          zeros=[str(z) for z in table.ordinates])
    return EXIT_PASS


def _cmd_adversarial(args) -> int:
    import random

    for flag, value in (("--draws", args.draws), ("--grid", args.grid)):
        if value < 0:
            raise ConfigError(f"{flag} {value} must be nonnegative")
    if args.base_count < 1:
        raise ConfigError(f"--base-count {args.base_count} must be positive")
    rng = random.Random(args.seed)
    runs = []
    detected = 0
    for i in range(args.draws):
        spec = draw_adversarial_spec(rng, base_count=args.base_count,
                                     complex_defect=args.complex)
        report, depth = adversarial_run(spec, args.grid)
        runs.append({
            "draw": i,
            "label": spec.label,
            "verdict": report.verdict,
            "detection_depth": depth,
        })
        if depth is not None:
            detected += 1
    _emit(args, seed=args.seed, draws=args.draws, grid_bound=args.grid,
          detected=detected, runs=runs)
    return EXIT_PASS


_COMMANDS = {
    "certify": _cmd_certify,
    "moments": _cmd_moments,
    "powersums": _cmd_powersums,
    "scan-phi": _cmd_scan_phi,
    "zeros": _cmd_zeros,
    "adversarial": _cmd_adversarial,
}


def run(args) -> int:
    try:
        if args.command not in _COMMANDS:
            raise ConfigError(f"unknown command {args.command!r}")
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ScalarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
