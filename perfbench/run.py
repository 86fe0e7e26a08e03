"""Benchmark of posroot's command-line pipelines: four workloads, end to end and per layer.

Run from the repository root (no install needed; the package is imported
from ``src/``)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of ``posroot`` command lines (see ``jobs.py``)
run in-process through ``posroot.cli.main``, one job at a time in one
process (a closed loop with one client), so each job pays what a user pays:
argument parsing, spec building, zero tables, the pipeline and writing the
JSON report.  Passes over the list repeat until ``--seconds`` is used up (at
least two).  ``gc.collect()`` runs before every job.  Every job's output is
checked, and its report must be byte-identical in every pass.

Times are scaled to a reference machine speed by ``speed.py``: a timer
samples a fixed probe workload during every job and the job's wall time is
scaled by how fast the probe ran.  On a shared machine this is what keeps
run-to-run spread within a few percent; the unscaled wall times are printed
in the summary.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s``: median over five fresh interpreters of importing
  ``posroot.cli`` and building the workload's inputs;
* ``pass_s``: median time of one pass over the job list;
* ``job_s.geomean``: geometric mean over jobs of each job's median time,
  so a slower small job shows even when a big job's gain hides it in
  ``pass_s``;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``failed_frac`` (failed over attempted job executions) is printed with them
but is not a metric, because it is 0 on a correct run; the result line
carries it as ``failed`` and ``attempted``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` (median self time per pass, counts per
pass), the tracing overhead (traced minus untraced ``pass_s``) and the share
of job wall time the spans cover.

``--smoke`` runs tiny job sizes once, for the benchmark's own test.  The
last line of standard output is the JSON result; the lines before it are a
readable summary: metrics with units and sample counts, per-job medians
(not metrics) and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 2
WORKLOADS = ("exact", "symbolic", "float-cells", "xi-quadrature")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Print the scaled time this fresh interpreter takes to import the CLI and build inputs."""
    from speed import Speedometer

    with Speedometer() as speed:
        start = perf_counter()
        import posroot.cli  # noqa: F401
        from jobs import build_inputs

        build_inputs(args.workload, args.seed, args.smoke)
        wall = perf_counter() - start
    print(repr(speed.scaled(wall)))
    return 0


def measure_setup(args, probes: int) -> list:
    """Set-up times of ``probes`` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(jobs, workdir: Path, tracer=None) -> list:
    """One pass over the job list.

    Returns ``[(scaled seconds, wall seconds, exit code or error text, report bytes)]``.
    """
    from posroot.cli import main as cli_main
    from speed import Speedometer

    out = []
    for i, job in enumerate(jobs):
        path = workdir / f"{i}.json"
        if path.exists():
            path.unlink()
        argv = list(job.argv) + ["--output", str(path)]
        gc.collect()
        with Speedometer() as speed:
            start = perf_counter()
            try:
                if tracer is None:
                    rc = cli_main(argv)
                else:
                    with tracer.job(job.name):
                        rc = cli_main(argv)
            except Exception as exc:  # a crashing job is a failed execution
                rc = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        out.append((speed.scaled(wall), wall, rc, path.read_bytes() if path.exists() else b""))
    return out


def run_passes(jobs, workdir: Path, seconds: float, trace: bool, smoke: bool):
    """Passes until ``seconds`` is spent; with ``trace`` every other pass is traced."""
    from tracing import Tracer

    passes, tracers = [], []
    min_passes = 2 if trace else (1 if smoke else MIN_PASSES)
    start = perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer is None:
            results = run_pass(jobs, workdir)
        else:
            with tracer:
                results = run_pass(jobs, workdir, tracer)
        passes.append((tracer is not None, results))
        tracers.append(tracer)
        if len(passes) < min_passes:
            continue
        typical = statistics.median(pass_seconds(res, 1) for _, res in passes)
        if smoke or perf_counter() - start + typical > seconds:
            break
    return passes, [t for t in tracers if t is not None]


def count_failures(jobs, passes, inputs):
    """Failed executions per job: raised, nonzero exit, failed check, or bytes that change."""
    from jobs import run_check

    reasons = {}
    failed = 0
    for i, job in enumerate(jobs):
        first = passes[0][1][i][3]
        verdict = run_check(job, first, inputs) if first else "no report written"
        for _, results in passes:
            _, _, rc, data = results[i]
            why = None
            if rc != 0:
                why = f"exit {rc}"
            elif data != first:
                why = "report differs from the first pass"
            elif verdict:
                why = verdict
            if why:
                failed += 1
                reasons.setdefault(job.name, why)
    return failed, reasons


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(args, n_passes: int) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "passes": n_passes,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_seconds(results, column=0) -> float:
    """Scaled (column 0) or wall (column 1) seconds of one pass."""
    return sum(r[column] for r in results)


def end_to_end(jobs, passes, setup_times) -> dict:
    times = [pass_seconds(res) for _, res in passes]
    job_medians = [statistics.median(res[i][0] for _, res in passes)
                   for i in range(len(jobs))]
    geomean = math.exp(statistics.fmean(math.log(t) for t in job_medians))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (metric(statistics.median(setup_times), "s"), len(setup_times)),
        "pass_s": (metric(statistics.median(times), "s"), len(times)),
        "job_s.geomean": (metric(geomean, "s"), len(jobs) * len(times)),
        "peak_rss_mb": (metric(rss_mb, "MB"), 1),
    }


def per_layer(jobs, passes, tracers) -> tuple[dict, dict]:
    """Layer metrics (median scaled self time, counts per pass) and per-job details."""
    from tracing import LAYERS

    traced_passes = [res for traced, res in passes if traced]
    plain = [pass_seconds(res) for traced, res in passes if not traced]
    layer_times, detail = [], {}
    for tracer, results in zip(tracers, traced_passes):
        totals = dict.fromkeys(LAYERS, 0.0)
        for job, (scaled, wall, _, _) in zip(jobs, results):
            first, end, _, covered = tracer.jobs[job.name]
            layers = {k: v * scaled / wall for k, v in tracer.self_times(first, end).items()}
            for layer, t in layers.items():
                totals[layer] += t
            detail[job.name] = {
                "scaled_s": round(scaled, 4), "wall_s": round(wall, 4),
                "coverage": round(covered / wall, 4),
                "layers_s": {k: round(v, 4) for k, v in layers.items() if v},
                "counts": dict(tracer.job_counts[job.name])}
        layer_times.append(totals)
    out = {layer + "_s": (metric(statistics.median(t[layer] for t in layer_times), "s"),
                          len(layer_times))
           for layer in LAYERS}
    counts = {}
    for job_counts in tracers[-1].job_counts.values():
        for key, n in job_counts.items():
            counts[key] = counts.get(key, 0) + n
    for key in ("catalog.quad_nodes", "catalog.quad_levels", "scalars.ratfunc_terms",
                "hausdorff.logderiv_calls", "hausdorff.cells",
                "hausdorff.indeterminate_cells", "criterion.retries"):
        out[key] = (metric(counts.get(key, 0), "count"), 1)
    out["cli.report_bytes"] = (metric(sum(len(r[3]) for r in passes[-1][1]), "count"), 1)
    coverage = [sum(j[3] for j in t.jobs.values()) / sum(j[2] for j in t.jobs.values())
                for t in tracers]
    out["trace.span_coverage"] = (metric(statistics.median(coverage), "ratio"), len(coverage))
    traced = [pass_seconds(res) for res in traced_passes]
    out["trace.overhead_s"] = (metric(statistics.median(traced) - statistics.median(plain), "s"),
                               len(traced) + len(plain))
    return out, detail


def print_summary(args, jobs, passes, metrics, failed, attempted, reasons, env, detail):
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    for name, (m, samples) in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} ({samples} samples)")
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"({failed} of {attempted} job executions)")
    walls = [pass_seconds(res, 1) for _, res in passes]
    print(f"  {'pass wall time, unscaled':32s} {statistics.median(walls):>14.6g} {'s':6s} "
          f"(median of {len(walls)}; not a metric)")
    for name, why in reasons.items():
        print(f"  FAILED {name}: {why}")
    print("  per-job medians, scaled and wall seconds (not metrics):")
    for i, job in enumerate(jobs):
        scaled = statistics.median(res[i][0] for _, res in passes)
        wall = statistics.median(res[i][1] for _, res in passes)
        print(f"    {job.name:28s} {scaled:8.4f} {wall:8.4f}  {' '.join(job.argv)}")
    if detail:
        print("  per-job trace (last traced pass; layer times scaled):")
        for name, d in detail.items():
            print(f"    {name}: {json.dumps(d, sort_keys=True)}")
    print("  environment: " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    if not (SRC / "posroot" / "cli.py").is_file():
        print(f"error: posroot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    setup_times = [] if args.trace else measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    import posroot

    if Path(posroot.__file__).resolve().parent != SRC / "posroot":
        print(f"error: imported posroot from {posroot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from jobs import build_inputs

    inputs = build_inputs(args.workload, args.seed, args.smoke)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        passes, tracers = run_passes(inputs.jobs, Path(tmp), args.seconds, bool(args.trace),
                                     args.smoke)
    if args.trace:
        metrics, detail = per_layer(inputs.jobs, passes, tracers)
    else:
        metrics, detail = end_to_end(inputs.jobs, passes, setup_times), {}
    failed, reasons = count_failures(inputs.jobs, passes, inputs)
    attempted = len(passes) * len(inputs.jobs)
    env = environment(args, len(passes))
    print_summary(args, inputs.jobs, passes, metrics, failed, attempted, reasons, env, detail)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: m for name, (m, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
