"""Layer spans recorded from outside the program.

The tracer replaces public functions where their callers look them up (a
module attribute, or a method on a class) with a wrapper that records a
span: layer, parent span and duration.  Nothing in ``src/`` is
edited, and the originals are put back when tracing stops, so untraced
passes run the unmodified program.  Per-cell scalar arithmetic is never
wrapped.

A layer's time is the self time of its spans: a span's duration minus the
durations of its direct children.  Spans are single-threaded and nested, so
the self times of one job add up to the time its top-level spans cover.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer).  "Class.method" attributes wrap a method.
WRAPS = [
    ("posroot.catalog", "sinc_coeffs", "catalog.coeff"),
    ("posroot.catalog", "bessel_coeffs", "catalog.coeff"),
    ("posroot.catalog", "qbessel_coeffs", "catalog.coeff"),
    ("posroot.catalog", "ramanujan_aq_coeffs", "catalog.coeff"),
    ("posroot.catalog", "airy_coeffs", "catalog.coeff"),
    ("posroot.catalog", "elementary_from_moments", "catalog.coeff"),
    ("posroot.criterion", "sinc_even_series", "catalog.coeff"),
    ("posroot.catalog", "riemann_moments", "catalog.quad"),
    ("posroot.catalog", "dirichlet_moments", "catalog.quad"),
    ("posroot.catalog", "besselk_moments", "catalog.quad"),
    ("posroot.cli", "riemann_moments", "catalog.quad"),
    ("posroot.cli", "dirichlet_moments", "catalog.quad"),
    ("posroot.cli", "besselk_moments", "catalog.quad"),
    ("posroot.cli", "kronecker_character", "catalog.quad"),
    ("posroot.criterion", "power_sums_from_elementary", "symfun.newton"),
    ("posroot.cli", "power_sums_from_elementary", "symfun.newton"),
    ("posroot.criterion", "power_sums_from_log_derivative", "series.logderiv"),
    ("posroot.series", "log_derivative_series", "series.logderiv"),
    ("posroot.hausdorff", "log_derivative_series", "series.logderiv"),
    ("posroot.criterion", "taylor_shift", "series.shift"),
    ("posroot.criterion", "even_sqrt_reduce", "series.shift"),
    ("posroot.criterion", "derivative_form_coefficient", "hausdorff.deriv_cells"),
    ("posroot.criterion", "derivative_cells_from_power_sums", "hausdorff.deriv_cells"),
    ("posroot.criterion", "moment_criterion", "hausdorff.table"),
    ("posroot.hausdorff", "difference_table", "hausdorff.table"),
    ("posroot.hausdorff", "decide_table_verdicts", "hausdorff.verdict"),
    ("posroot.cli", "certify_moment", "criterion.self"),
    ("posroot.cli", "certify_derivative", "criterion.self"),
    ("posroot.cli", "certify_shifted_even", "criterion.self"),
    ("posroot.cli", "adversarial_run", "criterion.self"),
    ("posroot.cli", "draw_adversarial_spec", "criterion.self"),
    ("posroot.cli", "bessel_zeros", "zeros.bessel"),
    ("posroot.cli", "packaged_riemann_table", "zeros.table_load"),
    ("posroot.cli", "load_zero_table", "zeros.table_load"),
    ("posroot.cli", "emit_report", "cli.serialize"),
    ("posroot.cli", "serialize_scalar", "cli.serialize"),
    ("posroot.criterion", "CertificateReport.as_dict", "cli.serialize"),
    ("posroot.criterion", "CertificateReport.to_csv", "cli.serialize"),
]

LAYERS = sorted({layer for _, _, layer in WRAPS})


QUAD_PRODUCERS = {"riemann_moments", "dirichlet_moments", "besselk_moments"}
CERTIFIERS = {"certify_moment", "certify_derivative", "certify_shifted_even", "adversarial_run"}


class Tracer:
    """Span collector for traced passes; wrap jobs in ``job(name)``.

    While active, every wrapped call appends ``[layer, parent, duration]`` to
    ``spans`` and adds its counts to ``job_counts[name]``.  ``jobs`` maps each
    job name to ``(first span, end span, wall seconds, covered seconds)``.
    """

    def __init__(self):
        self._saved = []
        self._stack = []
        self._job = None
        self.spans = []
        self.jobs = {}
        self.job_counts = defaultdict(Counter)

    def __enter__(self):
        for module_name, attr, layer in WRAPS:
            owner = importlib.import_module(module_name)
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(original, name, layer))
            self._saved.append((owner, name, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, self._stack[-1] if self._stack else None, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter() - start
                self._stack.pop()
            self._count(name, result)
            return result
        return traced

    def _count(self, name, result):
        counts = self.job_counts[self._job]
        if name == "log_derivative_series":
            counts["hausdorff.logderiv_calls"] += 1
        elif name in QUAD_PRODUCERS:
            counts["catalog.quad_nodes"] += result.metadata["nodes"]
            counts["catalog.quad_levels"] += result.metadata["levels_used"]
        elif name == "power_sums_from_elementary":
            top = result[len(result)]
            if hasattr(top, "den"):  # a RationalFunction: keep the job's largest p_K
                terms = len(top.num.terms) + len(top.den.terms)
                counts["scalars.ratfunc_terms"] = max(counts["scalars.ratfunc_terms"], terms)
        elif name in CERTIFIERS:
            report = result[0] if isinstance(result, tuple) else result
            verdicts = report.counts()
            counts["hausdorff.cells"] += sum(verdicts.values())
            counts["hausdorff.indeterminate_cells"] += verdicts["INDETERMINATE"]
            counts["criterion.retries"] += "retried_at_bits" in report.metadata

    @contextmanager
    def job(self, name):
        """Root span of one job; records its wall time and the time its spans cover."""
        root = len(self.spans)
        self.spans.append(["job", None, 0.0])
        self._stack.append(root)
        self._job = name
        start = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - start
            self._stack.pop()
            self._job = None
            self.spans[root][2] = wall
            covered = sum(s[2] for s in self.spans[root + 1:] if s[1] == root)
            self.jobs[name] = (root, len(self.spans), wall, covered)

    def self_times(self, first=0, end=None) -> dict:
        """Self time per layer over ``spans[first:end]``; job roots excluded."""
        spans = self.spans[first:end]
        child = [0.0] * len(spans)
        for _, parent, dur in spans:
            if parent is not None and parent >= first:
                child[parent - first] += dur
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, _, dur) in enumerate(spans):
            if layer != "job":
                out[layer] += dur - child[i]
        return out
