"""Every function the benchmark's layer tracer wraps still exists, and is called.

``perfbench/tracing.py`` replaces functions by module attribute name, so
renaming or dropping an import that it names would break traced benchmark
runs without failing any other test; and a pipeline that stops calling a
function through the wrapped attribute makes that layer's metric read 0.
"""

import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

from posroot.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Wrapped attributes that no benchmark job calls, and why.
NEVER_CALLED = {
    ("posroot.cli", "besselk_moments"): "the CLI builds moments through FunctionSpec",
    ("posroot.cli", "dirichlet_moments"): "the CLI builds moments through FunctionSpec",
    ("posroot.cli", "riemann_moments"): "the CLI builds moments through FunctionSpec",
    ("posroot.cli", "load_zero_table"): "no job passes --zeros",
    ("posroot.criterion", "CertificateReport.to_csv"): "the jobs write JSON only",
    ("posroot.criterion", "derivative_form_coefficient"): "the cells are built all at once",
    ("posroot.criterion", "even_sqrt_reduce"): "the shifted-even transform is real-only",
    ("posroot.criterion", "taylor_shift"): "the shifted-even transform is real-only",
    ("posroot.hausdorff", "log_derivative_series"): "the cells get f'/f passed in",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = []
    for module, attr, _ in _load("tracing").WRAPS:
        try:
            target = reduce(getattr, attr.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(target), f"{module}.{attr}"
    assert not missing, missing


def test_every_wrap_but_the_known_few_is_called(monkeypatch, tmp_path):
    tracing, jobs = _load("tracing"), _load("jobs")
    called = set()
    for module, attr, _ in tracing.WRAPS:
        owner = importlib.import_module(module)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)

        def counting(*args, _key=(module, attr), _fn=getattr(owner, name), **kwargs):
            called.add(_key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    for workload in ("exact", "symbolic", "float-cells", "xi-quadrature"):
        for job in jobs.build_jobs(workload, 101, smoke=True):
            out = tmp_path / "report.json"
            assert main([*job.argv, "--output", str(out)]) == 0, job.name
    never = {(module, attr) for module, attr, _ in tracing.WRAPS} - called
    assert never == set(NEVER_CALLED)
