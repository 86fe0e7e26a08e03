"""Every function the benchmark's layer tracer wraps still exists.

``perfbench/tracing.py`` replaces functions by module attribute name, so
renaming or dropping an import that it names would break traced benchmark
runs without failing any other test.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = []
    for module, attr, _ in _load_tracing().WRAPS:
        try:
            target = reduce(getattr, attr.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(target), f"{module}.{attr}"
    assert not missing, missing
