"""The names that the benchmark reads from normcount exist.

``perfbench/tracing.py`` wraps functions by (module, name) and the `point`
workload reads ``NormalFoot.degenerate``; a rename would otherwise break
only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import normcount as nc


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    targets = _tracing().TARGETS
    assert targets
    for mod_name, fn_name, *_ in targets:
        module = importlib.import_module(f"normcount.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"normcount.{mod_name}.{fn_name}"


def test_normal_foot_has_degenerate():
    assert isinstance(nc.NormalFoot.degenerate, property)
    foot = nc.normal_feet2(nc.disk(1.0), (0.3, 0.1))[0]
    assert foot.degenerate is False
