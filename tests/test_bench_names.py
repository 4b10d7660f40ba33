"""The names that the benchmark reads from normcount exist, and its
workloads' answers pass their checks.

``perfbench/tracing.py`` wraps functions by (module, name) and the `point`
workload reads ``NormalFoot.degenerate``; a rename would otherwise break
only the traced benchmark run.  A wrong answer would otherwise show only
as a failed benchmark job, and a lost exact average only as a slower one.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import normcount as nc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    targets = _load("tracing").TARGETS
    assert targets
    for mod_name, fn_name, *_ in targets:
        module = importlib.import_module(f"normcount.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"normcount.{mod_name}.{fn_name}"


def test_normal_foot_has_degenerate():
    assert isinstance(nc.NormalFoot.degenerate, property)
    foot = nc.normal_feet2(nc.disk(1.0), (0.3, 0.1))[0]
    assert foot.degenerate is False


@pytest.mark.parametrize("workload", ["estimate", "point", "report"])
def test_bench_workload_answers_pass_their_checks(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports references
    monkeypatch.chdir(tmp_path)  # report writes its bodies and outputs here
    wl = _load("workloads").WORKLOADS[workload](7, smoke=True)
    wl.setup(nc)
    wl.prepare(nc)
    assert wl.jobs
    answers = {job.name: job.run() for job in wl.jobs}
    failures = [f"{job.name}: {reason}" for job in wl.jobs
                for reason, _digest in [job.check(answers[job.name])] if reason is not None]
    assert not failures
    if workload == "estimate":
        # an exact mean stops these jobs at their pilot: losing it would
        # otherwise show only as a slower benchmark
        for name in ("normals/smooth", "normals/reuleaux", "normals/trunc_oct"):
            rep, ns = answers[name]
            assert rep.exact is not None and len(ns) == 1, name
