"""Runs one workload in a fresh process; ``run.py`` starts it.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 [--smoke] [--setup-only]

Imports normcount from the repository's src/, generates the workload's
inputs from the seed, sets up (parse_body, NormBall2), then runs the fixed
job list in passes for ``--seconds`` seconds.  Prints one JSON line: the monotonic time at
which set-up ended, per-job latencies per pass, failures, output digests and
the peak resident memory.  With ``--trace 1`` it alternates untraced and
traced passes, adds the per-layer metrics and the tracing overhead, and
writes the spans of the first traced pass to spans.jsonl in the working
directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_pass(wl, latency, digests, failures, tracer=None):
    """Run every job once; returns the pass's summed job latency."""
    total = 0.0
    for job in wl.jobs:
        if tracer is not None:
            tracer.job = job.name
        reason = digest = None
        t0 = time.perf_counter()
        try:
            answer = job.run()
        except Exception as exc:  # a job that raises is a failed job
            answer, reason = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = None
        if reason is None:
            try:
                reason, digest = job.check(answer)
            except Exception as exc:  # an unreadable answer fails its job
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and digest is not None:
            if digests.setdefault(job.name, digest) != digest:
                reason = "output differs from the first pass"
        if reason is not None:
            failures.append(f"{job.name}: {reason}")
        latency[job.name].append(dt)
        total += dt
    return total


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import normcount as nc

    if not Path(nc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"normcount was imported from {nc.__file__}, not from {SRC}")
    cls = workloads.WORKLOADS[args.workload]
    for name in cls.modules:
        importlib.import_module(name)

    g0 = time.perf_counter()
    wl = cls(args.seed, args.smoke)  # bench-side input generation
    gen_s = time.perf_counter() - g0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.job = "setup"
    wl.setup(nc)
    if tracer is not None:
        tracer.uninstall()
    ready_at = time.monotonic()
    out = {"ready_at": ready_at, "gen_s": gen_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    wl.prepare(nc)
    latency = {job.name: [] for job in wl.jobs}
    digests: dict[str, str] = {}
    failures: list[str] = []
    walls, traced_walls = [], []
    per_layer = None
    deadline = time.monotonic() + args.seconds
    # A traced run alternates untraced and traced passes, so that both see the
    # same machine; the per-layer metrics come from set-up and the first
    # traced pass.  No pass starts that would be expected to end after the
    # time is up.
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        if (walls and (tracer is None or traced_walls)
                and time.monotonic() + statistics.median(walls) > deadline):
            break
        if not traced:
            walls.append(run_pass(wl, latency, digests, failures))
            continue
        tracer.install()
        traced_walls.append(run_pass(wl, latency, digests, failures, tracer))
        tracer.uninstall()
        if per_layer is None:
            per_layer = tracer.metrics()
            tracer.write("spans.jsonl")
        tracer.spans.clear()
    if tracer is not None:
        per_layer[tracing.OVERHEAD] = statistics.median(traced_walls) - statistics.median(walls)
        out.update(per_layer=per_layer, traced_walls=traced_walls)

    attempted = sum(len(v) for v in latency.values())
    out.update(jobs=[job.name for job in wl.jobs], latency=latency, walls=walls,
               attempted=attempted, failed=len(failures), failures=failures[:20],
               digests=digests, peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               machine=machine_info())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
