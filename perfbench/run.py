"""Benchmark for normcount: time to answers of stated accuracy.

Usage (from the repository root):

    python3 perfbench/run.py --workload estimate|point|report --seed N \
        --seconds S --trace 0|1 [--smoke]

Each run starts the workload in a fresh Python process with OpenBLAS pinned
to one thread, so set-up time and peak memory belong to that workload alone.
The workload runs one closed-loop caller over a fixed job list, repeated
for S seconds, and every answer is checked against an
independent reference (see workloads.py and references.py).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: setup_s (median of five process starts up to ready), wall_s (median
time of one pass over the job list), job_p50_s and job_tail_s (over the
per-job median latencies; the tail is the highest of p90, p99 and p99.9
with ten jobs beyond it, or the slowest job), and peak_rss_mb.  ``failed`` out of
``attempted`` is the failure fraction.  With --trace 1 it holds the per-layer
metrics of set-up and one traced pass, timed from wrappers around normcount's
public functions, plus the tracing overhead: the median traced minus the
median untraced pass time, from alternating passes.  Details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 5  # processes whose start-up gives setup_s
TIME_LIMIT = 170.0  # seconds for the whole run


def tail(values: list[float]) -> float:
    """The highest of p99.9, p99 and p90 with at least ten values beyond it;
    the maximum when there are too few values for p90."""
    ordered = sorted(values)
    for q in (0.999, 0.99, 0.9):
        rank = math.ceil(q * len(ordered))
        if len(ordered) - rank >= 10:
            return ordered[rank - 1]
    return ordered[-1]


def worker(args, workdir: Path, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start one worker process; returns (spawn time, its JSON result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - spawned), check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["estimate", "point", "report"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny job lists, for the determinism self-test")
    args = p.parse_args()
    deadline = time.monotonic() + TIME_LIMIT

    if not (SRC / "normcount" / "__init__.py").is_file():
        print(f"perfbench: no normcount sources at {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_STARTS - 1):
                spawned, res = worker(args, workdir, deadline, "--setup-only")
                setups.append(res["ready_at"] - spawned - res["gen_s"])
        spawned, res = worker(args, workdir, deadline)
        setups.append(res["ready_at"] - spawned - res["gen_s"])
        if args.trace:
            shutil.move(workdir / "spans.jsonl", OUT / f"{tag}.spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_job = [statistics.median(res["latency"][name]) for name in res["jobs"]]
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "job_p50_s": {"value": statistics.median(per_job), "unit": "s"},
            "job_tail_s": {"value": tail(per_job), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    attempted, failed = res["attempted"], res["failed"]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "setup_s": setups, "walls": res["walls"],
              "traced_walls": res.get("traced_walls"), "fail_frac": failed / attempted,
              "failures": res["failures"], "digests": res["digests"],
              "job_median_s": dict(zip(res["jobs"], per_job)), "machine": res["machine"],
              "metrics": metrics}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    m = res["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(res['walls'])} "
          f"untraced passes of {len(per_job)} jobs, {failed} of {attempted} failed "
          f"(fail_frac={failed / attempted:g})")
    print(f"# machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas={m['blas']} OPENBLAS_NUM_THREADS={m['openblas_threads']}")
    if args.trace:
        print(f"# tracing overhead: traced wall_s {statistics.median(res['traced_walls']):.3f} s"
              f" - untraced wall_s {statistics.median(res['walls']):.3f} s"
              f" ({len(res['traced_walls'])} traced passes)")
    for failure in res["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
