"""Self-test of the benchmark: determinism and the result contract.

    python3 perfbench/selftest.py

Runs every workload in smoke mode (tiny job lists) and checks that:
- two traced runs report identical per-layer counts;
- two untraced runs of `report` give identical SHA-256 digests of every CLI
  output (stdout plus the files written), which tests from outside the CLI's
  claim that identical arguments give byte-identical output;
- the metric names and units printed match BENCHMARK.json, and no run fails;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEED = 7


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                           "--smoke"], cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int) -> dict:
    code, stdout = bench(workload, trace)
    if code != 0:
        raise SystemExit(f"{workload} trace={trace} exited with code {code}")
    return json.loads(stdout.strip().splitlines()[-1])


def detail(workload: str, trace: int) -> dict:
    with open(OUT / f"{workload}-seed{SEED}-trace{trace}-smoke.json") as fh:
        return json.load(fh)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for w in [wl["name"] for wl in spec["workloads"]]:
        runs = []
        for trace in (1, 1, 0, 0):
            res = result(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} trace={trace}: {res['failed']} failed jobs")
            runs.append((res, detail(w, trace)))
        counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"}
                  for res, _ in runs[:2]]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{w}: traced counts differ between runs: {diff}")
        if runs[2][1]["digests"] != runs[3][1]["digests"]:
            problems.append(f"{w}: output digests differ between runs")
        print(f"{w}: {len(counts[0])} counts and {len(runs[2][1]['digests'])} digests compared")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, stdout = bench("estimate", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or '"correct"' in stdout:
        problems.append("without the program's sources the benchmark did not fail")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
