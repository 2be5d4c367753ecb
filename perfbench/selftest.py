"""Self-test of the benchmark harness, kept out of the tier-1 pytest run.

    python3 perfbench/selftest.py

1. Every workload, shrunk to a tiny row count (n, L, D and the strategy
   kept), runs untraced and traced; each must pass its correctness gate and
   print every metric BENCHMARK.json names, with its unit.
2. Eval fed a truncated model file must count as one failed operation,
   while the harness still prints its result line and exits 1.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark must exit non-zero without printing a result.

Exits 0 when all pass.  Takes a few minutes: the ISOLET-shaped model file
is 130 MB whatever the row count.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

TINY_SAMPLES = {"small_misleading": 4, "small_regen": 4, "isolet_domain": 1}


def tiny_workloads() -> dict:
    tiny = copy.deepcopy(WORKLOADS)
    for name, samples in TINY_SAMPLES.items():
        tiny[name]["data"]["samples"] = samples
    return tiny


def run_tiny(argv: list[str], **kwargs) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads=tiny_workloads(), **kwargs)
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for seed, workload in enumerate(sorted(WORKLOADS)):
        for trace in (0, 1):
            code, result = run_tiny(["--workload", workload, "--seed",
                                     str(seed), "--seconds", "0.1",
                                     "--trace", str(trace)])
            got = {k: v["unit"] for k, v in result["metrics"].items()
                   if isinstance(v["value"], (int, float))}
            label = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, {result['failed']} "
                                f"of {result['attempted']} failed")
            if got != expected[trace]:
                problems.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= {sorted(expected[trace].items())}")
            print(f"{label}: exit {code}, {len(got)} metrics", flush=True)

    code, result = run_tiny(["--workload", "small_misleading", "--seed", "7",
                             "--seconds", "0.1", "--trace", "0"],
                            truncate_model=True)
    if code != 1 or result["failed"] != 1 or result["correct"]:
        problems.append(f"truncated model: exit {code}, result {result}")
    print(f"truncated model: exit {code}, {result['failed']} of "
          f"{result['attempted']} failed", flush=True)

    bare = os.path.join(run.WORK_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable] + bench["command"][1:]
            + ["--workload", "small_misleading", "--seed", "1",
               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK_ROOT)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
