#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny run length.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json and both trace modes it runs the
benchmark for one second and checks that the run exits 0, that its last line
is a result with exactly the expected keys, that every metric BENCHMARK.json
names for that mode is printed with its unit, and that every server process
the run started has stopped.  It then copies BENCHMARK.json and the benchmark
directory, without the program, into a scratch directory and checks that the
benchmark refuses to run there.  Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"


def fail(message: str) -> None:
    raise SystemExit(f"smoke: {message}")


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace {trace}"
    if out.returncode != 0:
        fail(f"{where} exited with {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where} result keys are {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{where} reports incorrect output:\n{out.stderr}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{where} attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        fail(f"{where} failed {result['failed']!r}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        fail(f"{where} metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        metric = result["metrics"][name]
        if metric["unit"] != unit or not isinstance(metric["value"], (int, float)):
            fail(f"{where} metric {name} is {metric}")
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
            fail(f"{where} does not print {name} with its unit")
    pids = [int(line.split()[2]) for line in lines if line.startswith("server pid ")]
    if workload.startswith("fetch") and not pids:
        fail(f"{where} reports no server process")
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        fail(f"{where} left server process {pid} running")
    print(f"ok {where}: attempted {result['attempted']} failed {result['failed']}")


def check_without_program(spec: dict) -> None:
    bare = WORK / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        cmd = spec["command"] + ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail("the benchmark ran without the program's sources")
    print(f"ok without the program: exit {out.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
