#!/usr/bin/env python3
"""Steadiness mode: run every workload with ten seeds and show each
end-to-end metric's spread next to its bound in BENCHMARK.json.

    python3 perfbench/steady.py

Each workload runs with seeds 1 to 10 and the run length from
BENCHMARK.json.  The spread of a metric is the distance between the first
and third quartiles of its values (statistics.quantiles with n=4) as a share
of their median.  Every metric gets the same verdict: steady below a third
of its bound, within bound up to the bound, UNSTEADY beyond it.  The last
line is a JSON summary with every value.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {out.returncode}")
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        summary[workload] = runs
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted({r['failed'] / r['attempted'] for r in runs})}", flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            bound = metric["bound"]
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "UNSTEADY"
            print(f"  {metric['name']:<10} median {q2:.6g} {metric['unit']:<4} spread {spread:.4f}"
                  f"  bound {bound}  {verdict}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
