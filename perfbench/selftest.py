"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Runs ``run.py --trace 1`` twice per workload on the same seed and fails
unless every count (calls, search nodes, refinement rounds, group
elements, capped enumerations, bytes, product edges) is identical between
the two runs, both runs answer correctly, no wrap target is missing, and
the layer self times sum to the traced query time.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bytes")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int) -> list[str]:
    first, second = traced(workload, seed), traced(workload, seed)
    problems = []
    for run in (first, second):
        if not run["correct"]:
            problems.append("an answer was wrong")
        m = run["metrics"]
        if m["trace.missing_targets"]["value"]:
            problems.append("a wrap target is missing")
        self_sum = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        if abs(self_sum - m["trace.query_s"]["value"]) > 1e-6 * max(1.0, self_sum):
            problems.append(f"self times sum to {self_sum}, not {m['trace.query_s']['value']}")
    for name, row in first["metrics"].items():
        if row["unit"] in COUNT_UNITS and row["value"] != second["metrics"][name]["value"]:
            problems.append(f"{name}: {row['value']} then {second['metrics'][name]['value']}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    failed = False
    for workload in [args.workload] if args.workload else WORKLOADS:
        problems = check(workload, args.seed)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
