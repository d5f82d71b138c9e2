"""Alternating parent/change runs of the benchmark, compared metric by metric.

    python3 tools/ab_pairs.py PARENT CHANGE --workload oracle --seed 7 --pairs 10

PARENT and CHANGE are two checkouts of the repository.  Each pair runs the
benchmark command of ``BENCHMARK.json`` (``python3 perfbench/run.py``) once
in each checkout, one process at a time, with ``--trace 0`` and the given
workload, seed and ``--seconds`` (by default the benchmark's
``run_seconds``); the pairs alternate which side goes first.

For each end-to-end metric the report gives each side's median and
quartiles, how many pairs the change won, whether the change's median is
worse than the parent's by more than the metric's bound, and whether a
claimed gain meets the rule: the change better in at least 9 of 10 pairs,
and its median better than the parent's by more than the parent's quartile
spread.  "Better" is the metric's direction in ``BENCHMARK.json``.

A run that exits non-zero, or whose result is not ``correct`` or counts a
failed answer, stops the comparison with exit code 1.  The script reads
``BENCHMARK.json`` and runs ``perfbench/`` in each checkout; it writes
nothing there but what the benchmark itself writes.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """The result object a run prints as its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_fault(code: int, result: dict | None) -> str | None:
    """Why a run does not count, or None."""
    if code != 0:
        return f"exit code {code}"
    if result is None:
        return "no result line"
    if not result.get("correct"):
        return "answers not correct"
    if result.get("failed"):
        return f"{result['failed']} failed answers"
    return None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); the quartiles by ``statistics.quantiles``' default method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: parent[i] and change[i] form pair i."""
    sign = 1 if better == "lower" else -1
    # gain > 0 where the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (pmed - cmed)
    worse = -gap / abs(pmed)
    return {
        "parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
        "wins": wins, "pairs": len(parent),
        "past_bound": worse > bound,
        "claim": len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > pq3 - pq1,
    }


def report(spec: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """Table lines for every end-to-end metric of ``spec``."""
    lines = [f"{'metric':<15} {'better':<6} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} wins   bound      claim"]
    for m in spec:
        name = m["name"]
        side = {k: [r["metrics"][name]["value"] for r in v] for k, v in runs.items()}
        row = compare(side["parent"], side["change"], m["better"], m["bound"])
        cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for med, q1, q3 in
                 (row["parent"], row["change"])]
        lines.append(
            f"{name:<15} {m['better']:<6} {cells[0]:<34} {cells[1]:<34} "
            f"{row['wins']:>2}/{row['pairs']:<2}  {'PAST' if row['past_bound'] else 'within':<9}  "
            f"{'meets' if row['claim'] else 'no'}")
    return lines


class RunFault(Exception):
    pass


def one_run(command: list[str], checkout: Path, args) -> dict:
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        result = parse_run(proc.stdout)
    except ValueError:
        result = None
    fault = run_fault(proc.returncode, result)
    if fault is not None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RunFault(f"{checkout}: {fault}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    command, spec = bench["command"], bench["end_to_end"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = one_run(command, getattr(args, side), args)
            except RunFault as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            runs[side].append(result)
            values = " ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} {side}: {values}", flush=True)
    print(f"workload {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print("\n".join(report(spec, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
