"""Whole-pass times of one benchmark workload, in-process, from one checkout.

    python3 tools/pass_floor.py CHECKOUT --workload groups --seed 7 --passes 300

Imports ``run.Session`` and ``speed.Sampler`` from CHECKOUT's
``perfbench/`` unchanged, with the package from CHECKOUT's ``src/``, sets
the workload up once, then times N whole passes over its questions, each
inside its own ``Sampler`` as the benchmark's passes are.  It prints the
minimum, 5th percentile and median wall-clock pass time, and how many
passes took no speed sample: a pass that ends before the sampler's first
tick leaves nothing to scale its times by, and the benchmark run fails.
The last stdout line is one JSON object with the same figures.  Standard
library only; it writes nothing but the session's input files, which it
removes at the end.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def summarize(seconds: list[float], unsampled: int) -> dict:
    """Pass-time figures in milliseconds, and the count of unsampled passes."""
    ms = sorted(1000 * s for s in seconds)
    p5 = statistics.quantiles(ms, n=20, method="inclusive")[0] if len(ms) > 1 else ms[0]
    return {"passes": len(ms), "min_ms": ms[0], "p5_ms": p5,
            "median_ms": statistics.median(ms), "unsampled": unsampled}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=300)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be positive")
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import run
    import speed

    session = run.Session(args.workload, args.seed)
    seconds, unsampled = [], 0
    try:
        session.setup()
        for _ in range(args.passes):
            with speed.Sampler() as sampler:
                t0 = time.perf_counter()
                for question in session.argvs:
                    session.ask(question)
                seconds.append(time.perf_counter() - t0)
            unsampled += not sampler.starts
    finally:
        session.close()
    got = summarize(seconds, unsampled)
    print(f"{root} workload {args.workload} seed {args.seed}: {got['passes']} passes of "
          f"{len(session.argvs)} questions")
    print(f"pass ms: min {got['min_ms']:.3f}, p5 {got['p5_ms']:.3f}, "
          f"median {got['median_ms']:.3f}; {unsampled} passes took no speed sample")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **got}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
