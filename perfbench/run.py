"""lexidis benchmark: one closed-loop client asking the CLI fixed questions.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a seeded list of questions
(workloads.py).  One process answers them one at a time by calling
``lexidis.cli.main(argv)`` in-process with stdout captured, in whole passes
over the list until at least ``--seconds`` have passed.  Answers are checked
after the timed passes (checks.py).  Times are scaled to a reference
machine speed (speed.py); the raw wall-clock figures are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one more pass with every layer wrapped (tracing.py),
and prints the per-layer metrics of that pass; its spans are written to
``.perfbench_out/``.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  ``attempted`` counts questions
asked in the untraced passes; ``failed`` counts wrong or raising answers.
An exit-3 refusal under the fixed cap is not a wrong answer, but it is not
an answer either: it lowers ``answered_frac`` and is listed by id.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7

# tiny questions answered once in set-up, so lazy imports are paid there
WARMUP = {
    "oracle": [["--json", "dnum", "@warm.txt"], ["--json", "dindex", "@warm.txt"]],
    "groups": [["--json", "aut", "--cap", "10", "@warm.txt"]],
    "certify": [["product", "@warm.txt", "@warm.txt"],
                ["--json", "label", "--method", "prop32", "@warm.txt", "--certify"],
                ["--json", "verify", "@warm.txt", "@warm.lab"]],
}
WARMUP_INPUTS = {"warm.txt": "p 4 3\ne 0 1\ne 1 2\ne 2 3\n",
                 "warm.lab": "v 0 1\nv 1 1\nv 2 1\nv 3 2\n"}

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
                    "query_p90_ms": "ms", "answered_frac": "frac", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the raw and scaled seconds it took, and exit")
    return ap.parse_args(argv)


class Session:
    """One workload's inputs on disk and the in-process CLI that answers them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workdir = ROOT / ".perfbench_work" / str(os.getpid())
        self.workload_name = workload
        self.seed = seed

    def setup(self) -> None:
        """Import lexidis, generate and write the inputs, warm up."""
        import lexidis.cli

        os.environ["LEXIDIS_CAP"] = str(wl.CAP)
        self.cli = lexidis.cli
        self.w = wl.build(self.workload_name, self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in {**self.w.inputs, **WARMUP_INPUTS}.items():
            (self.workdir / name).write_text(text, encoding="ascii")
        self.argvs = [self._paths(q.argv) for q in self.w.questions]
        for argv in WARMUP[self.workload_name]:
            self.ask(self._paths(argv))
        # keep the benchmark's own objects out of the collector's way, so a
        # question pays for the garbage it makes, as in a fresh CLI process
        gc.collect()
        gc.freeze()

    def _paths(self, argv: list[str]) -> list[str]:
        return [str(self.workdir / a[1:]) if a.startswith("@") else a for a in argv]

    def ask(self, argv: list[str]) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a raising answer is recorded, not fatal
                rc = None
                err.write(repr(exc))
        return rc, out.getvalue(), err.getvalue()

    def one_pass(self, answers: dict, raw: dict, scaled: dict, tracer=None) -> None:
        """Ask every question once; add its raw and scaled seconds by question id."""
        timed = []
        with speed.Sampler() as sampler:
            for q, argv in zip(self.w.questions, self.argvs):
                if tracer is not None:
                    tracer.begin(q.qid)
                spent = sampler.spent
                t0 = time.perf_counter()
                rc, out, err = self.ask(argv)
                t1 = time.perf_counter()
                timed.append((q.qid, t0, t1, t1 - t0 - (sampler.spent - spent)))
                if tracer is not None:
                    tracer.end()
                seen = answers.setdefault((q.qid, rc, out), [err, 0])
                seen[1] += 1
        for qid, t0, t1, took in timed:
            raw.setdefault(qid, []).append(took)
            scaled.setdefault(qid, []).append(took * sampler.scale(t0, t1))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


def setup_probe(session: Session) -> None:
    with speed.Sampler() as sampler:
        time.sleep(speed.MARGIN_S)  # samples before set-up starts
        t0 = time.perf_counter()
        session.setup()
        t1 = time.perf_counter()
        took = t1 - t0 - sampler.spent
        time.sleep(speed.MARGIN_S)
    print(took, took * sampler.scale(t0, t1))


def setup_seconds(args) -> list[tuple[float, float]]:
    """(raw, scaled) fresh-process set-up times: import, inputs, warm-up."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of the values (q in 0..1)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def latency_metrics(per_question: list[float]) -> dict:
    return {
        "queries_per_s": len(per_question) / sum(per_question),
        "query_p50_ms": 1000 * quantile(per_question, 0.5),
        "query_p90_ms": 1000 * quantile(per_question, 0.9),
    }


def check_answers(session: Session, answers: dict) -> dict:
    """Status ("ok", "capped" or "wrong") and detail of every distinct answer."""
    import checks

    checker = checks.Checker(session.w, wl.CAP)
    by_id = {q.qid: q for q in session.w.questions}
    out = {}
    for key, (err, _count) in answers.items():
        qid, rc, text = key
        if rc is None:
            out[key] = ("wrong", f"raised {err.strip()[-200:]}")
        else:
            out[key] = checker.check(by_id[qid], rc, text)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lexidis" / "__init__.py").is_file():
        print(f"error: no lexidis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    session = Session(args.workload, args.seed)
    try:
        if args.setup_probe:
            setup_probe(session)
            return 0
        return run(args, session)
    finally:
        session.close()


def run(args, session: Session) -> int:
    setup = setup_seconds(args)
    session.setup()
    answers: dict = {}
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < args.seconds:
        session.one_pass(answers, raw, scaled)
        passes += 1
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = passes * len(raw)
    # one sample per question, its median over the passes
    per_question = [statistics.median(v) for v in scaled.values()]
    per_question_raw = [statistics.median(v) for v in raw.values()]

    traced_answers: dict = {}
    traced = traced_pass(args, session, traced_answers) if args.trace else None

    status = check_answers(session, {**traced_answers, **answers})
    failed = sum(n for key, (_e, n) in answers.items() if status[key][0] == "wrong")
    capped = sum(n for key, (_e, n) in answers.items() if status[key][0] == "capped")
    lines = [f"workload {args.workload} seed {args.seed} digest {session.w.digest()}",
             f"questions {len(raw)} per pass, {passes} passes, {elapsed:.3f} s wall clock"]
    for kind in ("capped", "wrong"):
        ids = sorted({(key[0], detail) for key, (st, detail) in status.items() if st == kind})
        lines += [f"{kind} {qid}: {detail}" for qid, detail in ids]
    if args.trace:
        metrics, units = traced_metrics(traced, latency_metrics(per_question)["queries_per_s"])
        lines += [f"trace missing target {name}" for name in traced["missing"]]
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        lines.append(f"trace {traced['spans']} spans written to {traced['path']}; layer self "
                     f"times sum to {self_sum:.6f} s of {metrics['trace.query_s']:.6f} s "
                     "(wall clock, not scaled)")
    else:
        metrics = {
            "setup_s": statistics.median(s for _r, s in setup),
            **latency_metrics(per_question),
            "answered_frac": (attempted - failed - capped) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        p90 = quantile(per_question, 0.9)
        wall = latency_metrics(per_question_raw)
        lines.append(f"latency samples {len(per_question)}: per-question medians of {passes} "
                     f"passes; {sum(x > p90 for x in per_question)} above p90")
        lines.append("wall clock, not scaled: setup_s "
                     f"{statistics.median(r for r, _s in setup):.6g} "
                     + " ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    lines += [f"{name} {val:.6g} {units[name]}" for name, val in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": all(st != "wrong" for st, _d in status.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_pass(args, session: Session, answers: dict) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    try:
        session.one_pass(answers, raw, scaled, tracer)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans_{args.workload}_{args.seed}.json"
    tracer.write(path)
    layer, query_s = tracer.summary()
    return {"layer": layer, "query_s": query_s,
            "queries_per_s": len(scaled) / sum(v[0] for v in scaled.values()),
            "missing": tracer.missing, "spans": len(tracer.spans),
            "path": path.relative_to(ROOT)}


def traced_metrics(traced: dict, untraced_qps: float) -> tuple[dict, dict]:
    metrics = dict(traced["layer"])
    metrics["trace.overhead_frac"] = untraced_qps / traced["queries_per_s"] - 1
    metrics["trace.query_s"] = traced["query_s"]
    metrics["trace.missing_targets"] = len(traced["missing"])
    units = {}
    for name in metrics:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_frac", "_ratio")):
            units[name] = "frac"
        elif name.startswith("formats.bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
