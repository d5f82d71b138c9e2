"""Every answer of one benchmark workload, asked once, from one checkout.

    python3 tools/answers.py CHECKOUT --workload oracle --seed 7 > answers.jsonl

Imports ``run.Session`` from CHECKOUT's ``perfbench/`` unchanged, with the
package from CHECKOUT's ``src/``, sets the workload up and asks each
question once.  Each question prints one JSON line: its id, the exit code,
the stdout with every ``"ms"`` value masked, and the stderr.  Two checkouts
give the same answers when ``diff`` finds no difference between their
outputs.  Standard library only; it writes nothing but the session's input
files, which it removes at the end.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_MS = re.compile(r'"ms": [-0-9.e+]+')


def mask(out: str) -> str:
    """``out`` with the value of each JSON ``"ms"`` key replaced by ``"*"``."""
    return _MS.sub('"ms": "*"', out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import run

    session = run.Session(args.workload, args.seed)
    try:
        session.setup()
        for q, question in zip(session.w.questions, session.argvs):
            rc, out, err = session.ask(question)
            print(json.dumps({"qid": q.qid, "rc": rc, "out": mask(out), "err": err}))
    finally:
        session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
