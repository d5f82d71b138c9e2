"""``tools/answers.py``: its masking on canned outputs, and one real run."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "answers.py"
_spec = importlib.util.spec_from_file_location("answers", TOOL)
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)


def test_mask_replaces_only_the_ms_values():
    cases = {
        '{"command": "dnum", "ms": 1.234, "value": 2}\n':
            '{"command": "dnum", "ms": "*", "value": 2}\n',
        '{"ms": 0.0}': '{"ms": "*"}',
        '{"ms": 1e-05}': '{"ms": "*"}',
        '{"ms": 12}\n{"ms": 3.5}\n': '{"ms": "*"}\n{"ms": "*"}\n',
        # other keys, and "ms" in plain text, stay
        '{"items": 3, "terms": 4.5}': '{"items": 3, "terms": 4.5}',
        "took 3 ms\n": "took 3 ms\n",
        "": "",
    }
    assert {out: answers.mask(out) for out in cases} == cases


def test_one_line_per_groups_question_at_seed_7():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--workload", "groups", "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(got) == 102 and len({a["qid"] for a in got}) == 102
    assert all(list(a) == ["qid", "rc", "out", "err"] for a in got)
    assert all(a["qid"].startswith("aut:") and a["rc"] == 0 and a["err"] == "" for a in got)
    assert all('"ms": "*"' in a["out"] for a in got)
