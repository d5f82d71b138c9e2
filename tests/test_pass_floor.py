"""``tools/pass_floor.py``: its figures on canned pass times, and a short real run."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pass_floor.py"
_spec = importlib.util.spec_from_file_location("pass_floor", TOOL)
pf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pf)


def test_summarize_gives_the_floor_in_milliseconds():
    got = pf.summarize([0.001 * t for t in range(40, 19, -1)], 3)
    assert got["passes"] == 21 and got["unsampled"] == 3
    assert (round(got["min_ms"], 9), round(got["p5_ms"], 9), round(got["median_ms"], 9)) == (
        20.0, 21.0, 30.0)
    one = pf.summarize([0.025], 1)
    assert one["min_ms"] == one["p5_ms"] == one["median_ms"] == 25.0


def test_two_groups_passes_of_this_checkout():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--workload", "groups", "--seed", "7",
         "--passes", "2"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].endswith("workload groups seed 7: 2 passes of 102 questions")
    got = json.loads(lines[-1])
    assert (got["workload"], got["seed"], got["passes"]) == ("groups", 7, 2)
    assert 0 < got["min_ms"] <= got["p5_ms"] <= got["median_ms"]
    assert got["unsampled"] in (0, 1, 2)
