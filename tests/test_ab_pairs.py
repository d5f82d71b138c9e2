"""The statistics of ``tools/ab_pairs.py`` on canned benchmark result lines."""
import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = [{"name": "queries_per_s", "better": "higher", "bound": 0.25},
        {"name": "query_p90_ms", "better": "lower", "bound": 0.25}]


def _result(qps: float, p90: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"queries_per_s": {"value": qps, "unit": "1/s"},
                        "query_p90_ms": {"value": p90, "unit": "ms"}}}


def _stdout(result: dict) -> str:
    return "workload oracle seed 7 digest 0\nquery_p90_ms 1.4 ms\n" + json.dumps(result) + "\n"


def test_parse_run_reads_the_last_line_and_faults_name_the_cause():
    got = ab.parse_run(_stdout(_result(1400.0, 1.46)))
    assert got["metrics"]["query_p90_ms"]["value"] == 1.46
    assert ab.run_fault(0, got) is None
    assert ab.run_fault(1, got) == "exit code 1"
    assert ab.run_fault(0, None) == "no result line"
    assert ab.run_fault(0, _result(1, 1, correct=False)) == "answers not correct"
    assert ab.run_fault(0, _result(1, 1, failed=2)) == "2 failed answers"


def test_claim_needs_nine_wins_of_ten_and_a_gap_past_the_parent_spread():
    parent = [1.44, 1.45, 1.46, 1.46, 1.47, 1.47, 1.48, 1.48, 1.49, 1.50]
    change = [1.30, 1.31, 1.32, 1.32, 1.33, 1.33, 1.34, 1.34, 1.35, 1.51]
    row = ab.compare(parent, change, "lower", 0.25)
    assert (row["wins"], row["claim"], row["past_bound"]) == (9, True, False)
    assert row["parent"][0] == 1.47 and row["change"][0] == 1.33
    # a second lost pair: 8 wins of 10
    assert not ab.compare(parent, change[:8] + [1.6, 1.6], "lower", 0.25)["claim"]
    # every pair won, but by less than the parent's quartile spread
    assert not ab.compare(parent, [x - 0.01 for x in parent], "lower", 0.25)["claim"]
    # fewer than ten pairs never carry a claim
    assert not ab.compare(parent[:9], change[:9], "lower", 0.25)["claim"]
    # the same numbers where higher is better: one win; negated, the claim holds
    row = ab.compare(parent, change, "higher", 0.25)
    assert (row["wins"], row["claim"]) == (1, False)
    row = ab.compare([-x for x in parent], [-x for x in change], "higher", 0.25)
    assert (row["wins"], row["claim"]) == (9, True)
    # 30% worse is past a 25% bound, 20% worse is within it
    assert ab.compare([100.0] * 10, [70.0] * 10, "higher", 0.25)["past_bound"]
    assert not ab.compare([100.0] * 10, [80.0] * 10, "higher", 0.25)["past_bound"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    tight = [100.0, 101.0, 102.0, 103.0, 104.0]
    # quartiles 75 and 125 around 100: a 50% spread against a 25% bound
    wide = [70.0, 80.0, 100.0, 120.0, 130.0]
    assert not ab.compare(tight, tight, "higher", 0.25)["unresolved"]
    assert ab.compare(tight, wide, "higher", 0.25)["unresolved"]
    assert ab.compare(wide, tight, "higher", 0.25)["unresolved"]
    # the same spread within a 60% bound
    assert not ab.compare(wide, tight, "higher", 0.6)["unresolved"]
    # every change run better than every parent run resolves it
    row = ab.compare(tight, [x + 100 for x in wide], "higher", 0.25)
    assert (row["unresolved"], row["past_bound"]) == (False, False)
    # past the bound, but as noisy: unresolved, and the report says so
    assert ab.compare(tight, [x / 2 for x in wide], "higher", 0.25)["unresolved"]
    runs = {"parent": [_result(1400, 1.46) for _ in tight],
            "change": [_result(1400, x / 50) for x in wide]}
    assert ab.report(SPEC, runs)[2].split()[-2:] == ["unresolved", "no"]


def test_report_lists_each_metric_with_wins_and_claim():
    runs = {"parent": [_result(1400 + i, 1.46 + i / 100) for i in range(10)],
            "change": [_result(1500 + i, 1.32 + i / 100) for i in range(10)]}
    header, qps, p90 = ab.report(SPEC, runs)
    assert header.split()[0] == "metric"
    assert qps.split()[:3] == ["queries_per_s", "higher", "1404.5"]
    assert qps.split()[-3:] == ["10/10", "within", "meets"]
    assert p90.split()[-3:] == ["10/10", "within", "meets"]


def test_main_stops_on_a_run_that_is_not_correct(tmp_path, capsys):
    # a stand-in benchmark command in two stand-in checkouts
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"command": [sys.executable, "fake.py"], "run_seconds": 1,
                                 "end_to_end": SPEC}))
    for side, result in (("parent", _result(1400, 1.46)), ("change", _result(1, 1, False))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "fake.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "oracle",
            "--seed", "7", "--pairs", "1", "--benchmark", str(bench)]
    assert ab.main(argv) == 1
    out = capsys.readouterr()
    assert out.out.startswith("pair 1 parent: queries_per_s 1400 query_p90_ms 1.46")
    assert out.err.endswith("change: answers not correct\n")
    (tmp_path / "change" / "fake.py").write_text((tmp_path / "parent" / "fake.py").read_text())
    assert ab.main(argv) == 0
    assert "query_p90_ms" in capsys.readouterr().out.splitlines()[-1]


def test_a_failed_run_keeps_the_report_over_the_complete_pairs(tmp_path, capsys, monkeypatch):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"command": ["unused"], "run_seconds": 1, "end_to_end": SPEC}))
    sides = []

    def fake_run(command, checkout, args):
        sides.append(checkout.name)
        if len(sides) == 3:
            raise ab.RunFault(f"{checkout}: exit code 1")
        return _result(1400, 1.46) if checkout.name == "parent" else _result(1500, 1.32)

    monkeypatch.setattr(ab, "one_run", fake_run)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "groups",
            "--seed", "7", "--benchmark", str(bench)]
    assert ab.main(argv) == 1
    # no retry and no skipped run: the third run, pair 2's first, ends the comparison
    assert sides == ["parent", "change", "change"]
    out = capsys.readouterr()
    fault = f"{tmp_path / 'change'}: exit code 1"
    lines = out.out.splitlines()
    assert lines[:2] == ["pair 1 parent: queries_per_s 1400 query_p90_ms 1.46",
                         "pair 1 change: queries_per_s 1500 query_p90_ms 1.32"]
    assert lines[2] == (f"INCOMPLETE: workload groups seed 7, 1 of 10 pairs of 1 s runs; "
                        f"pair 2 change failed: {fault}")
    header, qps, p90 = lines[3:]
    assert header.split()[0] == "metric"
    assert qps.split()[:3] == ["queries_per_s", "higher", "1400"]
    assert qps.split()[-3:] == p90.split()[-3:] == ["1/1", "within", "no"]
    assert out.err == f"error: {fault}\n"
