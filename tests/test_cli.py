import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexidis
from lexidis import complete, cycle, lex_product, path, spider
from lexidis.cli import main
from lexidis.formats import loads, write_edge_list, write_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_dnum_round_trip(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    code, _, _ = run(capsys, "gen", "--family", "spider", "--n", "3", "-o", str(g6))
    assert code == 0
    assert loads(g6.read_text()) == spider(3)
    code, out, _ = run(capsys, "dnum", str(g6))
    assert code == 0
    assert "D = 2" in out


def test_product_matches_library(tmp_path, capsys):
    a = tmp_path / "a.el"
    b = tmp_path / "b.el"
    a.write_text(write_edge_list(complete(2)))
    b.write_text(write_edge_list(complete(3)))
    code, out, _ = run(capsys, "product", str(a), str(b))
    assert code == 0
    assert loads(out) == complete(6)
    code, out, _ = run(capsys, "product", str(a), "--power", "2", "--format", "graph6")
    assert code == 0
    assert loads(out) == complete(4)


def test_round_trip_both_formats(tmp_path, capsys):
    for fmt in ("edgelist", "graph6"):
        out_path = tmp_path / f"g.{fmt}"
        code, _, _ = run(
            capsys, "gen", "--family", "cycle", "--n", "6",
            "-o", str(out_path), "--format", fmt,
        )
        assert code == 0
        text = out_path.read_text()
        assert loads(text).edges == frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
        )


def test_aut_json(tmp_path, capsys):
    p = tmp_path / "k4.el"
    p.write_text(write_edge_list(complete(4)))
    code, out, _ = run(capsys, "--json", "aut", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24
    assert payload["generators"]


def test_aut_cap_exit(tmp_path, capsys):
    p = tmp_path / "k5.el"
    p.write_text(write_edge_list(complete(5)))
    code, out, _ = run(capsys, "aut", str(p), "--cap", "10")
    assert code == 3
    assert ">=" in out
    # a zero cap is a usage error, not a fall-back to the default cap
    code, _, err = run(capsys, "aut", str(p), "--cap", "0")
    assert code == 2
    assert "cap must be positive" in err


def test_verify_positive_and_negative(tmp_path, capsys):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    good = tmp_path / "good.txt"
    good.write_text("v 0 1\nv 1 1\nv 2 2\n")
    code, out, _ = run(capsys, "verify", str(g), str(good))
    assert code == 0 and "DISTINGUISHING" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("v 0 1\nv 1 2\nv 2 1\n")
    code, out, _ = run(capsys, "verify", str(g), str(bad))
    assert code == 1 and "(0 2)" in out


def test_verify_edge_labeling(tmp_path, capsys):
    g = tmp_path / "p4.el"
    g.write_text(write_edge_list(path(4)))
    lab = tmp_path / "lab.txt"
    lab.write_text("e 0 1 1\ne 1 2 1\ne 2 3 2\n")
    code, out, _ = run(capsys, "verify", str(g), str(lab))
    assert code == 0 and "DISTINGUISHING" in out


@pytest.mark.parametrize(
    "graph, records, line",
    [
        (path(3), "v 0 1\nv 1 1\nv 2 2\nv 0 2\n", "line 4: duplicate record for v 0"),
        (path(4), "e 0 1 1\ne 1 2 1\ne 2 3 2\n\ne 1 0 2\n", "line 5: duplicate record for e 1 0"),
    ],
)
def test_verify_rejects_duplicate_records(tmp_path, capsys, graph, records, line):
    g = tmp_path / "g.el"
    g.write_text(write_edge_list(graph))
    lab = tmp_path / "lab.txt"
    lab.write_text(records)
    code, out, err = run(capsys, "verify", str(g), str(lab))
    assert (code, out) == (2, "")
    assert line in err


def test_label_certify(tmp_path, capsys):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    out_file = tmp_path / "lab.txt"
    code, out, _ = run(
        capsys, "label", "--method", "thm36", str(g), str(g),
        "-o", str(out_file), "--certify",
    )
    assert code == 0
    assert "DISTINGUISHING" in out
    # the emitted file re-verifies against the product
    prod_file = tmp_path / "prod.el"
    code, prod_out, _ = run(capsys, "product", str(g), str(g))
    prod_file.write_text(prod_out)
    code, out, _ = run(capsys, "verify", str(prod_file), str(out_file))
    assert code == 0


def test_label_power_method(tmp_path, capsys):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    code, out, _ = run(capsys, "label", "--method", "power", str(g), "--power", "2", "--certify")
    assert code == 0 and "DISTINGUISHING" in out


def test_bounds_human_and_json(tmp_path, capsys):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    code, out, _ = run(capsys, "bounds", str(g), str(g), "--power", "2")
    assert code == 0
    assert "product-vertex-range" in out
    code, out, _ = run(capsys, "--json", "bounds", str(g), str(g))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    by_name = {r["bound"]: r for r in rows}
    assert by_name["product-vertex-range"]["lower"] == 2
    assert by_name["product-vertex-range"]["upper"] == 4
    assert by_name["product-vertex-stepwise"]["upper"] == 3
    assert by_name["product-edge-max"]["upper"] == 2


def test_json_outputs_are_stable(tmp_path, capsys):
    g = tmp_path / "c5.el"
    g.write_text(write_edge_list(lex_product(complete(2), path(3))))

    def strip_ms(text):
        rows = [json.loads(line) for line in text.splitlines()]
        for r in rows:
            r.pop("ms", None)
        return rows

    code, out1, _ = run(capsys, "--json", "dnum", str(g))
    code, out2, _ = run(capsys, "--json", "dnum", str(g))
    assert strip_ms(out1) == strip_ms(out2)


def test_python_m_entry_point(tmp_path):
    g = tmp_path / "k4.el"
    g.write_text(write_edge_list(complete(4)))
    src = Path(lexidis.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    run_m = [sys.executable, "-m", "lexidis"]
    done = subprocess.run([*run_m, "dnum", str(g)], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.splitlines()[0]) == (0, "D = 4")
    done = subprocess.run([*run_m, "dnum", str(tmp_path / "missing.el")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "no such file" in done.stderr


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["gen", "--family", "nope", "--n", "3"]) == 2
    missing = tmp_path / "missing.el"
    code, _, err = run(capsys, "dnum", str(missing))
    assert code == 2 and "no such file" in err
    bad = tmp_path / "bad.el"
    bad.write_text("e 0 1\n")
    code, _, err = run(capsys, "dnum", str(bad))
    assert code == 2 and "line 1" in err


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(complete(4)) + "\n"))
    code, out, _ = run(capsys, "dnum", "-")
    assert code == 0 and "D = 4" in out


def test_env_cap_override(tmp_path, capsys, monkeypatch):
    p = tmp_path / "k5.el"
    p.write_text(write_edge_list(complete(5)))
    monkeypatch.setenv("LEXIDIS_CAP", "10")
    code, out, _ = run(capsys, "aut", str(p))
    assert code == 3 and ">=" in out
    monkeypatch.setenv("LEXIDIS_CAP", "boom")
    code, _, err = run(capsys, "aut", str(p))
    assert code == 2 and "LEXIDIS_CAP" in err


def test_dindex_answers_past_the_aut_cap(tmp_path, capsys, monkeypatch):
    # |Aut(K2[K5])| = 10! is past any listing cap, but dindex lists no group
    p = tmp_path / "k2k5.el"
    p.write_text(write_edge_list(lex_product(complete(2), complete(5))))
    for cap in ("1000", "10"):
        monkeypatch.setenv("LEXIDIS_CAP", cap)
        code, out, _ = run(capsys, "--json", "dindex", str(p))
        assert code == 0, cap
        payload = json.loads(out)
        assert payload["value"] == 2
        assert len(payload["witness"]) == 45


def test_aut_refusal_reports_cap_plus_one(tmp_path, capsys, monkeypatch):
    p = tmp_path / "k4k4.el"
    p.write_text(write_edge_list(lex_product(complete(4), complete(4))))
    code, out, _ = run(capsys, "--json", "aut", "--cap", "1000", str(p))
    assert code == 3
    assert json.loads(out) == {"command": "aut", "n": 16, "order": None, "at_least": 1001}
    monkeypatch.setenv("LEXIDIS_CAP", "9")
    code, out, _ = run(capsys, "aut", str(p))
    assert (code, out) == (3, "order >= 10 (cap exceeded)\n")
    # a group of exactly the cap's size is answered
    c5 = tmp_path / "c5.el"
    c5.write_text(write_edge_list(cycle(5)))
    code, out, _ = run(capsys, "--json", "aut", "--cap", "10", str(c5))
    assert code == 0 and json.loads(out)["order"] == 10


def test_aut_elements_listing_is_pinned(tmp_path, capsys):
    p = tmp_path / "k2k3.el"
    p.write_text(write_edge_list(lex_product(complete(2), complete(3))))
    code, out, _ = run(capsys, "aut", "--elements", str(p))
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["order 720, 5 generators", "()", "(4 5)", "(3 4)"]
    assert len(lines) == 721
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3e3123a1a58b40c0fd70a8e807b19487caaf9dd7f44c84c7ef81f5b84d80b790"
