import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexidis
from lexidis import Graph, complete, cycle, distinguishing_index, lex_product, path, spider
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
    # the cap bounds the element listing, never the order
    code, out, err = run(capsys, "aut", str(p), "--cap", "10")
    assert (code, out, err) == (0, "order 120, 4 generators\n", "")
    code, out, err = run(capsys, "aut", str(p), "--cap", "10", "--elements")
    assert (code, out, err) == (3, "", "error: cap exceeded: at least 11 elements\n")
    # a zero cap is a usage error, not a fall-back to the default cap
    code, _, err = run(capsys, "aut", str(p), "--cap", "0")
    assert code == 2
    assert "cap must be positive" in err


@pytest.mark.parametrize("verb", ["dnum", "dindex"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_rejects_nonpositive_cap(tmp_path, capsys, verb, cap):
    p = tmp_path / "k3.el"
    p.write_text(write_edge_list(complete(3)))
    code, out, err = run(capsys, verb, str(p), "--cap", cap)
    assert code == 2 and out == ""
    assert err == "error: cap must be positive\n"


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


def test_verify_edge_labeling_with_isolated_vertices(tmp_path, capsys):
    # K2 plus nine isolated vertices: the searches that swept the 2 * 9!
    # automorphisms fixing the edge took seconds and grew tenfold per vertex
    g = tmp_path / "k2_9k1.el"
    g.write_text(write_edge_list(Graph(11, [(0, 1)])))
    lab = tmp_path / "lab.txt"
    lab.write_text("e 0 1 1\n")
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


def test_bounds_runs_each_oracle_once_per_factor(tmp_path, capsys, monkeypatch):
    # G = H = P3: D(P3) and D'(P3) are read by several rows and by the power
    # row; every module that binds an oracle is counted, constructions too
    from lexidis import cli, constructions, distinguishing

    calls = []

    def counted(name, oracle):
        def call(g, *args, **kwargs):
            calls.append((name, g))
            return oracle(g, *args, **kwargs)
        return call

    for name in ("distinguishing_number", "distinguishing_index"):
        oracle = getattr(distinguishing, name)
        for module in (cli, constructions):
            if vars(module).get(name) is oracle:
                monkeypatch.setattr(module, name, counted(name, oracle))
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    code, out, _ = run(capsys, "bounds", str(g), str(g), "--power", "2")
    assert code == 0 and "product-edge-max: upper=2" in out
    assert sorted(calls) == [("distinguishing_index", path(3)), ("distinguishing_number", path(3))]


def test_bounds_two_label_row_needs_two_base_vertices(tmp_path, capsys):
    files = {}
    for name, g in (("K1", complete(1)), ("P3", path(3)), ("K3", complete(3))):
        files[name] = tmp_path / f"{name}.el"
        files[name].write_text(write_edge_list(g))
    skipped = "needs 2 <= |V(G)| <= |E(H)|+1 and the wreath action"
    # K1[K3] = K3 has index 3, and K1[K1] has no edge at all
    for h in ("K3", "K1"):
        code, out, _ = run(capsys, "--json", "bounds", str(files["K1"]), str(files[h]))
        assert code == 0
        rows = {r["bound"]: r for r in map(json.loads, out.splitlines())}
        assert rows["product-edge-two-labels"] == {
            "bound": "product-edge-two-labels", "command": "bounds", "skipped": skipped}
    code, out, _ = run(capsys, "bounds", str(files["P3"]), str(files["P3"]))
    assert code == 0
    assert "product-edge-two-labels: upper=2  [2 <= |V(G)| <= |E(H)|+1]" in out.splitlines()
    # the construction refuses a one-vertex base with the row's reason
    for h in ("K3", "K1"):
        code, out, err = run(capsys, "label", "--method", "thm36", str(files["K1"]),
                             str(files[h]), "--certify")
        assert (code, out, err) == (2, "", f"error: {skipped}\n")


def test_label_thm35_refuses_two_isolated_vertices(tmp_path, capsys):
    # P3 + 2K1: the bundle labeling of G[K2] would leave its two K2 components swappable
    g = tmp_path / "g.el"
    g.write_text("p 5 2\ne 0 1\ne 1 2\n")
    code, out, err = run(capsys, "label", "--method", "thm35", str(g), "--certify")
    assert (code, out, err) == (2, "", "error: needs at most one isolated vertex in G\n")


@pytest.mark.parametrize("method, graphs, row", [
    # K1 has no edge: the row's reason, not the D' oracle's on K1
    ("thm31", ("p 1 0\n", "p 3 2\ne 0 1\ne 1 2\n"), "product-edge-max"),
    ("thm35", ("p 1 0\n",), "single-edge-bundles"),
    # K3[K2] is K6, whose group exceeds the wreath action
    ("thm22", ("p 3 3\ne 0 1\ne 0 2\ne 1 2\n", "p 2 1\ne 0 1\n"), "product-vertex-stepwise"),
], ids=["thm31-K1", "thm35-K1", "thm22-K3-K2"])
def test_label_refuses_with_the_reason_bounds_prints(tmp_path, capsys, monkeypatch, method,
                                                     graphs, row):
    # a label method checks its bounds row's hypotheses before any oracle
    from lexidis import cli

    files = []
    for i, text in enumerate(graphs):
        files.append(tmp_path / f"g{i}.el")
        files[-1].write_text(text)
    factors = [*map(str, files), *([] if len(files) == 2 else [str(tmp_path / "k2.el")])]
    (tmp_path / "k2.el").write_text("p 2 1\ne 0 1\n")
    code, out, err = run(capsys, "bounds", *factors)
    assert (code, err) == (0, "")
    (reason,) = [line[len(row) + len(": n/a ("):-1] for line in out.splitlines()
                 if line.startswith(f"{row}: n/a")]

    def no_oracle(*_args):
        raise AssertionError("ran an oracle before the row's hypotheses")

    monkeypatch.setattr(cli, "_exact", no_oracle)
    code, out, err = run(capsys, "label", "--method", method, *map(str, files), "--certify")
    assert (code, out, err) == (2, "", f"error: {reason}\n")


# asymmetric, with H and its complement connected, so K2[H] has the wreath action
ASYM_H = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 5), (3, 4), (4, 5)])


def test_single_edge_base_breaks_the_edge_max_bound():
    # the copy swap of K2[H] survives the one label that pins K2 and H
    assert distinguishing_index(ASYM_H)[0] == distinguishing_index(complete(2))[0] == 1
    assert distinguishing_index(lex_product(complete(2), ASYM_H))[0] == 2


@pytest.mark.parametrize("graphs, power, line", [
    # two isolated vertices have no closed twins; the row is skipped for the empty edge set
    (("p 2 0\n", "p 2 1\ne 0 1\n"), (),
     "single-edge-bundles: n/a (edgeless factor has no edge index)"),
    (("p 3 3\ne 0 1\ne 0 2\ne 1 2\n", "p 2 1\ne 0 1\n"), (),
     "single-edge-bundles: n/a (needs no closed twins in G)"),
    # K1 + K2 has the wreath action on its square; the power bound needs G connected
    (("p 3 1\ne 1 2\n",), ("--power", "2"), "power-vertex-range: n/a (G must be connected)"),
    # D'(K2[H]) = 2 for this asymmetric H, though max{D'(K2), D'(H)} = 1
    (("p 2 1\ne 0 1\n", write_edge_list(ASYM_H)), (), "product-edge-max: n/a (first factor is a single edge)"),
    # K1^k = K1 has no edge to label
    (("p 1 0\n",), ("--power", "2"),
     "power-edge-two-labels: n/a (edgeless factor has no edge index)"),
    # K1,2 + 3K1: D'(G[K2]) = 3, one above the bundle budget, as its K2 components can swap
    (("p 6 2\ne 0 1\ne 0 2\n", "p 2 1\ne 0 1\n"), (),
     "single-edge-bundles: n/a (needs at most one isolated vertex in G)"),
], ids=["edgeless-G", "closed-twins", "disconnected-power", "single-edge-G", "edgeless-power",
        "isolated-vertices"])
def test_bounds_skip_reason_names_the_failed_condition(tmp_path, capsys, graphs, power, line):
    files = []
    for i, text in enumerate(graphs):
        files.append(tmp_path / f"g{i}.el")
        files[-1].write_text(text)
    code, out, err = run(capsys, "bounds", *map(str, files), *power)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


@pytest.mark.parametrize("name, g", [("P3", path(3)), ("K3", complete(3))])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_bounds_rejects_nonpositive_power(tmp_path, capsys, name, g, k):
    f = tmp_path / f"{name}.el"
    f.write_text(write_edge_list(g))
    for argv in (("bounds", str(f), "--power", k), ("bounds", str(f), str(f), "--power", k)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: k must be positive\n")


@pytest.mark.parametrize("n, digest", [
    (3, "e76b1dcc817d8ca8337cd2f7967051dece94b65617eb80598a744b66959e1ba5"),
    (4, "bd2a7668a0060b9a2f27aacef7d5c7fa45d46d04ef976449fdeae82dea0627a0"),
])
def test_label_prop34_one_vertex_factor(tmp_path, capsys, n, digest):
    # P_n[K1] is P_n: all edges 1 but the last, which breaks the flip
    k1 = tmp_path / "K1.el"
    k1.write_text(write_edge_list(complete(1)))
    out_file = tmp_path / "lab.txt"
    code, out, err = run(capsys, "--json", "label", "--method", "prop34", str(k1),
                         "--n", str(n), "-o", str(out_file), "--certify")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"certified": True, "command": "label",
                               "labels_used": 2, "method": "prop34"}
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("argv", [["gen", "--family", "path", "--n", "5000"], ["dnum", "@"]],
                         ids=["gen", "dnum"])
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, argv):
    # the reader has left before the first write; exit 1 would claim a negative verification
    g = tmp_path / "k4.el"
    g.write_text(write_edge_list(complete(4)))
    src = Path(lexidis.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "lexidis", *[str(g) if a == "@" else a for a in argv]],
                              env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, "error: standard output was closed\n")


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["gen", "--family", "nope", "--n", "3"]) == 2
    missing = tmp_path / "missing.el"
    code, _, err = run(capsys, "dnum", str(missing))
    assert code == 2 and "no such file" in err
    bad = tmp_path / "bad.el"
    bad.write_text("e 0 1\n")
    code, _, err = run(capsys, "dnum", str(bad))
    assert code == 2 and "line 1" in err


def test_graph6_file_with_two_records_exits_2(tmp_path, capsys):
    # K3 then C5: answering for K3 alone would print D = 3
    g = tmp_path / "two.g6"
    g.write_text("Bw\nDQc\n")
    assert run(capsys, "dnum", str(g)) == (
        2, "", f"error: {g}: line 2: second graph6 record; one graph per input\n")


def _stdin(monkeypatch, data: bytes):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    _stdin(monkeypatch, (write_graph6(complete(4)) + "\n").encode())
    code, out, _ = run(capsys, "dnum", "-")
    assert code == 0 and "D = 4" in out


def test_stdin_gets_the_ascii_check_files_get(tmp_path, capsys, monkeypatch):
    # int() would read the Arabic-Indic digit three as 3
    g = tmp_path / "k2.el"
    g.write_text(write_edge_list(complete(2)))
    _stdin(monkeypatch, b"v 0 1\nv 1 \xd9\xa3\n")
    assert run(capsys, "verify", str(g), "-") == (
        2, "", "error: -: line 2: byte 0xd9 is not ASCII\n")


@pytest.mark.parametrize("bad", ["v 2 0_3", "v 2 +3", "e 0 1_0 1"])
def test_labeling_fields_are_plain_integers(tmp_path, capsys, bad):
    g = tmp_path / "k3.el"
    g.write_text(write_edge_list(complete(3)))
    lab = tmp_path / "lab.txt"
    lab.write_text(f"v 0 1\nv 1 2\n{bad}\n")
    assert run(capsys, "verify", str(g), str(lab)) == (
        2, "", f"error: {lab}: line 3: expected 'v <i> <label>' or 'e <u> <v> <label>'\n")


def test_env_cap_override(tmp_path, capsys, monkeypatch):
    # --cap alone bounds the listing; the environment sets no cap
    p = tmp_path / "k5.el"
    p.write_text(write_edge_list(complete(5)))
    monkeypatch.delenv("LEXIDIS_CAP", raising=False)
    plain = [run(capsys, *argv, str(p)) for argv in (["aut"], ["aut", "--elements"])]
    assert plain[0][0] == 0 and plain[0][1].startswith("order 120,")
    assert plain[1][0] == 0 and len(plain[1][1].splitlines()) == 121
    monkeypatch.setenv("LEXIDIS_CAP", "boom")
    assert [run(capsys, *argv, str(p)) for argv in (["aut"], ["aut", "--elements"])] == plain


@pytest.mark.parametrize("option, value, argv", [
    ("--n", "1_0", ["gen", "--family", "path"]),
    ("--n", "\u0663", ["gen", "--family", "path"]),
    ("--power", "+2", ["product", "@k2.el"]),
    ("--cap", "\u0663", ["aut", "@k2.el"]),
])
def test_integer_options_take_plain_digits_only(tmp_path, capsys, option, value, argv):
    # int() would read 1_0 as 10, +2 as 2 and the Arabic-Indic digit three as 3
    g = tmp_path / "k2.el"
    g.write_text(write_edge_list(complete(2)))
    argv = [str(g) if a == "@k2.el" else a for a in argv]
    code, out, err = run(capsys, *argv, option, value)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")


def test_dindex_answers_past_the_aut_cap(tmp_path, capsys):
    # |Aut(K2[K5])| = 10! is past the listing cap, but dindex lists no group
    p = tmp_path / "k2k5.el"
    p.write_text(write_edge_list(lex_product(complete(2), complete(5))))
    code, out, _ = run(capsys, "--json", "dindex", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert len(payload["witness"]) == 45


def test_aut_refusal_reports_cap_plus_one(tmp_path, capsys):
    p = tmp_path / "k4k4.el"
    p.write_text(write_edge_list(lex_product(complete(4), complete(4))))
    # the order comes from strong generators, so 16! needs no listing
    code, out, _ = run(capsys, "--json", "aut", "--cap", "1000", str(p))
    assert code == 0
    payload = json.loads(out)
    assert (payload["order"], len(payload["generators"])) == (math.factorial(16), 15)
    # only the listing is refused, by the one cap error every listing raises
    code, out, err = run(capsys, "--json", "aut", "--cap", "1000", "--elements", str(p))
    assert (code, out, err) == (3, "", "error: cap exceeded: at least 1001 elements\n")
    code, out, err = run(capsys, "aut", "--cap", "9", "--elements", str(p))
    assert (code, out, err) == (3, "", "error: cap exceeded: at least 10 elements\n")
    # a group of exactly the cap's size is listed
    c5 = tmp_path / "c5.el"
    c5.write_text(write_edge_list(cycle(5)))
    code, out, _ = run(capsys, "--json", "aut", "--cap", "10", "--elements", str(c5))
    assert code == 0
    payload = json.loads(out)
    assert (payload["order"], len(payload["elements"])) == (10, 10)


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


def test_aut_elements_runs_one_group_search(tmp_path, capsys, monkeypatch):
    # the listing closes the generators of the one group computation and
    # sorts them by one walk down the whole graph's first path; a refused
    # listing costs no second computation and no walk.  K2[C4] is a cograph,
    # so the group computation searches a one-node quotient
    from lexidis import autosearch, cli

    p = tmp_path / "k2c4.el"
    p.write_text(write_edge_list(lex_product(complete(2), cycle(4))))
    calls = []
    group = cli.automorphism_group
    generators = autosearch._Search.generators
    first_path = autosearch._Search.first_path

    def counted_group(g, stats=None):
        calls.append(("group", g.n))
        return group(g, stats)

    def counted_generators(self):
        calls.append(("search", self.n))
        return generators(self)

    def counted_first_path(self):
        calls.append(("first path", self.n))
        return first_path(self)

    monkeypatch.setattr(cli, "automorphism_group", counted_group)
    monkeypatch.setattr(autosearch._Search, "generators", counted_generators)
    monkeypatch.setattr(autosearch._Search, "first_path", counted_first_path)
    code, out, _ = run(capsys, "aut", "--elements", str(p))
    assert code == 0 and out.startswith("order 384, ") and len(out.splitlines()) == 385
    assert calls == [("group", 8), ("search", 1), ("first path", 1), ("first path", 8)]
    calls.clear()
    code, out, err = run(capsys, "aut", "--elements", "--cap", "1", str(p))
    assert (code, out, err) == (3, "", "error: cap exceeded: at least 2 elements\n")
    assert calls == [("group", 8), ("search", 1), ("first path", 1)]


def test_aut_of_a_thousand_isolated_vertices(tmp_path, capsys):
    # all 1 000 vertices are open twins: one merge, no search below it
    p = tmp_path / "k1000.el"
    p.write_text("p 1000 0\n")
    code, out, _ = run(capsys, "aut", str(p))
    assert (code, out) == (0, f"order {math.factorial(1000)}, 999 generators\n")
    code, out, _ = run(capsys, "--json", "aut", str(p))
    got = json.loads(out)
    assert code == 0 and got["order"] == math.factorial(1000)
    assert got["generators"] == [f"({v} {v + 1})" for v in range(999)]


# One small input per label method, pinned before the method table replaced
# the if/elif chain: sha256 of the labeling text, and the --json --certify line.
LABEL_PINS = {
    "thm21": (("P3", "P3"), (), 6,
              "056c3566ebef43106b089bfcafb319529d660227b9c52151de208d1913558fbe"),
    "thm22": (("P3", "P3"), (), 3,
              "36657ae0b06f268fb3c2a150993015bc7bab8ef673fd10a165d2d0e597ea01ac"),
    "thm31": (("P4", "P3"), (), 2,
              "d0532ba0c2e6e25f976e1e9e763f1ce8697bc6fa241d3f5f1f6c01c701e30435"),
    "prop32": (("P3",), (), 2,
               "f84b1651e19513b0c4a59b807ca638d6f5e3dc4f4475cac22b47d8b18a1c04c5"),
    "prop33": (("P3",), ("--n", "3"), 2,
               "0d50ef83eb3762826f732fe7d5c8cd0cf859fe735ae5d0515f7695e51c8d61a0"),
    "prop34": (("P3",), ("--n", "3"), 2,
               "941ddb07ecf59a649bda9b77a24ebc3626c846648ff365e881fffddd8aefe0fe"),
    "thm35": (("P4",), (), 2,
              "db76ba3c4b8c03838e04beb9249a14cab9941f2f9ea3221ce192cc2f177707d8"),
    "thm36": (("P3", "P3"), (), 2,
              "497491c5326eaa1e13ee248fa6b34181d055e175ec13de4cd525f8dc660632ab"),
    "power": (("P3",), ("--power", "2"), 2,
              "497491c5326eaa1e13ee248fa6b34181d055e175ec13de4cd525f8dc660632ab"),
}


def _factor_files(tmp_path):
    out = {}
    for name, g in (("P3", path(3)), ("P4", path(4))):
        out[name] = tmp_path / f"{name}.el"
        out[name].write_text(write_edge_list(g))
    return out


def test_label_methods_cover_the_pins():
    from lexidis.cli import LABEL_METHODS

    assert set(LABEL_METHODS) == set(LABEL_PINS)


@pytest.mark.parametrize("method", sorted(LABEL_PINS))
def test_label_method_output_is_pinned(tmp_path, capsys, method):
    names, opts, used, digest = LABEL_PINS[method]
    files = _factor_files(tmp_path)
    out_file = tmp_path / "lab.txt"
    code, out, err = run(capsys, "--json", "label", "--method", method,
                         *[str(files[g]) for g in names], *opts, "-o", str(out_file), "--certify")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"certified": True, "command": "label",
                               "labels_used": used, "method": method}
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
    # without -o the same text goes to stdout
    code, out, _ = run(capsys, "label", "--method", method,
                       *[str(files[g]) for g in names], *opts)
    assert code == 0 and out == out_file.read_text()


@pytest.mark.parametrize("method", ["thm21", "thm22", "thm31", "prop33", "thm35"])
def test_label_checks_each_row_and_factor_witness_once(tmp_path, capsys, monkeypatch, method):
    # the verb checks the method's bounds row, and each factor witness comes
    # from an oracle's exhaustive search: no construction checks either again
    from lexidis import constructions as cons
    from lexidis.cli import LABEL_METHODS

    calls = {}
    for name in ("_require", "is_distinguishing", "is_distinguishing_edges"):
        def counted(*args, _name=name, _real=getattr(cons, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(cons, name, counted)
    names, opts, _, _ = LABEL_PINS[method]
    files = _factor_files(tmp_path)
    code, out, err = run(capsys, "--json", "label", "--method", method,
                         *[str(files[g]) for g in names], *opts, "-o", str(tmp_path / "lab.txt"),
                         "--certify")
    assert (code, err) == (0, "") and json.loads(out)["certified"]
    assert calls == ({} if LABEL_METHODS[method][2] is None else {"_require": 1})


@pytest.mark.parametrize("method", sorted(LABEL_PINS))
def test_label_wrong_graph_count_exits_2(tmp_path, capsys, method):
    names, opts, _, _ = LABEL_PINS[method]
    p3 = _factor_files(tmp_path)["P3"]
    wrong = 3 - len(names)
    code, out, err = run(capsys, "label", "--method", method, *[str(p3)] * wrong, *opts)
    assert (code, out) == (2, "")
    assert err == f"error: method {method} takes {len(names)} graph input(s), got {wrong}\n"


@pytest.mark.parametrize("method, message", [
    ("prop33", "method prop33 needs --n for the star size"),
    ("prop34", "method prop34 needs --n for the path length"),
    ("power", "method power needs --power k"),
])
def test_label_missing_option_exits_2(tmp_path, capsys, method, message):
    p3 = _factor_files(tmp_path)["P3"]
    code, out, err = run(capsys, "label", "--method", method, str(p3))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    # a directory where a file is expected is a usage error naming the path
    code, out, err = run(capsys, "dnum", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path}: cannot read")
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    code, out, err = run(capsys, "verify", str(g), str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path}: cannot read")


def test_non_ascii_inputs_exit_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_bytes("p 2 1\ne 0 1 # café\n".encode())
    expected = f"error: {bad}: line 2: byte 0xc3 is not ASCII\n"
    code, out, err = run(capsys, "dnum", str(bad))
    assert (code, out, err) == (2, "", expected)
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    code, out, err = run(capsys, "verify", str(g), str(bad))
    assert (code, out, err) == (2, "", expected)


def test_bounds_refuses_a_third_graph(tmp_path, capsys):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    # the third input is refused before any file is read, even a missing one
    for third in (g, tmp_path / "missing.el"):
        code, out, err = run(capsys, "bounds", str(g), str(g), str(third))
        assert (code, out, err) == (2, "", "error: bounds takes one or two input graphs, got 3\n")


def test_dnum_answers_on_a_long_path(tmp_path, capsys):
    # one labeled position per vertex: the walker must not recurse per position
    g = tmp_path / "p1100.el"
    g.write_text(write_edge_list(path(1100)))
    code, out, err = run(capsys, "dnum", str(g))
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["D = 2", "v 0 1", "v 1 1"]


@pytest.mark.parametrize("verb", [
    ["gen", "--family", "path", "--n", "3"],
    ["product", "@", "@"],
    ["label", "--method", "thm36", "@", "@"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, verb):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    target = tmp_path / "missing" / "x.txt"
    argv = [str(g) if a == "@" else a for a in verb]
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {target}: cannot write")


@pytest.mark.parametrize("graph, labels, message", [
    ("p 3 0\n", None, "distinguishing index needs at least one edge"),
    ("p 3 2\ne 0 1\ne 1 2\n", "v 0 1\nv 1 0\nv 2 2\n", "vertex 1: label 0 outside 1..2"),
    ("p 3 2\ne 0 1\ne 1 2\n", "e 0 1 0\ne 1 2 1\n", "edge (0, 1): label 0 outside 1..1"),
    ("p 3 2\ne 0 1\ne 1 2\n", "v 0 1\nv 1 1\n", "2 labels for 3 vertices"),
    ("p 3 2\ne 0 1\ne 1 2\n", "e 0 1 1\n", "labeling domain must equal the edge set exactly"),
])
def test_library_value_errors_exit_2(tmp_path, capsys, graph, labels, message):
    # the library's ValueError reaches the user as the same one-line message
    g = tmp_path / "g.el"
    g.write_text(graph)
    if labels is None:
        argv = ["dindex", str(g)]
    else:
        lab = tmp_path / "lab.txt"
        lab.write_text(labels)
        argv = ["verify", str(g), str(lab)]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# The oracle, verify and graph-writing verbs, pinned before one handler took
# over dnum and dindex: sha256 of every case's exit code, stdout (``ms``
# masked), stderr and written file, in order.
VERB_PINS = {
    "dnum": "707774b6a979ca9d20d26847a85b50691774ecc1497a9582dbfaafc45e5b604a",
    "dindex": "7fd544b8584e43bc0cbf1f5ad39a0dd155e36e1cc17ab17bed6f250042b29158",
    "verify": "e3117b6a9df67ca41eaa054ef2e1742277fb49a747107a65e8c453da0f8eff30",
    "gen": "46784cbbedd707a1fd7f0ab82a4de728f2e41fef3da3ea8ea3cee57bf41e2dfa",
    "product": "bec5dc4cf550211813a7f44ce6c0611ecaa52522cf66f785a47151ac8a075936",
}
PIN_GRAPHS = {"P3": path(3), "P4": path(4), "C5": cycle(5), "K3": complete(3),
              "spider3": spider(3), "K2[P3]": lex_product(complete(2), path(3))}
PIN_LABELINGS = {
    "P3": ("v 0 1\nv 1 1\nv 2 2\n", "v 0 1\nv 1 2\nv 2 1\n",
           "e 0 1 1\ne 1 2 2\n", "e 0 1 1\ne 1 2 1\n"),
    "P4": ("v 0 1\nv 1 1\nv 2 1\nv 3 2\n", "v 0 1\nv 1 2\nv 2 2\nv 3 1\n",
           "e 0 1 1\ne 1 2 1\ne 2 3 2\n", "e 0 1 1\ne 1 2 2\ne 2 3 1\n"),
}


def _pin_cases(verb):
    """(argv with @name for files, output file or None) for each pinned case."""
    if verb in ("dnum", "dindex"):
        return [([verb, f"@{name}", *cap], None)
                for name in ("P4", "C5", "K3", "spider3", "K2[P3]")
                for cap in ((), ("--cap", "1"))]
    if verb == "verify":
        return [(["verify", f"@{name}", f"@{name}.{i}"], None)
                for name in PIN_LABELINGS for i in range(4)]
    bases = {"gen": [["gen", "--family", "spider", "--n", "3"]],
             "product": [["product", "@P3", "@P4"], ["product", "@P3", "--power", "2"]]}
    return [([*base, "-o", f"@x.{ext}"], f"x.{ext}")
            for base in bases[verb] for ext in ("g6", "el")]


@pytest.mark.parametrize("verb", sorted(VERB_PINS))
def test_verb_output_is_pinned(tmp_path, capsys, verb):
    for name, g in PIN_GRAPHS.items():
        (tmp_path / name).write_text(write_edge_list(g))
    for name, labelings in PIN_LABELINGS.items():
        for i, text in enumerate(labelings):
            (tmp_path / f"{name}.{i}").write_text(text)
    digest = hashlib.sha256()
    for argv, written in _pin_cases(verb):
        for mode in ((), ("--json",)):
            files = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
            code, out, err = run(capsys, *mode, *files)
            out = re.sub(r'"ms": [-0-9.e+]+', '"ms": 0', out)
            body = (tmp_path / written).read_text() if written else ""
            digest.update(f"{code}\n{out}\n{err}\n{body}\n".encode())
    assert digest.hexdigest() == VERB_PINS[verb]


@pytest.mark.parametrize("records, message", [
    ("v 0\n", "line 1: expected 'v <i> <label>' or 'e <u> <v> <label>'"),
    ("v 0 1\ne 0 1 1\n", "mixed vertex and edge records"),
    ("v 0 1\nv 2 1\n", "vertex labels must cover 0..2"),
    ("# nothing here\n\n", "no labeling records found"),
])
def test_labeling_file_errors_give_exact_messages(tmp_path, capsys, records, message):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    lab = tmp_path / "lab.txt"
    lab.write_text(records)
    assert run(capsys, "verify", str(g), str(lab)) == (2, "", f"error: {lab}: {message}\n")


@pytest.mark.parametrize("verb, count, message", [
    ("product", 2, "--power takes exactly one input graph"),
    ("product", 1, "product takes two input graphs (or one with --power)"),
    ("bounds", 1, "bounds needs a second graph and/or --power k"),
])
def test_graph_count_errors_give_exact_messages(tmp_path, capsys, verb, count, message):
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    power = ["--power", "2"] if count == 2 else []
    assert run(capsys, verb, *[str(g)] * count, *power) == (2, "", f"error: {message}\n")


def test_gen_refuses_an_oversized_graph6_before_encoding(capsys, monkeypatch):
    # star(258047) has one vertex too many for graph6; the writer refuses it
    # before building the 3.3e10-bit body (a stub format() fails fast if not)
    import lexidis.formats as fmt

    def no_format(*_args):
        raise AssertionError("encoded the body of an oversized graph")

    monkeypatch.setattr(fmt, "format", no_format, raising=False)
    assert run(capsys, "gen", "--family", "star", "--n", "258047", "--format", "graph6") == (
        2, "", "error: graph6 writer supports up to 258047 vertices, got 258048\n")


def test_label_certify_exits_1_on_a_wrong_builder(tmp_path, capsys, monkeypatch):
    # --certify checks what a builder returns instead of trusting it
    from lexidis import cli

    monkeypatch.setitem(cli.LABEL_METHODS, "thm21", (
        2, None, None, lambda g, h: ([1] * (g.n * h.n), lex_product(g, h))))
    g = tmp_path / "p3.el"
    g.write_text(write_edge_list(path(3)))
    code, out, err = run(capsys, "--json", "label", "--method", "thm21", str(g), str(g), "--certify")
    assert (code, err) == (1, "")
    assert out.endswith('{"certified": false, "command": "label", "labels_used": 1, '
                        '"method": "thm21"}\n')
