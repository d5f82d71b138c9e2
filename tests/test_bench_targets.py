"""The benchmark's tracer wraps named functions in each layer module; a
refactor that drops or moves one must fail here, not only in the tracer's
own self-test.  The tracer source is read, never imported or changed."""
import importlib
import inspect
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrap_target_resolves():
    expected = runpy.run_path(str(TRACING))["EXPECTED"]
    assert "Graph.__init__" in expected["graph"]
    assert "lex_product" in expected["lexprod"]
    assert "SearchStats" in expected["autosearch"]
    missing = []
    for layer, names in expected.items():
        mod = importlib.import_module(f"lexidis.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            obj = vars(vars(mod).get(owner, object) if owner else mod).get(attr)
            kind = inspect.isclass if name == "SearchStats" else inspect.isfunction
            # defined in the layer's own module, so its spans count for that layer
            if not (kind(obj) and obj.__module__ == mod.__name__):
                missing.append(f"lexidis.{layer}.{name}")
    assert missing == []


def test_tracer_sees_every_verbs_library_call(tmp_path, capsys):
    # a table that holds a library function itself, not a call through the
    # module global, hides that call from the tracer
    from lexidis import cli
    from lexidis.formats import write_edge_list
    from lexidis.graph import path

    p3, p4 = tmp_path / "p3.el", tmp_path / "p4.el"
    p3.write_text(write_edge_list(path(3)))
    p4.write_text(write_edge_list(path(4)))
    vlab, elab = tmp_path / "v.txt", tmp_path / "e.txt"
    vlab.write_text("v 0 1\nv 1 1\nv 2 2\n")
    elab.write_text("e 0 1 1\ne 1 2 1\ne 2 3 2\n")
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    try:
        tracer.install()
        for argv in (["dnum", p3], ["dindex", p4], ["verify", p3, vlab], ["verify", p4, elab],
                     ["label", "--method", "thm36", p3, p3, "--certify"],
                     ["label", "--method", "thm31", p4, p3, "--certify"], ["aut", p4]):
            assert cli.main([str(a) for a in argv]) == 0
        mark = len(tracer.spans)
        assert cli.main(["aut", "--elements", str(p4)]) == 0
        bounds = len(tracer.spans)
        # the per-call caches of `bounds` call the module globals the tracer wraps
        assert cli.main(["bounds", str(p3), str(p3), "--power", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    seen = {rec[1] for rec in tracer.spans}
    assert seen >= {"distinguishing_number", "distinguishing_index", "find_preserving",
                    "find_preserving_edges", "two_label_edge_labeling",
                    "is_distinguishing_edges", "automorphism_group"}
    # a construction takes its factor witnesses from the oracle's module global
    inherited = {i for i, rec in enumerate(tracer.spans) if rec[1] == "inherited_edge_labeling"}
    assert inherited
    assert any(rec[1] == "distinguishing_index" and rec[4] in inherited for rec in tracer.spans)
    # `aut --elements` lists the group through `closure`, whose result is
    # what permgroup.elements counts: the 2 automorphisms of P4
    assert {rec[1] for rec in tracer.spans[mark:bounds]} >= {"automorphism_group", "closure"}
    assert tracer.counts["permgroup.elements"] == 2
    # called by `bounds` itself, not only inside power_distinguishing_bounds
    assert tracer.spans[bounds][1] == "main"
    assert {rec[1] for rec in tracer.spans if rec[4] == bounds} >= {
        "distinguishing_number", "distinguishing_index", "sabidussi_equal"}


# the autosearch.nodes and .refinements the tracer reports for one oracle
# question: its sums over every SearchStats the question makes
TRACED_ORACLE_WORK = {
    ("dnum", "spider6"): (20, 41),
    ("dindex", "spider6"): (20, 45),
    ("dnum", "K3[C4]"): (20, 40),
    ("dindex", "K3[C4]"): (14, 39),
}


def test_tracer_sums_each_oracle_questions_search_work(tmp_path, capsys):
    from lexidis import cli
    from lexidis.formats import write_edge_list
    from lexidis.graph import complete, cycle, spider
    from lexidis.lexprod import lex_product

    files = {"spider6": tmp_path / "spider6.el", "K3[C4]": tmp_path / "k3c4.el"}
    files["spider6"].write_text(write_edge_list(spider(6)))
    files["K3[C4]"].write_text(write_edge_list(lex_product(complete(3), cycle(4))))
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    got = {}
    try:
        tracer.install()
        for verb, name in TRACED_ORACLE_WORK:
            before = tracer.counts["autosearch.nodes"], tracer.counts["autosearch.refinements"]
            tracer.begin(f"{verb}:{name}")
            assert cli.main([verb, str(files[name])]) == 0
            tracer.end()
            got[verb, name] = (tracer.counts["autosearch.nodes"] - before[0],
                               tracer.counts["autosearch.refinements"] - before[1])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    assert got == TRACED_ORACLE_WORK
