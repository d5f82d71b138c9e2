"""Each `bounds` row a construction witnesses agrees with that construction.

Where the row is printed with a value, the construction, fed the oracles'
witnesses, certifies with at most the row's ``upper`` labels.  Where the
row is printed as skipped, the construction refuses with the row's reason.
The pairs are every ordered pair of networkx-atlas graphs on 1-5 vertices,
and the powers every such graph with k = 2, 3 and |V|^k <= 125.
"""
from __future__ import annotations

import functools

import pytest

from lexidis import (
    Graph,
    complete,
    distinguishing_index,
    distinguishing_number,
    inherited_edge_labeling,
    is_distinguishing,
    is_distinguishing_edges,
    lex_power,
    lex_product,
    p2_product_edge_labeling,
    pattern_product_labeling,
    power_edge_labeling,
    two_label_edge_labeling,
)
from lexidis.cli import _bounds_rows

from .test_bounds_pins import _atlas


@functools.cache
def _d_witness(g: Graph) -> list[int]:
    return distinguishing_number(g)[1]


@functools.cache
def _dp_witness(g: Graph) -> dict:
    # an edgeless graph has no index; each row refuses it before reading lg
    return distinguishing_index(g)[1] if g.m else {}


# row -> (construction of G and H, whether it labels vertices)
PRODUCT_ROWS = {
    "product-vertex-stepwise": (
        lambda g, h: pattern_product_labeling(g, h, _d_witness(g), _d_witness(h)), True),
    "product-edge-max": (
        lambda g, h: inherited_edge_labeling(g, h, _dp_witness(g), _dp_witness(h)), False),
    "product-edge-two-labels": (two_label_edge_labeling, False),
    "single-edge-bundles": (lambda g, h: p2_product_edge_labeling(g, _dp_witness(g)), False),
}


def _check(row: dict, build, prod_of, vertex: bool) -> str:
    """Whether ``build`` agrees with the printed ``row``; '' when it does."""
    if "skipped" in row:
        try:
            build()
        except ValueError as exc:
            return "" if str(exc) == row["skipped"] else f"refused with {exc!s}"
        return "built a labeling"
    labels = build()
    ok = (is_distinguishing if vertex else is_distinguishing_edges)(prod_of(), labels)
    used = max(labels if vertex else labels.values(), default=0)
    if not ok:
        return "labeling refuted"
    return "" if used <= row["upper"] else f"{used} labels > upper={row['upper']}"


def test_product_rows_match_their_constructions():
    atlas = _atlas()
    wrong = []
    for i, g in enumerate(atlas):
        for j, h in enumerate(atlas):
            for row in _bounds_rows(g, h, None):
                if row["bound"] not in PRODUCT_ROWS:
                    continue
                build, vertex = PRODUCT_ROWS[row["bound"]]
                why = _check(row, lambda: build(g, h), lambda: lex_product(g, h), vertex)
                if why:
                    wrong.append(f"A{i}[A{j}] {row['bound']}: {why}")
    assert wrong == []


@pytest.mark.parametrize("k", [2, 3])
def test_power_rows_match_their_construction(k):
    wrong = []
    for i, g in enumerate(_atlas()):
        if g.n ** k > 125:
            continue
        for row in _bounds_rows(g, None, k):
            if row["bound"] == "power-edge-two-labels" or "skipped" in row:
                why = _check(row, lambda: power_edge_labeling(g, k), lambda: lex_power(g, k), False)
                if why:
                    wrong.append(f"A{i}^{k} {row['bound']}: {why}")
    assert wrong == []


def test_single_edge_bundles_certify_wherever_the_construction_builds():
    # every atlas graph on at most 7 vertices that the construction accepts
    from networkx.generators.atlas import graph_atlas_g

    k2 = complete(2)
    wrong = []
    for i, a in enumerate(graph_atlas_g()):
        g = Graph(a.number_of_nodes(), a.edges())
        try:
            labels = p2_product_edge_labeling(g, _dp_witness(g))
        except ValueError:
            continue
        if not is_distinguishing_edges(lex_product(g, k2), labels):
            wrong.append(i)
    assert wrong == []


def test_a_zero_vertex_factor_gets_no_product_vertex_bound(tmp_path, capsys):
    # G[H] has no vertex when a factor has none, so D(G[H]) = 1: each
    # printed product-vertex bound must hold against that, and the stepwise
    # construction refuses with the reason the range row prints
    from lexidis.cli import main

    empty = Graph(0)
    wrong = []
    for i, g in enumerate(_atlas()[:18]):  # the graphs on 1-4 vertices
        for tag, a, b in ((f"E[A{i}]", empty, g), (f"A{i}[E]", g, empty)):
            d = distinguishing_number(lex_product(a, b))[0]
            rows = {r["bound"]: r for r in _bounds_rows(a, b, None)}
            for name in ("product-vertex-range", "product-vertex-stepwise"):
                row = rows.get(name, {})
                if not row.get("lower", 1) <= d <= row.get("upper", d):
                    wrong.append(f"{tag} {name}: {row}")
            with pytest.raises(ValueError) as exc:
                pattern_product_labeling(a, b)
            if str(exc.value) != rows["product-vertex-range"].get("skipped"):
                wrong.append(f"{tag} refused with {exc.value!s}")
    assert wrong == []
    (tmp_path / "e.el").write_text("p 0 0\n")
    (tmp_path / "k2.el").write_text("p 2 1\ne 0 1\n")
    assert main(["label", "--method", "thm22", str(tmp_path / "e.el"),
                 str(tmp_path / "k2.el")]) == 2
    assert capsys.readouterr().err == "error: factors need at least one vertex\n"
