"""Golden digest of the rows `lexidis bounds` prints.

Each call of ``_bounds_rows`` is one line: its tag and the rows it returns,
each row's items in the order they were inserted, since the human output
prints a row's keys in that order.  The calls are every ordered pair of
networkx-atlas graphs on 1-5 vertices, each of those graphs alone with
k = 1, 2, 3, and spider(3..5) with a single edge.  Together they reach
every row and every skip reason, which the test also checks.
"""
from __future__ import annotations

import hashlib

from lexidis import Graph, complete, spider
from lexidis.cli import _bounds_rows

DIGEST = "134c2fdc53bfc533431fea7d6430825566f4f1aff2cb743c63fcccb98c2cde07"


def _atlas() -> list[Graph]:
    from networkx.generators.atlas import graph_atlas_g

    # atlas indices 1..52 are the graphs on 1-5 vertices
    return [Graph(a.number_of_nodes(), a.edges()) for a in graph_atlas_g()[1:53]]


def cases() -> list[tuple[str, list[dict]]]:
    """(tag, rows) for every call, in a fixed order."""
    atlas = _atlas()
    out = [(f"A{i}[A{j}]", _bounds_rows(g, h, None))
           for i, g in enumerate(atlas) for j, h in enumerate(atlas)]
    out += [(f"A{i}^{k}", _bounds_rows(g, None, k)) for i, g in enumerate(atlas) for k in (1, 2, 3)]
    out += [(f"spider{nb}[K2]", _bounds_rows(spider(nb), complete(2), None)) for nb in (3, 4, 5)]
    return out


def case_lines(got: list[tuple[str, list[dict]]]) -> list[str]:
    """One line per call, for a diff when the digest moves."""
    return [f"{tag} -> {[list(r.items()) for r in rows]!r}" for tag, rows in got]


def test_bounds_rows_are_pinned():
    got = cases()
    assert len(got) == 52 * 52 + 52 * 3 + 3
    outcomes = {(r["bound"], r.get("skipped")) for _, rows in got for r in rows}
    assert outcomes == {
        ("product-vertex-range", None),
        ("product-vertex-range", "factors must be connected"),
        ("product-vertex-stepwise", None),
        ("product-vertex-stepwise", "needs the wreath action"),
        ("product-edge-max", None),
        ("product-edge-max", "second factor is a single edge"),
        ("product-edge-max", "edgeless factor has no edge index"),
        ("product-edge-max", "first factor is a single edge"),
        ("product-edge-max", "needs the wreath action"),
        ("product-edge-two-labels", None),
        ("product-edge-two-labels", "needs 2 <= |V(G)| <= |E(H)|+1 and the wreath action"),
        ("single-edge-bundles", None),
        ("single-edge-bundles", "edgeless factor has no edge index"),
        ("single-edge-bundles", "needs no closed twins in G"),
        ("single-edge-bundles", "needs at most one isolated vertex in G"),
        ("spider-single-edge-exact", None),
        ("power-vertex-range", None),
        ("power-vertex-range", "G must be connected"),
        ("power-vertex-range", "needs the wreath action on the square"),
        ("power-edge-two-labels", None),
        ("power-edge-two-labels", "edgeless factor has no edge index"),
    }
    digest = hashlib.sha256("\n".join(case_lines(got)).encode()).hexdigest()
    assert digest == DIGEST
