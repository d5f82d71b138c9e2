"""Metamorphic referees for ``automorphism_group`` on graphs of 8-40 vertices
with planted modules, sizes that brute force cannot reach.  Each graph is a
product G[H], a union with repeated components, or a graph grown by twin
copies, and three relations must hold:

- |Aut G| = |Aut Ḡ|: the complement turns open twins into closed ones, so
  each merge kind referees the other;
- the order does not change under a random relabeling;
- the order equals that of the whole-graph search, with no twin merging.

Hypothesis draws the factors as edge bitmasks, so a failure shrinks to a
small graph; the runs are derandomized, so tier-1 sees the same graphs.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from lexidis import Graph, lex_product
from lexidis.autosearch import SearchStats, automorphism_group
from lexidis.graph import complement

from .util import whole_graph_group


@st.composite
def _graphs(draw, low, high):
    """A graph on low..high vertices, its edges one bitmask over the pairs."""
    n = draw(st.integers(low, high))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edge_list()]
        n += g.n
    return Graph(n, edges)


@st.composite
def _twin_copies(draw, base=(5, 12), copies=(3, 20)):
    """A graph on ``base`` vertices grown by ``copies`` vertex copies, each
    an open or a closed twin of a vertex already there, copies included."""
    g = draw(_graphs(*base))
    rows = list(g.adjacency_bits)
    for _ in range(draw(st.integers(*copies))):
        v = draw(st.integers(0, len(rows) - 1))
        w = len(rows)
        row = rows[v] | (1 << v if draw(st.booleans()) else 0)
        for u in range(w):
            if row >> u & 1:
                rows[u] |= 1 << w
        rows.append(row)
    return Graph(len(rows), [(u, v) for v, row in enumerate(rows) for u in range(v)
                             if row >> u & 1])


_PLANTED = st.one_of(
    st.builds(lex_product, _graphs(2, 5), _graphs(4, 8)),
    st.builds(lambda c, k, rest: _union(*[c] * k, rest),
              _graphs(4, 8), st.integers(2, 4), _graphs(0, 8)),
    _twin_copies(),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_PLANTED, st.randoms(use_true_random=False))
def test_aut_order_is_invariant_and_matches_the_whole_graph_search(g, rng):
    assert 8 <= g.n <= 40
    order = automorphism_group(g)[2]
    assert automorphism_group(complement(g))[2] == order
    perm = rng.sample(range(g.n), g.n)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])
    assert automorphism_group(relabeled)[2] == order
    assert whole_graph_group(g, SearchStats())[2] == order
