"""Metamorphic referees for the exact oracles on graphs of 8-12 vertices
with planted modules, the products, unions of repeated components and twin
copies of ``test_aut_metamorphic``, cut to sizes where D' stays fast:

- D(G) = D(Ḡ), since Aut G = Aut Ḡ, and G's witness certifies on Ḡ;
- D and D' do not change under a random relabeling;
- G's witnesses, relabeled, certify on the relabeled graph.

The runs are derandomized, so tier-1 sees the same graphs.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from lexidis import (
    Graph,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_distinguishing_edges,
    lex_product,
)
from lexidis.graph import complement

from .test_aut_metamorphic import _graphs, _twin_copies, _union


@st.composite
def _repeated_components(draw):
    """k equal components and a rest, 8-12 vertices in all."""
    c = draw(_graphs(3, 4))
    k = draw(st.integers(2, 3))
    rest = draw(_graphs(max(0, 8 - k * c.n), 12 - k * c.n))
    return _union(*[c] * k, rest)


_PLANTED = st.one_of(
    _graphs(2, 3).flatmap(lambda g: st.builds(lex_product, st.just(g), _graphs(4, 12 // g.n))),
    _repeated_components(),
    _twin_copies(base=(5, 8), copies=(3, 4)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_PLANTED, st.randoms(use_true_random=False))
def test_oracles_are_invariant_and_their_witnesses_relabel(g, rng):
    assert 8 <= g.n <= 12
    perm = rng.sample(range(g.n), g.n)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])

    d, lab = distinguishing_number(g)
    assert distinguishing_number(complement(g))[0] == d
    assert is_distinguishing(complement(g), lab)
    assert distinguishing_number(relabeled)[0] == d
    moved = [0] * g.n
    for v, label in enumerate(lab):
        moved[perm[v]] = label
    assert is_distinguishing(relabeled, moved)

    if g.m:
        d, lab = distinguishing_index(g)
        assert distinguishing_index(relabeled)[0] == d
        moved_edges = {}
        for (u, v), label in lab.items():
            a, b = sorted((perm[u], perm[v]))
            moved_edges[a, b] = label
        assert is_distinguishing_edges(relabeled, moved_edges)
