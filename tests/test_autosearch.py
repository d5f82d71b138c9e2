import gc
import hashlib
import math
import random

import pytest

from lexidis import (
    CapExceededError,
    ColoredGraph,
    Graph,
    Perm,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    enumerate_automorphisms,
    find_preserving,
    find_preserving_edges,
    is_color_preserving_automorphism,
    lex_power,
    lex_product,
    path,
    preserves_edge_labels,
    spider,
    star,
)
from lexidis import autosearch
from lexidis.autosearch import SearchStats, _verify, automorphism_group

from .util import (
    atlas4,
    brute_automorphisms,
    catalog,
    edge_action_is_trivial,
    naive_color_preserver_exists,
    naive_edge_preserver_exists,
    random_graph,
    sweep_pairs,
)


def test_find_preserving_examples():
    got, stats = find_preserving(ColoredGraph(cycle(4), (1, 1, 1, 1)))
    assert got is not None and not got.is_identity()
    assert is_color_preserving_automorphism(cycle(4), [1, 1, 1, 1], got)
    assert stats.nodes >= 1

    # leaves share a color: the leaf transposition is the first certificate
    got, _ = find_preserving(ColoredGraph(path(3), (1, 2, 1)))
    assert got == Perm((2, 1, 0))

    got, _ = find_preserving(ColoredGraph(path(3), (1, 2, 3)))
    assert got is None


def test_colored_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph(path(3), (1, 2))


def test_enumerate_small_groups():
    assert len(enumerate_automorphisms(complete(4))) == 24
    assert len(enumerate_automorphisms(spider(3))) == len(brute_automorphisms(spider(3))) == 6
    assert len(enumerate_automorphisms(lex_power(complete(2), 2))) == 24
    assert [p.image for p in enumerate_automorphisms(Graph(0))] == [()]
    assert len(enumerate_automorphisms(Graph(1))) == 1


def test_enumerate_forms_a_group_and_caps():
    elems = enumerate_automorphisms(cycle(5))
    images = {p.image for p in elems}
    assert len(elems) == 10
    for p in elems:
        assert p.inverse().image in images
        for q in elems:
            assert (p * q).image in images
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(complete(5), cap=50)


def test_enumerate_is_deterministic():
    a = [p.image for p in enumerate_automorphisms(cycle(6))]
    b = [p.image for p in enumerate_automorphisms(cycle(6))]
    assert a == b
    assert a[0] == tuple(range(6))


def test_parity_with_naive_enumeration():
    rng = random.Random(424)
    for _ in range(120):
        n = rng.randrange(1, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        colors = [rng.randrange(1, 4) for _ in range(n)]
        got, _ = find_preserving(ColoredGraph(g, tuple(colors)))
        assert (got is not None) == naive_color_preserver_exists(g, colors)
        if got is not None:
            assert is_color_preserving_automorphism(g, colors, got)


def test_find_preserving_edges_examples():
    k3 = complete(3)
    lab = {(0, 1): 1, (0, 2): 1, (1, 2): 2}
    got = find_preserving_edges(k3, lab)
    # the transposition fixing the label-2 edge setwise
    assert got == Perm((0, 2, 1))

    p4 = path(4)
    got = find_preserving_edges(p4, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    assert got == Perm((3, 2, 1, 0))
    assert find_preserving_edges(p4, {(0, 1): 1, (1, 2): 1, (2, 3): 2}) is None


def test_edge_labeling_domain_must_match():
    with pytest.raises(ValueError):
        find_preserving_edges(path(3), {(0, 1): 1})


def test_edge_trivial_actions_do_not_count():
    # the only nontrivial automorphism of a single edge fixes the edge
    assert find_preserving_edges(complete(2), {(0, 1): 1}) is None
    swap = Perm((1, 0))
    assert edge_action_is_trivial(complete(2), swap)
    assert not edge_action_is_trivial(path(3), Perm((2, 1, 0)))


def test_edge_parity_with_aut_filter():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randrange(2, 7)
        g = random_graph(rng, n, rng.choice([0.4, 0.6]))
        if g.m == 0:
            continue
        lab = {e: rng.randrange(1, 4) for e in g.edge_list()}
        got = find_preserving_edges(g, lab)
        assert (got is not None) == naive_edge_preserver_exists(g, lab)
        if got is not None:
            assert preserves_edge_labels(g, lab, got)
            assert not edge_action_is_trivial(g, got)


def test_certificates_survive_naive_recheck():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 8))
        colors = [rng.randrange(1, 3) for _ in range(g.n)]
        got, _ = find_preserving(ColoredGraph(g, tuple(colors)))
        if got is not None:
            assert is_color_preserving_automorphism(g, colors, got)


def test_group_order_matches_brute_force():
    rng = random.Random(2014)
    graphs = [Graph(0), *atlas4().values()]
    graphs += [random_graph(rng, rng.randrange(1, 8), rng.choice([0.3, 0.5, 0.7])) for _ in range(30)]
    # regular, so refinement alone leaves one cell, but two orbits
    graphs.append(Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]))
    for g in graphs:
        base, _, order = automorphism_group(g)
        brute = brute_automorphisms(g)
        assert order == len(brute), g
        # only the identity fixes the base
        assert [p for p in brute if all(p[b] == b for b in base)] == [tuple(range(g.n))]


def test_group_order_matches_sympy_on_sweep_products():
    from sympy.combinatorics import Permutation, PermutationGroup

    for gn, g, hn, h in sweep_pairs():
        prod = lex_product(g, h)
        _, gens, order = automorphism_group(prod)
        for p in gens:
            assert _verify(prod.adjacency_bits, prod.n, [0] * prod.n, p.image), (gn, hn)
        sym = [Permutation(list(p.image)) for p in gens] or [Permutation(prod.n - 1)]
        assert PermutationGroup(sym).order() == order, (gn, hn)


def test_group_search_work_is_pinned():
    # exact node counts: a pruning regression fails here, not only in timing
    stats = SearchStats()
    base, gens, order = automorphism_group(lex_product(complete(4), complete(4)), stats)
    assert order == math.factorial(16)
    assert (len(base), len(gens), stats.nodes, stats.refinements) == (15, 15, 135, 136)
    stats = SearchStats()
    base, gens, order = automorphism_group(lex_product(cycle(5), path(4)), stats)
    assert order == 10 * 2**5
    assert (base, len(gens), stats.nodes, stats.refinements) == ([0, 4, 16, 8, 12], 7, 29, 60)
    # summed over the sweep: one stats object across all 102 searches
    stats = SearchStats()
    for _gn, g, _hn, h in sweep_pairs():
        automorphism_group(lex_product(g, h), stats)
    assert (stats.nodes, stats.refinements) == (3670, 4787)


def test_group_search_splits_only_down_the_base_path(monkeypatch):
    # every subtree search reads its source side from the stored first path
    calls = []
    split = autosearch._split

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(autosearch, "_split", counted)
    for gn, g, hn, h in sweep_pairs():
        calls.clear()
        base, _, _ = automorphism_group(lex_product(g, h))
        assert len(calls) == len(base), (gn, hn)


def test_enumerated_lists_are_pinned():
    """Digest of every list under 1000 elements over the catalog and the
    atlas4 products, as the search that visited one leaf per element
    produced them."""
    graphs = list(catalog().items())
    graphs += [
        (f"{gn}[{hn}]", lex_product(g, h))
        for gn, g in atlas4().items()
        for hn, h in atlas4().items()
    ]
    digest = hashlib.sha256()
    listed = 0
    for name, g in graphs:
        try:
            elems = enumerate_automorphisms(g, cap=1000)
        except CapExceededError as exc:
            assert exc.reached == 1001, name
            continue
        listed += 1
        digest.update(repr((name, [p.image for p in elems])).encode())
    assert listed == 77
    assert digest.hexdigest() == "9715a1e1b9d264476e60c23172b51ab9ba7af6ebd631cbc3a0593b58aeb09176"


def test_searches_leave_no_reference_cycles():
    # garbage in cycles waits for a full collection, so a long-lived
    # process running many searches would keep it all alive until then
    graphs = [lex_product(path(3), cycle(4)), spider(6), cycle(6)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            distinguishing_number(g)
            distinguishing_index(g)
            enumerate_automorphisms(g)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# edge labels in edge_list() order, one digit each, and the certificate
# find_preserving_edges returns for them (None when distinguishing)
MARKER_PINS = {
    'C4': [
        ('1111', (0, 3, 2, 1)),
        ('1212', (2, 1, 0, 3)),
        ('1221', (1, 0, 3, 2)),
        ('1311', (3, 2, 1, 0)),
    ],
    'C6': [
        ('111111', (0, 5, 4, 3, 2, 1)),
        ('121212', None),
        ('113123', None),
        ('122222', (1, 0, 5, 4, 3, 2)),
    ],
    'P4': [
        ('111', (3, 2, 1, 0)),
        ('121', (3, 2, 1, 0)),
        ('312', None),
    ],
    'K4': [
        ('111111', (0, 1, 3, 2)),
        ('121212', (0, 3, 2, 1)),
        ('132322', (1, 0, 2, 3)),
        ('231321', None),
    ],
    'star3': [
        ('111', (0, 1, 3, 2)),
        ('121', (0, 3, 2, 1)),
        ('123', None),
        ('213', None),
    ],
    'K2[C4]': [
        ('111111111111111111111111', (0, 1, 2, 3, 4, 7, 6, 5)),
        ('121212121212121212121212', (0, 1, 2, 3, 6, 5, 4, 7)),
        ('121312331313131231132332', None),
        ('232211313323232331212323', None),
    ],
}


@pytest.mark.parametrize("name", sorted(MARKER_PINS))
def test_edge_certificates_ignore_label_offset(name):
    # the original vertices of the subdivision take a marker color below every
    # label; a marker equal to a label would let a rotation of the subdivided
    # cycle map a vertex onto an edge vertex
    g = {"C4": cycle(4), "C6": cycle(6), "P4": path(4), "K4": complete(4),
         "star3": star(3), "K2[C4]": lex_product(complete(2), cycle(4))}[name]
    edges = g.edge_list()
    for digits, cert in MARKER_PINS[name]:
        lab = [int(x) for x in digits]
        for shift in (0, -min(lab), -max(lab) - 2):
            got = find_preserving_edges(g, {e: v + shift for e, v in zip(edges, lab)})
            assert (None if got is None else got.image) == cert, (digits, shift)
