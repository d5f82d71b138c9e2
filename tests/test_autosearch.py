import gc
import hashlib
import math
import random

import pytest

from lexidis import (
    CapExceededError,
    Graph,
    Perm,
    block_product_labeling,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    enumerate_automorphisms,
    find_preserving,
    find_preserving_edges,
    is_color_preserving_automorphism,
    k2_product_edge_labeling,
    lex_power,
    lex_product,
    p2_product_edge_labeling,
    path,
    path_product_edge_labeling,
    pattern_product_labeling,
    preserves_edge_labels,
    spider,
    spider_distinguishing_labeling,
    star,
    two_label_edge_labeling,
)
from lexidis import autosearch
from lexidis.autosearch import SearchStats, _verify, automorphism_group
from lexidis.graph import closed_twin_partition, open_twin_partition

from .util import (
    atlas4,
    banded_input,
    brute_automorphisms,
    catalog,
    edge_action_is_trivial,
    flatten_copy,
    is_automorphism,
    naive_color_preserver_exists,
    naive_edge_preserver_exists,
    random_graph,
    recorded_stats,
    sweep_pairs,
    whole_graph_certificate,
    whole_graph_group,
)


def test_find_preserving_examples():
    # 0 and 2 are open twins of one color: their swap, before any search
    got, stats = find_preserving(cycle(4), (1, 1, 1, 1))
    assert got == Perm((2, 1, 0, 3))
    assert is_color_preserving_automorphism(cycle(4), [1, 1, 1, 1], got)
    assert (stats.merges, stats.nodes, stats.refinements) == (1, 0, 0)

    # no two twins share a color, but the merged nodes {0, 2} and {3, 1}
    # have one type: they are closed twins, swapped in canonical order
    got, stats = find_preserving(cycle(4), (1, 2, 2, 1))
    assert got == Perm((3, 2, 1, 0))
    assert (stats.merges, stats.nodes, stats.refinements) == (3, 0, 0)
    assert find_preserving(cycle(4), (1, 2, 3, 1))[0] is None

    # each K2 copy of P4[K2] merges, colored 1 and 2, and the twin-free
    # quotient P4 is searched: its flip, lifted
    got, stats = find_preserving(lex_product(path(4), complete(2)), (1, 2) * 4)
    assert got.cycle_string() == "(0 6)(1 7)(2 4)(3 5)"
    assert (stats.merges, stats.nodes, stats.refinements) == (4, 2, 4)

    # leaves share a color: the leaf transposition is the first certificate
    got, _ = find_preserving(path(3), (1, 2, 1))
    assert got == Perm((2, 1, 0))

    got, _ = find_preserving(path(3), (1, 2, 3))
    assert got is None


def test_colored_graph_validation():
    # one color per vertex, checked before any search
    for colors in ((1, 2), (1, 2, 1, 1)):
        with pytest.raises(ValueError, match=f"{len(colors)} colors for 3 vertices"):
            find_preserving(path(3), colors)


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
        got, _ = find_preserving(g, colors)
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
        got, _ = find_preserving(g, colors)
        if got is not None:
            assert is_color_preserving_automorphism(g, colors, got)


def _certify_sized_cases():
    """Labelings the package's constructions build on products of 24 to 402
    vertices, then each with one copy flattened (``flatten_copy``): three
    copies in turn, both for K2[P12]."""
    built = [
        (spider(100), complete(2), pattern_product_labeling(
            spider(100), complete(2), spider_distinguishing_labeling(100), [1, 2])),
        # each K2 copy in one color: not distinguishing
        (spider(30), complete(2), [x for x in spider_distinguishing_labeling(30) for _ in "ab"]),
        (path(50), cycle(4), pattern_product_labeling(
            path(50), cycle(4), [1] * 49 + [2], distinguishing_number(cycle(4))[1])),
        (path(40), cycle(5), block_product_labeling(
            path(40), cycle(5), [1] * 39 + [2], distinguishing_number(cycle(5))[1])),
        (path(17), path(3), path_product_edge_labeling(17, path(3))),
        (path(12), cycle(4), path_product_edge_labeling(12, cycle(4))),
        (path(2), path(12), k2_product_edge_labeling(path(12))),
        (path(25), path(2), p2_product_edge_labeling(path(25), distinguishing_index(path(25))[1])),
        (cycle(5), path(6), two_label_edge_labeling(cycle(5), path(6))),
    ]
    rng = random.Random(27)
    out = []
    for g, h, labels in built:
        labels = tuple(labels) if isinstance(labels, list) else labels
        out.append((lex_product(g, h), labels))
        for copy in rng.sample(range(g.n), min(3, g.n)):
            out.append((lex_product(g, h), flatten_copy(labels, h.n, copy)))
    return out


def test_public_searches_match_the_referees(monkeypatch):
    """find_preserving and find_preserving_edges give the brute-force n!
    verdict on products of atlas graphs with at most 8 vertices under random
    colorings and edge labelings, and the whole-graph search's verdict on
    certify-sized products; every certificate passes the naive check.  Each
    way to a verdict is taken: an equal-type sibling swap, the quotient's
    lifted generator and the whole-graph walk for vertices, a label-twin
    swap and the search for edges."""
    from networkx import graph_atlas_g

    by_size = {}
    for a in graph_atlas_g():
        by_size.setdefault(a.number_of_nodes(), []).append(Graph(a.number_of_nodes(), a.edges()))
    # graphs on 5 to 7 vertices with twins: colored apart, some have a
    # twin-free quotient whose symmetry the certificate lifts
    twinned = [g for size in (5, 6, 7) for g in by_size[size]
               if len(open_twin_partition(g)) + len(closed_twin_partition(g)) < 2 * size]
    made = recorded_stats(monkeypatch)
    rng = random.Random(2016)
    ways = {}
    for _ in range(700):
        ng = rng.randrange(1, 8)
        nh = rng.randrange(1, min(7, 8 // ng) + 1)
        g = lex_product(rng.choice(by_size[ng]), rng.choice(by_size[nh]))
        palette = rng.choice([1, 2, 3])
        mode = rng.randrange(3)
        if mode == 0:
            colors = [rng.randrange(palette) for _ in range(g.n)]
        elif mode == 1:
            # every copy of H colored alike
            pattern = [rng.randrange(palette) for _ in range(nh)]
            colors = [pattern[v % nh] for v in range(g.n)]
        else:
            # twins colored apart, by their place in their class
            g = rng.choice(twinned)
            colors = [0] * g.n
            for cls in rng.choice([open_twin_partition, closed_twin_partition])(g):
                for i, v in enumerate(cls):
                    colors[v] = i
        got, stats = find_preserving(g, colors)
        assert (got is not None) == naive_color_preserver_exists(g, colors), (g, colors)
        if got is not None:
            assert is_color_preserving_automorphism(g, colors, got), (g, colors)
        way = "whole" if not stats.merges else "swap" if not stats.refinements else "quotient"
        ways[way, got is not None] = ways.get((way, got is not None), 0) + 1
        if g.m:
            labels = {e: rng.randrange(1, palette + 1) for e in g.edge_list()}
            made.clear()
            got = find_preserving_edges(g, labels)
            assert (got is not None) == naive_edge_preserver_exists(g, labels), (g, labels)
            if got is not None:
                assert preserves_edge_labels(g, labels, got), (g, labels)
            way = "label twins" if made[0].merges else "edge search"
            ways[way, got is not None] = ways.get((way, got is not None), 0) + 1
    assert len(ways) == 8 and min(ways.values()) >= 15, ways
    found = 0
    for g, labels in _certify_sized_cases():
        if isinstance(labels, tuple):
            got, _ = find_preserving(g, labels)
            assert got is None or is_color_preserving_automorphism(g, labels, got)
        else:
            got = find_preserving_edges(g, labels)
            assert got is None or preserves_edge_labels(g, labels, got)
        want = whole_graph_certificate(g, labels, SearchStats())
        assert (got is None) == (want is None), g
        found += got is not None
    # the 26 flattened copies and the one-color doubling are refuted, every
    # construction certified
    assert found == 27


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


def test_naive_rechecks_reject_non_preservers():
    p3, flip = path(3), Perm((2, 1, 0))
    # the flip moves a color; (0 1) breaks an edge of P4
    assert not _verify(p3.adjacency_bits, 3, (1, 2, 2), flip.image, p3.adjacency_bits)
    assert not is_color_preserving_automorphism(p3, (1, 2, 2), flip)
    p4 = path(4).adjacency_bits
    assert not _verify(p4, 4, (0,) * 4, (1, 0, 2, 3), p4)
    assert not is_color_preserving_automorphism(path(4), (0,) * 4, Perm((1, 0, 2, 3)))
    # a permutation of the wrong degree
    assert not is_color_preserving_automorphism(p3, (1, 1, 1), Perm((1, 0)))
    assert not preserves_edge_labels(p3, {(0, 1): 1, (1, 2): 1}, Perm((1, 0)))
    # the flip swaps the two labels
    assert not preserves_edge_labels(p3, {(0, 1): 1, (1, 2): 2}, flip)
    # (0 1) keeps the one labeled edge, so only the adjacency check rejects it
    assert not preserves_edge_labels(p3, {(0, 1): 1}, Perm((1, 0, 2)))
    # and each accepts a preserver
    assert is_color_preserving_automorphism(p3, (1, 2, 1), flip)
    assert preserves_edge_labels(p3, {(0, 1): 1, (1, 2): 1}, flip)


def _referee_preserves(labels, colors, sigma):
    """Every vertex keeps its color, and every labeled edge maps onto an edge
    with its label; sigma is a bijection, so that is preservation."""
    return all(colors[sigma[v]] == colors[v] for v in range(len(sigma))) and all(
        labels.get((min(sigma[u], sigma[v]), max(sigma[u], sigma[v]))) == val
        for (u, v), val in labels.items())


def test_naive_check_over_moved_vertices_matches_a_referee():
    # _verify reads the rows of moved vertices only; the referee reads every
    # edge.  Besides random permutations and automorphisms, each graph gets
    # a transposition (u w) that breaks the edge from a fixed end f to u: w
    # is no neighbour of f, or (with several bands) one by another label
    rng = random.Random(7)
    broken = {False: 0, True: 0}
    for _ in range(300):
        g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.3, 0.5, 0.8]))
        nlabels = rng.choice([1, 2, 3])
        labels = {e: rng.randrange(nlabels) for e in g.edge_list()}
        rows, _, cols = banded_input(g, labels)
        cols = cols or rows
        colors = [rng.randrange(2) for _ in range(g.n)]
        perms = [rng.sample(range(g.n), g.n) for _ in range(3)]
        perms += [rng.choice(enumerate_automorphisms(g)).image]
        for (f, u), val in labels.items():
            f, u = rng.sample((f, u), 2)
            for w in range(g.n):
                if w not in (f, u) and labels.get((min(f, w), max(f, w))) != val:
                    sigma = list(range(g.n))
                    sigma[u], sigma[w] = w, u
                    perms.append(sigma)
                    broken[len(cols) > g.n] += 1
                    break
        for sigma in perms:
            want = _referee_preserves(labels, colors, sigma)
            assert _verify(rows, g.n, colors, sigma, cols) == want, (g, labels, sigma)
    assert min(broken.values()) > 100, broken


# a cubic graph whose group search meets a subtree replay that diverges
# below the base level, where the node tries the next target vertex
CUBIC12 = Graph(12, [(0, 3), (0, 6), (0, 10), (1, 2), (1, 4), (1, 10), (2, 4), (2, 10),
                     (3, 5), (3, 11), (4, 9), (5, 7), (5, 8), (6, 7), (6, 9), (7, 8),
                     (8, 11), (9, 11)])


def test_group_order_past_a_subtree_replay_divergence():
    from networkx import Graph as NxGraph
    from networkx.algorithms.isomorphism import GraphMatcher

    nx_graph = NxGraph(CUBIC12.edge_list())
    referee = sum(1 for _ in GraphMatcher(nx_graph, nx_graph).isomorphisms_iter())
    stats = SearchStats()
    base, gens, order = whole_graph_group(CUBIC12, stats)
    assert order == referee == 4
    assert base == [0, 4, 1]
    assert [p.cycle_string() for p in gens] == ["(1 2)", "(0 9)(3 11)(4 10)(5 8)"]
    assert (stats.nodes, stats.refinements) == (7, 45)
    # 1 and 2 are closed twins: the search runs on the 11-node quotient,
    # and the swap and the lifted generator are the whole-graph ones
    stats = SearchStats()
    base, twin_gens, order = automorphism_group(CUBIC12, stats)
    assert (order, base, twin_gens) == (4, [4, 1], gens)
    assert (stats.merges, stats.nodes, stats.refinements) == (1, 2, 11)


def test_group_order_matches_sympy_on_sweep_products():
    from sympy.combinatorics import Permutation, PermutationGroup

    for gn, g, hn, h in sweep_pairs():
        prod = lex_product(g, h)
        _, gens, order = automorphism_group(prod)
        for p in gens:
            rows = prod.adjacency_bits
            assert _verify(rows, prod.n, [0] * prod.n, p.image, rows), (gn, hn)
        sym = [Permutation(list(p.image)) for p in gens] or [Permutation(prod.n - 1)]
        assert PermutationGroup(sym).order() == order, (gn, hn)


def test_group_search_work_is_pinned():
    # exact node counts of the whole-graph search: a pruning regression
    # fails here, not only in timing
    stats = SearchStats()
    base, gens, order = whole_graph_group(lex_product(complete(4), complete(4)), stats)
    assert order == math.factorial(16)
    assert (len(base), len(gens), stats.nodes, stats.refinements) == (15, 15, 135, 136)
    stats = SearchStats()
    base, gens, order = whole_graph_group(lex_product(cycle(5), path(4)), stats)
    assert order == 10 * 2**5
    assert (base, len(gens), stats.nodes, stats.refinements) == ([0, 4, 16, 8, 12], 7, 29, 60)
    # summed over the sweep: one stats object across all 102 searches
    stats = SearchStats()
    for _gn, g, _hn, h in sweep_pairs():
        whole_graph_group(lex_product(g, h), stats)
    assert (stats.nodes, stats.refinements) == (3670, 4787)


def _basic_orbit_lengths(base, gens):
    """Orbit of each base point under the generators that fix every point
    before it: their product is the order iff the generators are strong."""
    lengths = []
    for i, b in enumerate(base):
        level = [p for p in gens if all(p.image[x] == x for x in base[:i])]
        lengths.append(len(autosearch._orbit(b, level)))
    return lengths


def test_twin_path_matches_the_whole_graph_search():
    # every atlas graph on at most 7 vertices, the sweep products and
    # relabeled random products: the order is the whole-graph search's, every
    # generator is an automorphism, the generators are strong for the base,
    # and on at most 6 vertices only the identity fixes the base
    from networkx import graph_atlas_g

    graphs = [Graph(a.number_of_nodes(), a.edges()) for a in graph_atlas_g()]
    graphs += [lex_product(g, h) for _gn, g, _hn, h in sweep_pairs()]
    rng = random.Random(21)
    for _ in range(200):
        g = lex_product(random_graph(rng, rng.randrange(1, 6), rng.choice([0.3, 0.7])),
                        random_graph(rng, rng.randrange(1, 6), rng.choice([0.3, 0.7])))
        perm = rng.sample(range(g.n), g.n)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()]))
    merged = 0
    for g in graphs:
        stats = SearchStats()
        base, gens, order = automorphism_group(g, stats)
        merged += stats.merges > 0
        assert order == whole_graph_group(g, SearchStats())[2], g
        assert all(is_automorphism(g, p.image) for p in gens), g
        assert math.prod(_basic_orbit_lengths(base, gens)) == order, g
        if g.n <= 6:
            fixing = [p for p in brute_automorphisms(g) if all(p[b] == b for b in base)]
            assert fixing == [tuple(range(g.n))], g
    assert (len(graphs), merged) == (1555, 1145)


def test_twin_merges_are_pinned():
    # (merges, nodes, refinements) of automorphism_group: a cograph merges
    # down to one node, whose search is one refinement round
    cases = [
        (Graph(1000), math.factorial(1000), 999, (1, 0, 1)),
        (lex_power(path(3), 6), 2**364, 364, (728, 0, 1)),
        (complete(300), math.factorial(300), 299, (1, 0, 1)),
        (lex_product(complete(4), complete(4)), math.factorial(16), 15, (1, 0, 1)),
    ]
    for g, want, ngens, work in cases:
        stats = SearchStats()
        base, gens, order = automorphism_group(g, stats)
        assert (order, len(gens), len(base)) == (want, ngens, g.n - 1)
        assert (stats.merges, stats.nodes, stats.refinements) == work
    # a twin-free product merges nothing: the whole-graph search, unchanged
    stats = SearchStats()
    base, gens, order = automorphism_group(lex_product(cycle(5), path(4)), stats)
    assert (base, len(gens), order) == ([0, 4, 16, 8, 12], 7, 320)
    assert (stats.merges, stats.nodes, stats.refinements) == (0, 29, 60)
    stats = SearchStats()
    for _gn, g, _hn, h in sweep_pairs():
        automorphism_group(lex_product(g, h), stats)
    assert (stats.merges, stats.nodes, stats.refinements) == (548, 197, 532)


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
        base, _, _ = whole_graph_group(lex_product(g, h), SearchStats())
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
# the whole-graph ``_edge_search`` returns for them (None when distinguishing)
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
    # labels become row bands in sorted order, so shifting every label keeps
    # the certificate; these are the certificates the subdivision search
    # found, with its vertices marked below every label
    g = {"C4": cycle(4), "C6": cycle(6), "P4": path(4), "K4": complete(4),
         "star3": star(3), "K2[C4]": lex_product(complete(2), cycle(4))}[name]
    edges = g.edge_list()
    for digits, cert in MARKER_PINS[name]:
        lab = [int(x) for x in digits]
        for shift in (0, -min(lab), -max(lab) - 2):
            values = [v + shift for v in lab]
            got = autosearch._edge_search(g, edges, values, SearchStats())
            assert (None if got is None else got.image) == cert, (digits, shift)
            # the public search may answer with a label-twin swap instead
            labels = dict(zip(edges, values))
            public = find_preserving_edges(g, labels)
            assert (public is None) == (cert is None), (digits, shift)
            assert public is None or preserves_edge_labels(g, labels, public)


def _cayley_z4z4(connection, offset):
    """Edges of the Cayley graph on Z4 x Z4, (a, b) numbered 4a + b + offset."""
    return {tuple(sorted((4 * a + b + offset, 4 * ((a + x) % 4) + (b + y) % 4 + offset)))
            for a in range(4) for b in range(4) for x, y in connection}


# two srg(16, 6, 2, 2): the 4 x 4 rook's graph and the Shrikhande graph
ROOK = [(1, 0), (3, 0), (2, 0), (0, 1), (0, 3), (0, 2)]
SHRIKHANDE = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]


def test_subtree_searches_back_out_of_dead_ends(monkeypatch):
    # individualizing one vertex leaves either graph equitable with the same
    # trace, so a subtree search mapping a base point into the other graph
    # is entered and fails one level down
    g = Graph(32, _cayley_z4z4(ROOK, 0) | _cayley_z4z4(SHRIKHANDE, 16))
    flipped = Graph(32, _cayley_z4z4(SHRIKHANDE, 0) | _cayley_z4z4(ROOK, 16))
    failed = []
    node = autosearch._Search.node

    def counted(self, depth, c2):
        got = node(self, depth, c2)
        failed.append(got is None)
        return got

    monkeypatch.setattr(autosearch._Search, "node", counted)
    stats = SearchStats()
    base, gens, order = automorphism_group(g, stats)
    assert order == 221_184 == 1152 * 192
    assert (len(base), len(gens), stats.nodes, stats.refinements) == (8, 10, 69, 359)
    assert sum(failed) == 16
    cert, stats = find_preserving(g, [0] * 32)
    assert cert.cycle_string() == "(20 31)(21 28)(22 29)(23 30)(24 26)(25 27)"
    assert (stats.nodes, stats.refinements) == (9, 21)
    cert, stats = find_preserving(flipped, [0] * 32)
    assert cert.cycle_string() == "(24 28)(25 29)(26 30)(27 31)"
    assert (stats.nodes, stats.refinements) == (9, 20)


def test_subtree_searches_back_out_below_their_root():
    # two halves, each a hub joined to a Shrikhande and a rook's graph,
    # numbered Shrikhande first in one half and rook first in the other:
    # below the swap of the hubs a search tries the wrong component first,
    # matches one level and fails the next, so it returns to the level
    # above and goes on with its next candidate
    edges = (_cayley_z4z4(SHRIKHANDE, 1) | _cayley_z4z4(ROOK, 17)
             | _cayley_z4z4(ROOK, 34) | _cayley_z4z4(SHRIKHANDE, 50))
    edges |= {(0, v) for v in range(1, 33)} | {(33, v) for v in range(34, 66)}
    g = Graph(66, edges)
    stats = SearchStats()
    base, gens, order = automorphism_group(g, stats)
    assert order == 2 * (1152 * 192) ** 2
    assert (len(base), len(gens), stats.nodes, stats.refinements) == (17, 21, 270, 1422)
    cert, stats = find_preserving(g, [0] * 66)
    assert cert.cycle_string() == "(54 65)(55 62)(56 63)(57 64)(58 60)(59 61)"
    assert (stats.nodes, stats.refinements) == (18, 43)


def test_subtree_search_is_not_bounded_by_the_recursion_limit():
    # the base of the whole-graph search of Aut(150 K1) has 149 points;
    # every subtree search walks it
    import inspect
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        order = whole_graph_group(Graph(150), SearchStats())[2]
    finally:
        sys.setrecursionlimit(limit)
    assert order == math.factorial(150)


def test_enumerate_refuses_a_nonpositive_cap():
    with pytest.raises(ValueError) as exc:
        enumerate_automorphisms(path(3), cap=0)
    assert str(exc.value) == "cap must be positive"


def test_edge_certificates_are_rechecked(monkeypatch):
    # a search that returned a non-preserving map would be caught, not trusted
    monkeypatch.setattr(autosearch, "_band_search", lambda *_args: Perm((1, 0, 2)))
    with pytest.raises(AssertionError) as exc:
        find_preserving_edges(path(3), {(0, 1): 1, (1, 2): 2})
    assert str(exc.value) == "internal error: certificate failed re-verification"


def test_lifted_certificates_are_rechecked(monkeypatch):
    # the certificate on P4[K2] colored (1, 2) per copy is the quotient P4's
    # flip, lifted; a wrong lift would be caught
    monkeypatch.setattr(autosearch, "_lift", lambda n, *_args: [1, 0] + list(range(2, n)))
    with pytest.raises(AssertionError) as exc:
        find_preserving(lex_product(path(4), complete(2)), (1, 2) * 4)
    assert str(exc.value) == "internal error: certificate failed re-verification"
