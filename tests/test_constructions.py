import itertools
import math
import random

import pytest

from lexidis import (
    Graph,
    block_product_labeling,
    bundle_label_budget,
    bundle_sequence,
    bundle_tier_capacity,
    bundle_tier_tuples,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    inherited_edge_labeling,
    is_distinguishing,
    is_distinguishing_edges,
    k2_product_edge_labeling,
    lex_power,
    lex_product,
    min_extra_labels,
    p2_product_edge_labeling,
    path,
    path_product_edge_labeling,
    pattern_product_labeling,
    pattern_sequence,
    power_distinguishing_bounds,
    power_edge_labeling,
    spider,
    spider_distinguishing_labeling,
    spider_k2_distinguishing_number,
    star,
    star_product_edge_labeling,
    tier_pattern_count,
    tier_patterns,
    two_label_edge_labeling,
)


# -- counting functions ------------------------------------------------------


def test_tier_pattern_count_values():
    assert tier_pattern_count(0, 5) == 1
    for dh in range(1, 6):
        assert tier_pattern_count(1, dh) == dh
    # two base labels: tiers count 1, 2, 3, 4
    assert [tier_pattern_count(m, 2) for m in range(4)] == [1, 2, 3, 4]
    assert tier_pattern_count(2, 3) == 3 + math.comb(1, 1) * math.comb(3, 2) == 6


def test_tier_patterns_match_their_count():
    for dh in range(1, 6):
        for m in range(5):
            pats = tier_patterns(dh, m)
            assert len(pats) == tier_pattern_count(m, dh)
            assert len(set(pats)) == len(pats)
            for sources, targets in pats:
                assert len(sources) == len(targets)
                assert list(sources) == sorted(sources)
                assert list(targets) == sorted(targets)
                assert all(1 <= s <= dh for s in sources)
                assert all(t > dh for t in targets)
                if m > 0:
                    assert max(targets) == dh + m


def test_tier_pattern_order_is_frozen():
    # base labels {1, 2}: the first eight patterns in global order
    assert pattern_sequence(2, 8) == [
        ((), ()),
        ((1,), (3,)),
        ((2,), (3,)),
        ((1,), (4,)),
        ((2,), (4,)),
        ((1, 2), (3, 4)),
        ((1,), (5,)),
        ((2,), (5,)),
    ]


def test_min_extra_labels_values():
    assert min_extra_labels(8, 2) == 3
    assert min_extra_labels(1, 7) == 0
    assert min_extra_labels(4, 2) == 2  # cumulative sums 1, 3, 6
    assert min_extra_labels(2, 1) == 1


def test_spider_closed_form():
    assert spider_k2_distinguishing_number(50) == 5
    assert spider_k2_distinguishing_number(3) == 3
    # least r with C(r,2)^2 >= n, swept over the full range
    r = 2
    for n in range(3, 10**6 + 1):
        while math.comb(r, 2) ** 2 < n:
            r += 1
        assert spider_k2_distinguishing_number(n) == r
    # the floating-point form of the same ceiling agrees at desk scale
    for n in range(3, 2000):
        f = math.ceil((1 + math.sqrt(1 + 8 * math.sqrt(n))) / 2)
        assert spider_k2_distinguishing_number(n) == f


def test_bundle_tier_capacity_values():
    assert [bundle_tier_capacity(m) for m in (2, 3, 4)] == [2, 7, 19]
    with pytest.raises(ValueError):
        bundle_tier_capacity(1)


def test_bundle_tier_tuples_count_and_shape():
    for m in range(2, 7):
        tuples = bundle_tier_tuples(m)
        assert len(tuples) == bundle_tier_capacity(m)
        assert len(set(tuples)) == len(tuples)
        for t in tuples:
            assert max(t) == m
            # at most one label repeats within a bundle pattern
            repeated = [x for x in set(t) if t.count(x) > 1]
            assert len(repeated) <= 1


def test_bundle_sequence_prefix():
    assert bundle_sequence(4) == [(1, 1, 1, 2), (1, 2, 2, 2), (1, 1, 1, 3), (1, 3, 3, 3)]
    seq = bundle_sequence(28)
    assert seq[8] == (1, 2, 3, 3)
    assert seq[27] == (1, 2, 3, 4)


def test_bundle_label_budget_values():
    assert bundle_label_budget(2) == 2
    assert bundle_label_budget(9) == 3
    assert bundle_label_budget(28) == 4
    assert bundle_label_budget(3) == 3


# -- vertex constructions ----------------------------------------------------


def test_spider_distinguishing_labeling():
    for n in (3, 5, 10, 50):
        lab = spider_distinguishing_labeling(n)
        r = math.isqrt(n - 1) + 1
        assert max(lab) <= r
        assert is_distinguishing(spider(n), lab)


def test_block_product_labeling():
    g, h = complete(2), complete(3)
    lab = block_product_labeling(g, h, [1, 2], [1, 2, 3])
    prod = lex_product(g, h)
    assert sorted(lab) == list(range(1, 7))  # one block of 3 per copy
    assert is_distinguishing(prod, lab)
    # single-vertex first factor: the labeling is just lh
    assert block_product_labeling(complete(1), h, [1], [1, 2, 3]) == [1, 2, 3]
    # single-vertex second factor: one label per copy, all distinct
    lab = block_product_labeling(path(3), complete(1), [1, 1, 2], [1])
    assert lab == [1, 2, 3]
    with pytest.raises(ValueError):
        block_product_labeling(g, h, [1, 1], [1, 2, 3])


def test_pattern_product_labeling_small():
    g, h = spider(10), complete(2)
    lg = spider_distinguishing_labeling(10)
    lab = pattern_product_labeling(g, h, lg, [1, 2])
    assert max(lab) <= 2 + min_extra_labels(4, 2) == 4
    assert is_distinguishing(lex_product(g, h), lab)


def test_pattern_product_labeling_single_class():
    # one class in the first factor: the copies all repeat lh unchanged
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 3)])
    assert distinguishing_number(g)[0] == 1
    h = path(3)
    lab = pattern_product_labeling(g, h, [1] * 6, [1, 1, 2])
    assert lab == [1, 1, 2] * 6
    assert is_distinguishing(lex_product(g, h), lab)


def test_pattern_product_labeling_preconditions():
    with pytest.raises(ValueError):
        pattern_product_labeling(complete(2), complete(2), [1, 2], [1, 2])
    with pytest.raises(ValueError):
        pattern_product_labeling(path(3), path(3), [1, 1, 1], [1, 1, 2])


def test_power_distinguishing_bounds():
    # D(P3) = 2; an asymmetric G has D(G) = 1
    assert power_distinguishing_bounds(2, 2) == (2, 3)
    assert power_distinguishing_bounds(1, 4) == (1, 1)
    assert power_distinguishing_bounds(2, 1) == (2, 2)
    assert power_distinguishing_bounds(3, 5) == (3, 7)
    for d_g, k in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            power_distinguishing_bounds(d_g, k)


# -- edge constructions ------------------------------------------------------


def test_inherited_edge_labeling():
    g = h = path(3)
    lg = {(0, 1): 1, (1, 2): 2}
    lab = inherited_edge_labeling(g, h, lg, lg)
    prod = lex_product(g, h)
    assert set(lab.values()) == {1, 2}
    assert is_distinguishing_edges(prod, lab)
    # cross edges inherit the label of their base edge
    assert lab[(0, 3)] == 1 and lab[(5, 8)] == 2


def test_inherited_edge_labeling_cycle_factor():
    g, h = path(3), cycle(6)
    lg = {(0, 1): 1, (1, 2): 2}
    lh = distinguishing_index(h)[1]
    lab = inherited_edge_labeling(g, h, lg, lh)
    assert max(lab.values()) <= 2
    assert is_distinguishing_edges(lex_product(g, h), lab)


def test_inherited_edge_labeling_preconditions():
    lg = {(0, 1): 1, (1, 2): 2}
    with pytest.raises(ValueError):
        inherited_edge_labeling(path(3), complete(2), lg, {(0, 1): 1})
    with pytest.raises(ValueError):
        inherited_edge_labeling(complete(2), path(3), {(0, 1): 1}, lg)


# K1 + K2: both labelings distinguish and the wreath action holds, yet the
# swap of the K2 component's ends, which moves no edge of the factor, moves
# edges of the product and keeps every inherited label
K1_K2 = Graph(3, [(1, 2)])


@pytest.mark.parametrize("g, h", [(K1_K2, K1_K2), (complete(3), K1_K2), (K1_K2, path(4))],
                         ids=["K1+K2[K1+K2]", "K3[K1+K2]", "K1+K2[P4]"])
def test_inherited_edge_labeling_needs_connected_factors(g, h):
    lg, lh = distinguishing_index(g)[1], distinguishing_index(h)[1]
    with pytest.raises(ValueError, match="^factors must be connected$"):
        inherited_edge_labeling(g, h, lg, lh)


def test_k2_product_edge_labeling():
    for h in (path(3), complete(3), cycle(5)):
        lab = k2_product_edge_labeling(h)
        prod = lex_product(complete(2), h)
        assert set(lab.values()) <= {1, 2}
        assert is_distinguishing_edges(prod, lab)
    with pytest.raises(ValueError):
        k2_product_edge_labeling(complete(2))
    with pytest.raises(ValueError):
        k2_product_edge_labeling(Graph(3, [(0, 1)]))


def test_k2_product_edge_labeling_raises_when_both_routes_fail(monkeypatch):
    # the pattern and the 2-label oracle search both succeed on every real
    # H; stub them out to reach the refusal
    from lexidis import constructions as cons

    monkeypatch.setattr(cons, "is_distinguishing_edges", lambda g, labels: False)
    monkeypatch.setattr(cons, "distinguishing_index", lambda g, d_max=None: None)
    with pytest.raises(RuntimeError, match="^no 2-label distinguishing edge labeling exists$"):
        k2_product_edge_labeling(path(3))


def test_star_product_edge_labeling():
    # three-vertex second factor
    lab = star_product_edge_labeling(2, path(3), {(0, 1): 1, (1, 2): 2})
    prod = lex_product(star(2), path(3))
    assert is_distinguishing_edges(prod, lab)
    assert max(lab.values()) <= 2
    # single-edge second factor, small
    lab = star_product_edge_labeling(3, path(2), {(0, 1): 1})
    prod = lex_product(star(3), path(2))
    assert is_distinguishing_edges(prod, lab)
    assert max(lab.values()) == 2
    # the first pendant column is frozen as (1,1,1,2)
    assert lab[(0, 2)] == 1 and lab[(0, 3)] == 1 and lab[(1, 2)] == 1 and lab[(1, 3)] == 2
    with pytest.raises(ValueError, match="^lh is not a distinguishing edge labeling of h$"):
        star_product_edge_labeling(3, path(3), {(0, 1): 1, (1, 2): 1})


def test_star_product_edge_labeling_saturated():
    lab = star_product_edge_labeling(16, path(2), {(0, 1): 1})
    prod = lex_product(star(16), path(2))
    assert len(set(lab.values())) == 3
    assert is_distinguishing_edges(prod, lab)


def test_path_product_edge_labeling():
    cases = [(3, path(3)), (4, complete(2)), (3, cycle(4))]
    for n, h in cases:
        lab = path_product_edge_labeling(n, h)
        prod = lex_product(path(n), h)
        assert set(lab.values()) == {1, 2}
        assert is_distinguishing_edges(prod, lab)
    # one-vertex second factor: label the path itself, all 1 but the last edge
    assert path_product_edge_labeling(4, complete(1)) == {(0, 1): 1, (1, 2): 1, (2, 3): 2}
    for n in range(3, 9):
        assert lex_product(path(n), complete(1)) == path(n)
        lab = path_product_edge_labeling(n, complete(1))
        assert lab == {**{(i, i + 1): 1 for i in range(n - 2)}, (n - 2, n - 1): 2}
        assert is_distinguishing_edges(path(n), lab)


def test_p2_product_edge_labeling():
    g = path(4)
    lg = distinguishing_index(g)[1]
    lab = p2_product_edge_labeling(g, lg)
    prod = lex_product(g, path(2))
    assert set(lab.values()) == {1, 2}
    assert is_distinguishing_edges(prod, lab)
    # closed twins in the base forbid the construction
    with pytest.raises(ValueError):
        p2_product_edge_labeling(complete(3), {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    with pytest.raises(ValueError, match="^lg is not a distinguishing edge labeling of g$"):
        p2_product_edge_labeling(g, dict.fromkeys(g.edge_list(), 1))


def test_p2_product_needs_at_most_one_isolated_vertex():
    # each isolated vertex of G is a K2 component of G[K2] with its edge
    # labeled 1, so two of them trade places: K1,2 + 3K1 and P3 + 4K1
    for g, index in ((Graph(6, [(0, 1), (0, 2)]), 3), (Graph(7, [(0, 1), (1, 2)]), 4)):
        d, lg = distinguishing_index(g)
        assert bundle_label_budget(d) == 2
        assert distinguishing_index(lex_product(g, path(2)))[0] == index
        with pytest.raises(ValueError, match="^needs at most one isolated vertex in G$"):
            p2_product_edge_labeling(g, lg)
    # a single K2 component has nothing to trade places with: P4 + K1
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    lab = p2_product_edge_labeling(g, distinguishing_index(g)[1])
    assert is_distinguishing_edges(lex_product(g, path(2)), lab)


def test_p2_product_budget():
    g = star(5)
    d, lg = distinguishing_index(g)
    assert d == 5
    lab = p2_product_edge_labeling(g, lg)
    assert max(lab.values()) <= bundle_label_budget(5) == 3
    assert is_distinguishing_edges(lex_product(g, path(2)), lab)


def test_two_label_edge_labeling():
    for g, h in ((path(3), path(3)), (path(3), cycle(4))):
        lab = two_label_edge_labeling(g, h)
        assert set(lab.values()) <= {1, 2}
        assert is_distinguishing_edges(lex_product(g, h), lab)
    with pytest.raises(ValueError):
        two_label_edge_labeling(complete(4), path(3))  # too many vertices
    with pytest.raises(ValueError):
        two_label_edge_labeling(complete(2), complete(2))
    # K1[H] = H, and D'(K3) = 3: a one-vertex base is refused, as the bounds row is
    assert distinguishing_index(complete(3))[0] == 3
    for h in (complete(1), complete(2), path(3), complete(3), cycle(5)):
        with pytest.raises(ValueError, match=r"^needs 2 <= \|V\(G\)\| <= \|E\(H\)\|\+1 "
                                             r"and the wreath action$"):
            two_label_edge_labeling(complete(1), h)


def test_power_edge_labeling():
    lab2 = power_edge_labeling(path(3), 2)
    assert lab2 == two_label_edge_labeling(path(3), path(3))
    assert is_distinguishing_edges(lex_power(path(3), 2), lab2)
    with pytest.raises(ValueError):
        power_edge_labeling(path(3), 1)
    with pytest.raises(ValueError):
        power_edge_labeling(complete(2), 2)
    # every power of K1 is edgeless, and the bounds row skips it
    for k in (2, 3, 4):
        with pytest.raises(ValueError, match="^edgeless factor has no edge index$"):
            power_edge_labeling(complete(1), k)


@pytest.mark.parametrize("call, message", [
    (lambda: tier_pattern_count(-1, 2), "tier must be non-negative"),
    (lambda: min_extra_labels(0, 2), "label counts must be positive"),
    (lambda: spider_distinguishing_labeling(2), "spider needs n >= 3"),
    (lambda: spider_k2_distinguishing_number(2), "defined for n >= 3"),
    (lambda: bundle_label_budget(0), "class count must be positive"),
])
def test_counting_argument_errors_give_exact_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_star_products_with_connected_factors_are_wreath_actions():
    # why star_product_edge_labeling checks no wreath condition: a star with
    # n >= 2 leaves has no closed twins, and its open twins, the leaves,
    # need only a connected H
    from networkx.generators.atlas import graph_atlas_g

    from lexidis import is_connected, sabidussi_equal

    hs = [Graph(x.number_of_nodes(), x.edges()) for x in graph_atlas_g()[1:]]
    hs = [h for h in hs if h.n >= 2 and is_connected(h)]
    assert len(hs) == 995
    assert all(sabidussi_equal(star(n), h) for n in range(2, 9) for h in hs)
