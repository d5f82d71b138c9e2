import random

import pytest

from lexidis import (
    Graph,
    ProductIndexer,
    ProductSizeError,
    complement,
    complete,
    cycle,
    lex_power,
    lex_product,
    path,
    product_degree,
)

from .util import canonical_form, random_graph, sweep_pairs


def test_indexer_bijection():
    idx = ProductIndexer(3, 4)
    seen = set()
    for g in range(3):
        for h in range(4):
            i = idx.encode(g, h)
            assert idx.decode(i) == (g, h)
            seen.add(i)
    assert seen == set(range(12))
    with pytest.raises(IndexError):
        idx.encode(3, 0)
    with pytest.raises(IndexError):
        idx.decode(12)


def test_k2_k3_is_k6():
    assert lex_product(complete(2), complete(3)) == complete(6)


def test_product_matches_the_definition():
    # (a, x) ~ (b, y) iff ab is an edge of G, or a == b and xy an edge of H
    for _, g, _, h in sweep_pairs():
        pairs = [(a * h.n + x, b * h.n + y)
                 for a in range(g.n) for b in range(g.n)
                 for x in range(h.n) for y in range(h.n)
                 if g.has_edge(a, b) or (a == b and h.has_edge(x, y))]
        assert lex_product(g, h) == Graph(g.n * h.n, pairs)


def test_identity_factor():
    h = cycle(5)
    assert lex_product(complete(1), h) == h
    # one-vertex second factor keeps the first factor's edges
    assert lex_product(path(4), complete(1)) == path(4)


def test_edge_count_formula_examples():
    p = lex_product(path(3), path(2))
    assert p.m == 3 * 1 + 2 * 4 == 11
    sq = lex_power(path(3), 2)
    assert sq.n == 9 and sq.m == 3 * 2 + 2 * 9 == 24


def test_edge_count_and_degree_formulas_random():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 7))
        h = random_graph(rng, rng.randrange(1, 7))
        p = lex_product(g, h)
        assert p.m == g.n * h.m + g.m * h.n * h.n
        for gv in range(g.n):
            for hv in range(h.n):
                assert p.degree(gv * h.n + hv) == product_degree(g, h, gv, hv)


def test_degree_formula_examples():
    assert product_degree(path(3), path(2), 1, 0) == 1 + 2 * 2 == 5
    assert product_degree(complete(1), cycle(5), 0, 2) == 2
    assert product_degree(path(4), complete(1), 1, 0) == 2


def test_powers():
    assert lex_power(complete(2), 2) == complete(4)
    assert lex_power(path(3), 1) == path(3)
    with pytest.raises(ValueError):
        lex_power(path(3), 0)
    # right-nesting: G^3 equals G[G^2] by construction
    assert lex_power(path(2), 3) == lex_product(path(2), lex_power(path(2), 2))


def test_complement_distributes():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 6))
        h = random_graph(rng, rng.randrange(1, 6))
        assert complement(lex_product(g, h)) == lex_product(complement(g), complement(h))


def test_associativity_up_to_relabeling():
    rng = random.Random(77)
    for _ in range(6):
        g = random_graph(rng, 2)
        h = random_graph(rng, 2)
        k = random_graph(rng, 2)
        left = lex_product(lex_product(g, h), k)
        right = lex_product(g, lex_product(h, k))
        assert canonical_form(left) == canonical_form(right)


def test_size_guard():
    with pytest.raises(ProductSizeError):
        lex_product(complete(1000), complete(1000))
