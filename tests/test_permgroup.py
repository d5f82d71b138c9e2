import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexidis import (
    CapExceededError,
    GeneratorSet,
    Graph,
    Perm,
    closure,
    complement,
    complete,
    compose,
    cycle,
    enumerate_automorphisms,
    generating_subset,
    lex_product,
    path,
    sabidussi_equal,
    star,
    twin_swap_generators,
    wreath_generators,
    wreath_perm,
)
from lexidis.autosearch import SearchStats, automorphism_group

from .util import atlas4, brute_automorphisms, is_automorphism


def _perms(n):
    return st.permutations(list(range(n))).map(Perm)


def test_perm_basics():
    p = Perm((1, 2, 0))
    assert p(0) == 1 and p.degree == 3
    assert p.inverse() == Perm((2, 0, 1))
    assert (p * p.inverse()).is_identity()
    assert p.cycle_string() == "(0 1 2)"
    assert Perm.identity(4).cycle_string() == "()"
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        compose(Perm((1, 0)), Perm((0, 1, 2)))


def test_compose_applies_right_then_left():
    p = Perm((1, 0, 2))
    q = Perm((0, 2, 1))
    assert compose(p, q)(1) == p(q(1)) == 2


@settings(max_examples=50, deadline=None)
@given(_perms(5), _perms(5), _perms(5))
def test_group_axioms(p, q, r):
    e = Perm.identity(5)
    assert compose(p, e) == compose(e, p) == p
    assert compose(p, p.inverse()) == e
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_disjoint_transpositions_commute():
    a = Perm((1, 0, 2, 3))
    b = Perm((0, 1, 3, 2))
    assert a * b == b * a


def test_closure_examples():
    swap = GeneratorSet(2, (Perm((1, 0)),))
    assert sorted(p.image for p in closure(swap)) == [(0, 1), (1, 0)]
    s4 = GeneratorSet(4, (Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))))
    elems = closure(s4)
    assert len(elems) == 24
    # closed under composition and inverse, contains the identity
    images = {p.image for p in elems}
    assert Perm.identity(4).image in images
    for p in elems[:6]:
        assert p.inverse().image in images
        for q in elems[:6]:
            assert (p * q).image in images


def test_closure_cap_is_loud():
    s4 = GeneratorSet(4, (Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))))
    with pytest.raises(CapExceededError) as exc:
        closure(s4, cap=10)
    assert exc.value.reached >= 11


def test_closure_empty_generators():
    assert [p.image for p in closure(GeneratorSet(3, ()))] == [(0, 1, 2)]


def test_generating_subset():
    elems = enumerate_automorphisms(complete(4))
    gens = generating_subset(elems)
    assert len(closure(GeneratorSet(4, tuple(gens)))) == 24
    assert len(gens) <= 3


def test_wreath_perm_shape():
    alpha = Perm((1, 0))
    betas = [Perm((0, 1)), Perm((1, 0))]
    w = wreath_perm(alpha, betas)
    # (g, h) -> (alpha g, beta_{alpha g} h)
    assert w(0) == 2 * 1 + 1  # (0,0) -> (1, swap 0) = (1,1)
    assert w(2) == 0  # (1,0) -> (0, id 0)


def _aut_gens(g):
    return GeneratorSet(g.n, tuple(automorphism_group(g)[1]))


def test_wreath_closure_orders():
    k2 = complete(2)
    w = wreath_generators(_aut_gens(k2), _aut_gens(k2))
    assert len(closure(w)) == 8  # proper subgroup of Aut(K4), order 24
    p3 = path(3)
    w33 = wreath_generators(_aut_gens(p3), _aut_gens(p3))
    assert len(closure(w33)) == 2 * 2**3 == 16
    trivial = GeneratorSet(1, ())
    assert len(closure(wreath_generators(trivial, trivial))) == 1


def test_wreath_and_twin_swap_generators_are_automorphisms():
    rng = random.Random(11)
    names = list(atlas4().items())
    for _ in range(8):
        (gn, g) = rng.choice(names)
        (hn, h) = rng.choice(names)
        prod = lex_product(g, h)
        w = wreath_generators(_aut_gens(g), _aut_gens(h))
        s = twin_swap_generators(g, h)
        for p in list(w.gens) + list(s.gens):
            assert is_automorphism(prod, p.image), (gn, hn)


def test_twin_swap_generators_shape():
    # no closed twins: nothing to add
    assert twin_swap_generators(path(3), path(3)).gens == ()
    # connected complement: the swaps collapse to the identity, so none emitted
    assert twin_swap_generators(complete(2), cycle(5)).gens == ()
    k2 = complete(2)
    gens = twin_swap_generators(k2, k2)
    assert len(gens.gens) == 2
    full = closure(GeneratorSet(4, wreath_generators(_aut_gens(k2), _aut_gens(k2)).gens + gens.gens))
    assert len(full) == len(brute_automorphisms(complete(4))) == 24


def test_twin_swap_closure_matches_brute_force():
    k2 = complete(2)
    p3 = path(3)
    prod = lex_product(k2, p3)
    gens = wreath_generators(_aut_gens(k2), _aut_gens(p3)).gens
    gens += twin_swap_generators(k2, p3).gens
    assert len(closure(GeneratorSet(6, gens))) == len(brute_automorphisms(prod))


def test_wreath_and_twin_swaps_generate_every_small_product_group():
    # every pair of graphs on 1-4 vertices, connected or not, whose product
    # group sympy can order quickly; open twins of G with a disconnected H
    # need the open-twin swaps (P3[2K1]: wreath 16, full 48)
    from networkx.generators.atlas import graph_atlas_g
    from sympy.combinatorics import Permutation, PermutationGroup

    atlas = [Graph(a.number_of_nodes(), a.edges()) for a in graph_atlas_g()[1:19]]
    checked = 0
    for g in atlas:
        for h in atlas:
            order = automorphism_group(lex_product(g, h))[2]
            if order > 200_000:
                continue
            swaps = twin_swap_generators(g, h)
            assert sabidussi_equal(g, h) == (not swaps.gens), (g, h)
            assert {p.image for p in swaps.gens} == {
                p.image for p in twin_swap_generators(complement(g), complement(h)).gens}
            gens = wreath_generators(_aut_gens(g), _aut_gens(h)).gens + swaps.gens
            n = g.n * h.n
            sym = PermutationGroup([Permutation(list(p.image)) for p in gens] or [Permutation(n - 1)])
            assert sym.order() == order, (g, h)
            checked += 1
    assert checked == 280
    p3, two_k1 = path(3), Graph(2)
    assert automorphism_group(lex_product(p3, two_k1))[2] == 48
    wreath = wreath_generators(_aut_gens(p3), _aut_gens(two_k1))
    assert len(closure(wreath)) == 16
    swaps = twin_swap_generators(p3, two_k1).gens
    assert len(swaps) == 2 and len(closure(GeneratorSet(6, wreath.gens + swaps))) == 48


def test_sabidussi_examples():
    assert not sabidussi_equal(complete(2), complete(2))
    assert sabidussi_equal(path(3), path(3))
    # discrete relations on both sides: vacuous either way
    assert sabidussi_equal(path(4), complete(2))
    # closed twins in the star's... none; open twins need connected H
    assert sabidussi_equal(star(3), complete(3))
    assert not sabidussi_equal(complete(2), path(3))
    assert sabidussi_equal(complete(2), cycle(5))  # complement of C5 connected


def test_sabidussi_matches_group_orders_spot():
    g, h = path(3), path(3)
    prod = lex_product(g, h)
    w = closure(wreath_generators(_aut_gens(g), _aut_gens(h)))
    assert sabidussi_equal(g, h) == (len(w) == len(brute_automorphisms(prod)))


def test_reprs_and_perm_dunders():
    p = Perm((1, 0, 2))
    assert repr(p) == "Perm(0 1)"
    assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"
    stats = SearchStats()
    stats.nodes, stats.refinements, stats.merges = 2, 5, 1
    assert repr(stats) == "SearchStats(nodes=2, refinements=5, merges=1)"
    assert p.__eq__((1, 0, 2)) is NotImplemented
    assert p != (1, 0, 2)
    assert Perm.identity(3) < p and not p < Perm.identity(3)
    assert hash(p) == hash(Perm([1, 0, 2])) and len({p, Perm([1, 0, 2])}) == 1
    with pytest.raises(AttributeError) as exc:
        p.image = (0, 1, 2)
    assert str(exc.value) == "Perm is immutable"


@pytest.mark.parametrize("call, message", [
    (lambda: GeneratorSet(3, (Perm((1, 0)),)), "generator degree 2 != 3"),
    (lambda: closure(GeneratorSet(2, ()), cap=0), "cap must be positive"),
    (lambda: wreath_perm(Perm((1, 0)), [Perm((0, 1))]), "need 2 copy maps, got 1"),
    (lambda: wreath_perm(Perm((0, 1)), [Perm((0, 1)), Perm((0, 1, 2))]),
     "copy maps must share one degree"),
])
def test_group_argument_errors_give_exact_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_generating_subset_of_nothing():
    assert generating_subset([]) == []
