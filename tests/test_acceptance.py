"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single ``criterion NN PASS`` line with its elapsed time
(visible with ``pytest -s`` or on failure).  Shared sweeps are computed once
in session fixtures.  All tolerances are zero: every assertion is ==, <=, or
set equality on integers.
"""
from __future__ import annotations

import math
import random
import time

import pytest

from lexidis import (
    GeneratorSet,
    Graph,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    find_preserving,
    find_preserving_edges,
    inherited_edge_labeling,
    is_connected,
    is_distinguishing,
    is_distinguishing_edges,
    k2_product_edge_labeling,
    lex_power,
    lex_product,
    min_extra_labels,
    bundle_label_budget,
    bundle_tier_capacity,
    p2_product_edge_labeling,
    path,
    path_product_edge_labeling,
    pattern_product_labeling,
    power_edge_labeling,
    product_degree,
    sabidussi_equal,
    spider,
    spider_distinguishing_labeling,
    spider_k2_distinguishing_number,
    star,
    star_product_edge_labeling,
    twin_swap_generators,
    two_label_edge_labeling,
    wreath_generators,
)
from lexidis.autosearch import automorphism_group
from lexidis.cli import _bounds_rows

from .util import (
    catalog,
    naive_color_preserver_exists,
    naive_edge_preserver_exists,
    random_connected_graph,
    random_graph,
    sweep_pairs,
)

def _sympy_order(gens: GeneratorSet) -> int:
    """Order of the generated group by sympy, a referee outside the package."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation(list(p.image)) for p in gens.gens]).order()


def _report(num: int, t0: float, detail: str) -> None:
    print(f"criterion {num:02d} PASS ({time.time() - t0:.1f}s): {detail}")


@pytest.fixture(scope="module")
def sabidussi_sweep():
    """Wreath order vs full group order for all 102 sweep pairs."""
    build_start = time.time()
    rows = []
    for gn, g, hn, h in sweep_pairs():
        _, gens_g, order_g = automorphism_group(g)
        _, gens_h, order_h = automorphism_group(h)
        wgens = wreath_generators(GeneratorSet(g.n, tuple(gens_g)),
                                  GeneratorSet(h.n, tuple(gens_h)))
        wreath_order = order_g * order_h**g.n
        assert _sympy_order(wgens) == wreath_order, (gn, hn)
        prod = lex_product(g, h)
        rows.append(
            {
                "pair": (gn, hn),
                "g": g,
                "h": h,
                "prod": prod,
                "sabidussi": sabidussi_equal(g, h),
                "wreath_order": wreath_order,
                "full_order": automorphism_group(prod)[2],
                "wreath_gens": wgens,
            }
        )
    return rows, time.time() - build_start


@pytest.fixture(scope="module")
def dnum_cache():
    cache: dict[tuple[int, frozenset], tuple[int, list[int]]] = {}

    def get(g: Graph) -> int:
        key = (g.n, g.edges)
        if key not in cache:
            got = distinguishing_number(g)
            assert got is not None
            cache[key] = got
        return cache[key][0]

    return get


def test_criterion_01_product_identity():
    t0 = time.time()
    assert lex_product(complete(2), complete(3)).edges == complete(6).edges
    _report(1, t0, "two-vertex by three-vertex complete product is the complete graph on six")


def test_criterion_02_counting_formulas():
    t0 = time.time()
    rng = random.Random(20_24)
    for trial in range(200):
        g = random_connected_graph(rng, rng.randrange(1, 9), rng.choice([0.3, 0.5]))
        h = random_connected_graph(rng, rng.randrange(1, 9), rng.choice([0.3, 0.5]))
        p = lex_product(g, h)
        assert p.m == g.n * h.m + g.m * h.n * h.n
        for gv in range(g.n):
            for hv in range(h.n):
                assert p.degree(gv * h.n + hv) == product_degree(g, h, gv, hv)
    _report(2, t0, "edge-count and degree formulas on 200 random connected pairs")


def test_criterion_03_sabidussi_criterion(sabidussi_sweep):
    rows, build_seconds = sabidussi_sweep
    t0 = time.time() - build_seconds
    for row in rows:
        assert (row["wreath_order"] == row["full_order"]) == row["sabidussi"], row["pair"]
    by_pair = {row["pair"]: row for row in rows}
    mandated = by_pair[("K2", "K2")]
    assert mandated["wreath_order"] == 8
    assert mandated["full_order"] == 24
    assert by_pair[("K4", "K4")]["full_order"] == math.factorial(16)
    assert ("C5", "P4") in by_pair and by_pair[("C5", "P4")]["sabidussi"]
    assert ("tritail", "P3") in by_pair and not by_pair[("tritail", "P3")]["sabidussi"]
    assert len(rows) == 102
    _report(
        3,
        t0,
        f"criterion holds on all {len(rows)} pairs (wreath order cross-checked by sympy on each)",
    )


def test_criterion_04_generated_full_group(sabidussi_sweep):
    t0 = time.time()
    rows, _ = sabidussi_sweep
    false_rows = [row for row in rows if not row["sabidussi"]]
    assert len(false_rows) >= 25
    for row in false_rows:
        extra = twin_swap_generators(row["g"], row["h"])
        assert extra.gens, row["pair"]
        gens = GeneratorSet(row["prod"].n, row["wreath_gens"].gens + extra.gens)
        assert _sympy_order(gens) == row["full_order"], row["pair"]
    _report(
        4,
        t0,
        f"wreath plus swap generators yield the full group on {len(false_rows)} pairs "
        "(each order by sympy)",
    )


def test_criterion_05_spider_values():
    t0 = time.time()
    for n in range(3, 7):
        got = distinguishing_number(spider(n))
        assert got is not None and got[0] == math.isqrt(n - 1) + 1
    for n in range(3, 8):
        prod = lex_product(spider(n), complete(2))
        got = distinguishing_number(prod)
        assert got is not None and got[0] == spider_k2_distinguishing_number(n)
    assert spider_k2_distinguishing_number(50) == 5
    _report(5, t0, "subdivided-star values match the closed forms (exact oracle)")


def test_criterion_06_sharpness_chain():
    t0 = time.time()
    assert min_extra_labels(8, 2) == 3
    # the 50-branch case meets its upper bound: 2 + 3 extra tiers = 5
    assert spider_k2_distinguishing_number(50) == 2 + min_extra_labels(8, 2)
    for n, budget in ((10, 4), (50, 5)):
        g = spider(n)
        lg = spider_distinguishing_labeling(n)
        lab = pattern_product_labeling(g, complete(2), lg, [1, 2])
        prod = lex_product(g, complete(2))
        assert max(lab) <= budget
        assert is_distinguishing(prod, lab)
        assert prod.n == 2 * (2 * n + 1)
    _report(6, t0, "stepwise labelings certified on 42 and 202 vertices within budget")


# rows of `lexidis bounds` that bound the distinguishing index; the others
# bound the distinguishing number
EDGE_BOUND_ROWS = {"product-edge-max", "product-edge-two-labels", "single-edge-bundles"}


def test_criterion_07_bound_conformance(dnum_cache):
    t0 = time.time()
    names = catalog()
    pairs = [
        (gn, g, hn, h)
        for gn, g in names.items()
        for hn, h in names.items()
        if g.n * h.n <= 12
    ]
    checked = 0
    stepwise_checked = 0
    edge_exact = 0
    edge_constructed = 0
    rows_checked = 0
    for gn, g, hn, h in pairs:
        prod = lex_product(g, h)
        d_prod = dnum_cache(prod)
        d_g = dnum_cache(g)
        d_h = dnum_cache(h)
        assert d_h <= d_prod <= d_g * d_h, (gn, hn)
        checked += 1
        # every numeric row `lexidis bounds` prints holds for the exact values
        for r in _bounds_rows(g, h, None):
            if "skipped" in r:
                continue
            if r["bound"] in EDGE_BOUND_ROWS:
                assert prod.m > 0, (gn, hn, r)
                exact = distinguishing_index(prod)[0]
            else:
                exact = d_prod
            assert r.get("lower", exact) <= exact <= r.get("upper", exact), (gn, hn, r)
            assert r.get("value", exact) == exact, (gn, hn, r)
            rows_checked += 1
        sab = sabidussi_equal(g, h)
        if sab:
            assert d_prod <= d_h + min_extra_labels(d_g, d_h), (gn, hn)
            stepwise_checked += 1
        h_is_single_edge = h.n == 2 and h.m == 1
        if sab and not h_is_single_edge and g.m > 0 and h.m > 0:
            got_g = distinguishing_index(g)
            got_h = distinguishing_index(h)
            assert got_g is not None and got_h is not None
            bound = max(got_g[0], got_h[0])
            # a constructed labeling proves the upper bound on every pair;
            # a single-edge base takes its dedicated two-label scheme
            if g.n == 2 and g.m == 1:
                assert bound >= 2, (gn, hn)
                lab = k2_product_edge_labeling(h)
            else:
                lab = inherited_edge_labeling(g, h, got_g[1], got_h[1])
            assert is_distinguishing_edges(prod, lab), (gn, hn)
            assert max(lab.values()) <= bound, (gn, hn)
            edge_constructed += 1
            # the exact index never lists the product group
            got_p = distinguishing_index(prod)
            assert got_p is not None and got_p[0] <= bound, (gn, hn)
            edge_exact += 1
    assert checked >= 85
    assert stepwise_checked >= 40
    assert edge_constructed >= 10
    assert edge_exact == edge_constructed
    # `bounds` skips the edge-max row on a K2 base, where it can be false
    assert rows_checked >= 193
    _report(
        7,
        t0,
        f"vertex bounds on {checked} pairs, stepwise on {stepwise_checked}, "
        f"edge bound constructed on {edge_constructed} (exact oracle on {edge_exact}), "
        f"{rows_checked} printed bound rows",
    )


def test_criterion_08_single_edge_factor_values():
    t0 = time.time()
    # one-vertex second factor: the product is a single edge
    got = distinguishing_index(lex_product(complete(2), complete(1)))
    assert got is not None and got[0] == 1
    # two-vertex second factor: the product is complete on four vertices
    got = distinguishing_index(lex_product(complete(2), complete(2)))
    assert got is not None and got[0] == 3
    for h in (path(3), complete(3), cycle(5)):
        prod = lex_product(complete(2), h)
        got = distinguishing_index(prod)
        assert got is not None and got[0] == 2
        lab = k2_product_edge_labeling(h)
        assert is_distinguishing_edges(prod, lab)
        assert len(set(lab.values())) == 2
    _report(8, t0, "doubled-factor indices are exactly 1, 3, 2, with certified labelings")


def test_criterion_09_star_products():
    t0 = time.time()
    cases = [
        (2, path(3), {(0, 1): 1, (1, 2): 2}),
        (3, path(2), {(0, 1): 1}),
        (16, path(2), {(0, 1): 1}),
    ]
    for n, h, lh in cases:
        lab = star_product_edge_labeling(n, h, lh)
        prod = lex_product(star(n), h)
        assert is_distinguishing_edges(prod, lab), (n, h.n)
    saturated = star_product_edge_labeling(16, path(2), {(0, 1): 1})
    assert len(set(saturated.values())) == 3
    _report(9, t0, "star-product labelings certified; the saturated case takes three labels")


def test_criterion_10_path_products():
    t0 = time.time()
    for n, h in ((3, path(3)), (4, complete(2)), (3, cycle(4))):
        lab = path_product_edge_labeling(n, h)
        prod = lex_product(path(n), h)
        assert is_distinguishing_edges(prod, lab), (n, h.n)
    got = distinguishing_index(lex_product(path(3), path(3)))
    assert got is not None and got[0] == 2
    _report(10, t0, "path-product labelings certified; exact index of the square is 2")


def test_criterion_11_bundle_patterns():
    t0 = time.time()
    assert tuple(bundle_tier_capacity(m) for m in (2, 3, 4)) == (2, 7, 19)
    assert bundle_label_budget(2) == 2
    assert bundle_label_budget(9) == 3
    assert bundle_label_budget(28) == 4
    g = path(4)
    got = distinguishing_index(g)
    assert got is not None and got[0] == 2
    lab = p2_product_edge_labeling(g, got[1])
    prod = lex_product(g, path(2))
    assert set(lab.values()) == {1, 2}
    assert is_distinguishing_edges(prod, lab)
    _report(11, t0, "bundle capacities and budgets exact; four-path product certified with 2 labels")


def test_criterion_12_two_label_and_powers():
    t0 = time.time()
    for g, h in ((path(3), path(3)), (path(3), cycle(4))):
        lab = two_label_edge_labeling(g, h)
        assert set(lab.values()) <= {1, 2}
        assert is_distinguishing_edges(lex_product(g, h), lab)
    for k in (2, 3):
        lab = power_edge_labeling(path(3), k)
        prod = lex_power(path(3), k)
        assert set(lab.values()) == {1, 2}
        assert is_distinguishing_edges(prod, lab), k
    assert power_edge_labeling(path(3), 2) == two_label_edge_labeling(path(3), path(3))
    _report(12, t0, "two-label product and power labelings certified (27-vertex cube power included)")


def test_criterion_13_engine_parity():
    t0 = time.time()
    rng = random.Random(1337)
    for _ in range(500):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        colors = [rng.randrange(1, 4) for _ in range(n)]
        got, _ = find_preserving(g, colors)
        assert (got is not None) == naive_color_preserver_exists(g, colors)
    rng = random.Random(7331)
    done = 0
    while done < 300:
        n = rng.randrange(2, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        if g.m == 0:
            continue
        lab = {e: rng.randrange(1, 4) for e in g.edge_list()}
        got = find_preserving_edges(g, lab)
        assert (got is not None) == naive_edge_preserver_exists(g, lab)
        done += 1
    _report(13, t0, "search engine agrees with naive enumeration on 500 + 300 random instances")
