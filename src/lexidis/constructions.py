"""Constructive distinguishing labelings of lexicographic products, plus the
closed-form counting functions they rely on.

Every labeling emitted here is meant to be certified by the search engine;
the counting functions use exact integer arithmetic throughout (ceilings of
irrational expressions are computed via integer inequalities, never floats).

Every edge labeling has the shape of G[H] itself: a labeling of H's edges
in each copy H_a, and a labeling of the complete join between H_a and H_b
for each edge ab of G.  `_product_edge_labeling` walks that shape once, and
each scheme supplies only its two label rules.  Its keys need no sorting:
a < b on every edge of G's edge list, so (a, x) always precedes (b, y).

``HYPOTHESES`` holds each ``lexidis bounds`` row's hypotheses, once: a
construction that witnesses a row refuses with the reason of the first
hypothesis that fails, which is the reason ``bounds`` prints for that row.
"""
from __future__ import annotations

import itertools
from math import comb, isqrt
from typing import Callable, Sequence

from .distinguishing import (
    EdgeLabeling,
    VertexLabeling,
    distinguishing_index,
    is_distinguishing,
    is_distinguishing_edges,
)
from .graph import Graph, is_connected, path, spider, star
from .lexprod import lex_power, lex_product
from .permgroup import sabidussi_equal

Pattern = tuple[tuple[int, ...], tuple[int, ...]]


# -- the hypotheses of the bounds rows ---------------------------------------

_K2 = path(2)
_EDGELESS = "edgeless factor has no edge index"
_CONNECTED = (lambda g, h: is_connected(g) and is_connected(h), "factors must be connected")
_EDGES = (lambda g, h: g.m and h.m, _EDGELESS)
_WREATH = (lambda g, h: sabidussi_equal(g, h), "needs the wreath action")

# bounds row -> [(test on the factors G and H, reason when it fails)], in
# order.  H is K2 for single-edge-bundles; the power rows test G alone.  Each
# test calls through the module globals, where perfbench/tracing.py wraps them.
HYPOTHESES: dict[str, list[tuple[Callable[[Graph, Graph], object], str]]] = {
    "product-vertex-range": [_CONNECTED],
    "product-vertex-stepwise": [_WREATH],
    # a lone edge cannot pin its copy, D'(K2) = 1 cannot pin the copy swap of
    # K2[H], and a factor's swap that moves no edge, such as that of a K2
    # component's ends, survives into the product
    "product-edge-max": [_CONNECTED, (lambda g, h: h != _K2, "second factor is a single edge"),
                         _EDGES, (lambda g, h: g != _K2, "first factor is a single edge"), _WREATH],
    "product-edge-two-labels": [_CONNECTED, (
        lambda g, h: 2 <= g.n <= h.m + 1 and sabidussi_equal(g, h),
        "needs 2 <= |V(G)| <= |E(H)|+1 and the wreath action")],
    # each isolated vertex of G is a K2 component of G[K2] with its one edge
    # labeled 1, so two of them trade places
    "single-edge-bundles": [_EDGES, (_WREATH[0], "needs no closed twins in G"), (
        lambda g, h: sum(not row for row in g.adjacency_bits) <= 1,
        "needs at most one isolated vertex in G")],
    "spider-single-edge-exact": [],
    "power-vertex-range": [(lambda g, h: is_connected(g), "G must be connected"), (
        lambda g, h: sabidussi_equal(g, g), "needs the wreath action on the square")],
    "power-edge-two-labels": [(lambda g, h: g.m, _EDGELESS)],
}


def _require(row: str, g: Graph, h: Graph | None = None) -> None:
    """Refuse G and H with the reason of the first hypothesis of the row they fail."""
    for test, reason in HYPOTHESES[row]:
        if not test(g, h):
            raise ValueError(reason)


# -- replacement patterns and their counting --------------------------------


def tier_pattern_count(m: int, d_h: int) -> int:
    """Number of label-replacement patterns whose top new label is the m-th.

    Piecewise: 1 for m = 0, and d_h + sum_{i=1}^{m-1} C(m-1, i) * C(d_h, i+1)
    for m >= 1 (d_h for m = 1).
    """
    if m < 0:
        raise ValueError("tier must be non-negative")
    if m == 0:
        return 1
    return d_h + sum(comb(m - 1, i) * comb(d_h, i + 1) for i in range(1, m))


def min_extra_labels(d_g: int, d_h: int) -> int:
    """Least k such that tiers 0..k supply at least d_g patterns."""
    if d_g < 1 or d_h < 1:
        raise ValueError("label counts must be positive")
    k, total = 0, 1
    while total < d_g:
        k += 1
        total += tier_pattern_count(k, d_h)
    return k


def tier_patterns(d_h: int, m: int) -> list[Pattern]:
    """Tier-m replacement patterns in canonical order.

    A pattern maps an ascending tuple of original labels (within 1..d_h) to
    an equally long ascending tuple of new labels, the largest being d_h + m.
    Ordered by (source count, sources, targets); the count equals
    tier_pattern_count(m, d_h).
    """
    if m == 0:
        return [((), ())]
    top = d_h + m
    out: list[Pattern] = []
    for a in range(1, d_h + 1):
        out.append(((a,), (top,)))
    for i in range(1, m):
        for srcs in itertools.combinations(range(1, d_h + 1), i + 1):
            for news in itertools.combinations(range(d_h + 1, d_h + m), i):
                out.append((srcs, tuple(sorted(news + (top,)))))
    out.sort(key=lambda p: (len(p[0]), p[0], p[1]))
    return out


def pattern_sequence(d_h: int, count: int) -> list[Pattern]:
    """First ``count`` patterns in global tier order (tier 0, tier 1, ...)."""
    tiers = (tier_patterns(d_h, m) for m in itertools.count())
    return list(itertools.islice(itertools.chain.from_iterable(tiers), count))


def _apply_pattern(label: int, pattern: Pattern) -> int:
    sources, targets = pattern
    for s, t in zip(sources, targets):
        if label == s:
            return t
    return label


# -- vertex labelings --------------------------------------------------------


def block_product_labeling(
    g: Graph, h: Graph, lg: Sequence[int], lh: Sequence[int], *, checked: bool = False
) -> VertexLabeling:
    """Label copy i of H by lh shifted into its own block of d_h labels.

    Uses |V(G)| * d_h labels: disjoint blocks force every copy onto itself,
    and each copy is internally distinguishing.  Only the vertex order of G
    matters to the output; lg is validated but not consulted.  ``checked=True``
    skips certifying lg and lh, for a caller that has just done so.
    """
    if not checked:
        if not is_distinguishing(g, lg):
            raise ValueError("lg is not a distinguishing labeling of g")
        if not is_distinguishing(h, lh):
            raise ValueError("lh is not a distinguishing labeling of h")
    d_h = max(lh, default=1)
    return [lh[x] + a * d_h for a in range(g.n) for x in range(h.n)]


def pattern_product_labeling(
    g: Graph, h: Graph, lg: Sequence[int], lh: Sequence[int], *, checked: bool = False
) -> VertexLabeling:
    """Label G[H] with at most d_h + M labels via per-class replacements.

    G's vertices are split into classes by their lg label; all copies in one
    class carry lh transformed by that class's replacement pattern, patterns
    assigned in canonical tier order.  Requires the product's automorphism
    group to be the wreath action (no copy-mixing automorphisms).
    ``checked=True`` skips the row's hypotheses and certifying lg and lh.
    """
    if not checked:
        _require("product-vertex-stepwise", g, h)
        if not is_distinguishing(g, lg):
            raise ValueError("lg is not a distinguishing labeling of g")
        if not is_distinguishing(h, lh):
            raise ValueError("lh is not a distinguishing labeling of h")
    d_g = max(lg, default=1)
    d_h = max(lh, default=1)
    patterns = pattern_sequence(d_h, d_g)
    out = [_apply_pattern(lh[x], patterns[lg[a] - 1]) for a in range(g.n) for x in range(h.n)]
    budget = d_h + min_extra_labels(d_g, d_h)
    assert max(out) <= budget, "pattern assignment exceeded its label budget"
    return out


def spider_distinguishing_labeling(n: int) -> VertexLabeling:
    """Distinguishing labeling of spider(n) with ceil(sqrt(n)) labels.

    Branch j carries the ordered pair (j // r + 1, j % r + 1) on its
    (subdivision, pendant) vertices; distinct pairs pin every branch.
    """
    if n < 3:
        raise ValueError("spider needs n >= 3")
    r = isqrt(n - 1) + 1
    return [1] + [label for j in range(n) for label in (j // r + 1, j % r + 1)]


def spider_k2_distinguishing_number(n: int) -> int:
    """Least r with C(r,2)^2 >= n: the exact distinguishing number of the
    product of spider(n) with a single edge, computed in integer arithmetic.
    """
    if n < 3:
        raise ValueError("defined for n >= 3")
    r = 2
    while comb(r, 2) ** 2 < n:
        r += 1
    return r


def power_distinguishing_bounds(d_g: int, k: int) -> tuple[int, int]:
    """(lower, upper) bounds on the distinguishing number of the k-th power
    of a graph G with D(G) = d_g.

    (d_g, d_g + k - 1) when d_g > 1, else (1, 1).  They hold when the
    square's automorphism group is the wreath action, which the caller
    checks.
    """
    if d_g < 1 or k < 1:
        raise ValueError("D(G) and k must be positive")
    if d_g == 1:
        return 1, 1
    return d_g, d_g + k - 1


# -- edge labelings ----------------------------------------------------------


def _product_edge_labeling(
    g: Graph,
    h: Graph,
    inner: Callable[[int, int, tuple[int, int]], int],
    cross: Callable[[int, int, int, int], int],
) -> EdgeLabeling:
    """Edge labeling of G[H] from two label rules.

    inner(a, k, e) labels the k-th edge e of H's edge list inside copy a;
    cross(a, b, x, y) labels the join edge (a, x)(b, y) for each edge ab of
    G.  Since a < b for every edge of G's edge list, (a, x) precedes (b, y)
    in the product's indexing, so every key is already a sorted pair.
    """
    n_h = h.n
    h_edges = h.edge_list()
    out: EdgeLabeling = {}
    for a in range(g.n):
        for k, (x, y) in enumerate(h_edges):
            out[(a * n_h + x, a * n_h + y)] = inner(a, k, (x, y))
    for a, b in g.edge_list():
        for x in range(n_h):
            u = a * n_h + x
            for y in range(n_h):
                out[(u, b * n_h + y)] = cross(a, b, x, y)
    return out


def inherited_edge_labeling(
    g: Graph, h: Graph, lg: EdgeLabeling, lh: EdgeLabeling, *, checked: bool = False
) -> EdgeLabeling:
    """Every copy of H carries lh; every cross edge inherits its G-edge label.

    Uses max(d_g, d_h) labels, under the product-edge-max hypotheses.
    ``checked=True`` skips the hypotheses and certifying lg and lh.
    """
    if not checked:
        _require("product-edge-max", g, h)
        if not is_distinguishing_edges(g, lg):
            raise ValueError("lg is not a distinguishing edge labeling of g")
        if not is_distinguishing_edges(h, lh):
            raise ValueError("lh is not a distinguishing edge labeling of h")
    return _product_edge_labeling(
        g, h, lambda a, k, e: lh[e], lambda a, b, x, y: lg[(a, b)])


def k2_product_edge_labeling(h: Graph) -> EdgeLabeling:
    """Two-label edge labeling of the join of two copies of H (K_2 factor).

    Copy one's edges get 1, copy two's get 2, and the cross edge from the
    j-th vertex of copy one to the i-th vertex of copy two gets 2 exactly
    when i < j, so cross-label counts pin both copies vertex by vertex.
    When copy-mixing automorphisms survive that pattern (possible when the
    complement of H is disconnected), the minimal-search witness is emitted
    instead; either way the result is certified distinguishing with 2 labels.
    """
    if h.n < 3:
        raise ValueError("needs at least three vertices in the second factor")
    if not is_connected(h):
        raise ValueError("second factor must be connected")
    k2 = path(2)
    prod = lex_product(k2, h)
    out = _product_edge_labeling(
        k2, h, lambda a, k, e: a + 1, lambda a, b, x, y: 2 if y < x else 1)
    if is_distinguishing_edges(prod, out):
        return out
    found = distinguishing_index(prod, d_max=2)
    if found is None:
        raise RuntimeError("no 2-label distinguishing edge labeling exists")
    return found[1]


def _p2_cross_columns(n: int, d: int) -> list[tuple[int, int, int, int]] | None:
    """n cross-label columns over 1..d for pendant copies of a single edge,
    or None when 1..d has too few.

    Column entries label the four edges from the two center vertices to one
    copy's two vertices.  Constraints: no column invariant under the copy's
    internal swap (first two entries equal and last two equal), no two
    columns related by that swap, and the first column's two images under
    the center swap are banned pool-wide so the center cannot flip.

    Needs n >= 2 and d >= 2, which its only caller guarantees: the star has
    n >= 2 pendants, and d starts at the least d with d**4 >= n > 1**4.
    """
    first = (1, 1, 1, 2)

    def copy_swap(s):
        return (s[1], s[0], s[3], s[2])

    def center_swap(s):
        return (s[2], s[3], s[0], s[1])

    banned = {center_swap(first), center_swap(copy_swap(first))}
    cols = [first]
    used = {first, copy_swap(first)}
    for s in itertools.product(range(1, d + 1), repeat=4):
        if s in used or s in banned:
            continue
        if s[0] == s[1] and s[2] == s[3]:
            continue
        cols.append(s)
        used.add(s)
        used.add(copy_swap(s))
        if len(cols) == n:
            return cols
    return None


def star_product_edge_labeling(
    n: int, h: Graph, lh: EdgeLabeling, *, checked: bool = False
) -> EdgeLabeling:
    """Edge labeling of the product of a star with H.

    All copies carry lh; the cross edges from the center copy to pendant
    copy j follow column j of a label matrix whose columns are pairwise
    distinct, drawn over d = ceil(n^(1/m^2)) labels.  For two-vertex H the
    columns must additionally break the in-copy and center swaps, which can
    force one extra label (always when n = d^(m^2), where plain sequences
    run out).

    The product's group is always the wreath action here, so there is no
    check for it: with n >= 2 leaves the star has no closed twins, and its
    open twins, the leaves, ask only that H be connected.
    ``checked=True`` skips certifying lh; n and H are still checked.
    """
    if n < 2:
        raise ValueError("star needs at least two pendant vertices")
    m = h.n
    if m < 2:
        raise ValueError("second factor needs at least two vertices")
    if not is_connected(h):
        raise ValueError("second factor must be connected")
    if not checked and not is_distinguishing_edges(h, lh):
        raise ValueError("lh is not a distinguishing edge labeling of h")
    m2 = m * m
    d = 1
    while d**m2 < n:
        d += 1
    if m == 2:
        cols = _p2_cross_columns(n, d)
        while cols is None:
            d += 1
            cols = _p2_cross_columns(n, d)
    else:
        cols = list(itertools.islice(itertools.product(range(1, d + 1), repeat=m2), n))
    # the star's edges are (0, j): pendant copy j reads column j - 1
    return _product_edge_labeling(
        star(n), h, lambda a, k, e: lh[e], lambda a, b, x, y: cols[b - 1][x * m + y])


def path_product_edge_labeling(n: int, h: Graph) -> EdgeLabeling:
    """Two-label edge labeling of the product of a path with a connected H.

    Copies are all labeled 1; cross layers give the j-th vertex of each copy
    j 2-labeled edges into the next copy, except the final layer, which is
    reversed to break the end-to-end flip.  A one-vertex H degenerates to
    labeling the path itself: all 1 except the last edge.
    """
    if n < 3:
        raise ValueError("path factor needs at least three vertices")
    if not is_connected(h):
        raise ValueError("second factor must be connected")
    return _product_edge_labeling(
        path(n), h, lambda a, k, e: 1, lambda a, b, x, y: 1 + ((y < x) != (b == n - 1)))


# -- four-edge bundle patterns for products with a single edge ---------------


def bundle_tier_capacity(m: int) -> int:
    """Number of G-edge classes coverable once label m joins the palette:
    2*C(m-1,1) + m*C(m-1,2) + C(m-1,3).
    """
    if m < 2:
        raise ValueError("tiers start at 2")
    return 2 * comb(m - 1, 1) + m * comb(m - 1, 2) + comb(m - 1, 3)


def bundle_tier_tuples(m: int) -> list[tuple[int, int, int, int]]:
    """Tier-m four-edge patterns in canonical order.

    Families, interleaved over a < m: (a,a,a,m) then (a,m,m,m); then
    (a,b,m,x) for a < b < m and x = 1..m; then (a,b,c,m) for a < b < c < m.
    No pattern repeats two distinct labels, so no in-copy swap survives it.
    """
    out: list[tuple[int, int, int, int]] = []
    for a in range(1, m):
        out.append((a, a, a, m))
        out.append((a, m, m, m))
    for a in range(1, m):
        for b in range(a + 1, m):
            for x in range(1, m + 1):
                out.append((a, b, m, x))
    for a, b, c in itertools.combinations(range(1, m), 3):
        out.append((a, b, c, m))
    assert len(out) == bundle_tier_capacity(m)
    return out


def bundle_sequence(count: int) -> list[tuple[int, int, int, int]]:
    """First ``count`` bundle patterns in global tier order (tier 2, 3, ...)."""
    tiers = (bundle_tier_tuples(m) for m in itertools.count(2))
    return list(itertools.islice(itertools.chain.from_iterable(tiers), count))


def bundle_label_budget(d_g: int) -> int:
    """Least k with capacities of tiers 2..k summing to at least d_g."""
    if d_g < 1:
        raise ValueError("class count must be positive")
    total = 0
    k = 1
    while total < d_g:
        k += 1
        total += bundle_tier_capacity(k)
    return k


def p2_product_edge_labeling(
    g: Graph, lg: EdgeLabeling, *, checked: bool = False
) -> EdgeLabeling:
    """Edge labeling of the product of G with a single edge.

    Each G-edge is replaced by a four-edge bundle; all bundles of one lg
    class share one pattern, classes take patterns in canonical tier order,
    and the two vertices of every copy are joined by a label-1 edge.  Uses
    bundle_label_budget(max label of lg) labels, under the single-edge-bundles
    hypotheses.  ``checked=True`` skips the hypotheses and certifying lg.
    """
    if not checked:
        _require("single-edge-bundles", g, _K2)
        if not is_distinguishing_edges(g, lg):
            raise ValueError("lg is not a distinguishing edge labeling of g")
    patterns = bundle_sequence(max(lg.values()))
    return _product_edge_labeling(
        g, _K2, lambda a, k, e: 1, lambda a, b, x, y: patterns[lg[(a, b)] - 1][2 * x + y])


def two_label_edge_labeling(g: Graph, h: Graph) -> EdgeLabeling:
    """Two-label edge labeling of G[H] when G has at most |E(H)| + 1 vertices.

    Copy i carries i label-1 edges (a prefix of H's canonical edge order),
    so copies cannot be interchanged; within each G-edge's block, the p-th
    vertex of the lower copy sends p label-2 edges into the higher copy,
    pinning every copy internally.  A one-vertex G is refused: then G[H] is
    H, and copy 0 would carry label 2 alone.
    """
    _require("product-edge-two-labels", g, h)
    return _product_edge_labeling(
        g, h, lambda a, k, e: 1 if k < a else 2, lambda a, b, x, y: 2 if y < x else 1)


def power_edge_labeling(g: Graph, k: int) -> EdgeLabeling:
    """Two-label edge labeling of the k-th lexicographic power, k >= 2.

    Applies the two-label product scheme with the (k-1)-th power as the
    second factor.  The power rows' hypotheses imply the scheme's: a
    connected G with an edge has 2 <= |V(G)| <= |E(G^(k-1))| + 1, and the
    wreath action on the square is the scheme's own wreath condition, as
    G^(k-1) and its complement are connected iff G's are.
    """
    if k < 2:
        raise ValueError("powers start at k = 2")
    _require("power-vertex-range", g)
    _require("power-edge-two-labels", g)
    return two_label_edge_labeling(g, lex_power(g, k - 1))
