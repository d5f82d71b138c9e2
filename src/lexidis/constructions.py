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
"""
from __future__ import annotations

import itertools
from math import comb, isqrt
from typing import Callable, Sequence

from .distinguishing import (
    EdgeLabeling,
    VertexLabeling,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_distinguishing_edges,
)
from .graph import Graph, is_connected, path, spider, star
from .lexprod import lex_power, lex_product
from .permgroup import sabidussi_equal

Pattern = tuple[tuple[int, ...], tuple[int, ...]]


# -- replacement patterns and their counting --------------------------------


def tier_pattern_count(m: int, d_h: int) -> int:
    """Number of label-replacement patterns whose top new label is the m-th.

    Piecewise: 1 for m = 0, d_h for m = 1, and
    d_h + sum_{i=1}^{m-1} C(m-1, i) * C(d_h, i+1) for m >= 2.
    """
    if m < 0:
        raise ValueError("tier must be non-negative")
    if m == 0:
        return 1
    if m == 1:
        return d_h
    return d_h + sum(comb(m - 1, i) * comb(d_h, i + 1) for i in range(1, m))


def min_extra_labels(d_g: int, d_h: int) -> int:
    """Least k such that tiers 0..k supply at least d_g patterns."""
    if d_g < 1 or d_h < 1:
        raise ValueError("label counts must be positive")
    total = 0
    k = 0
    while True:
        total += tier_pattern_count(k, d_h)
        if total >= d_g:
            return k
        k += 1


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
    out: list[Pattern] = []
    m = 0
    while len(out) < count:
        out.extend(tier_patterns(d_h, m))
        m += 1
    return out[:count]


def _apply_pattern(label: int, pattern: Pattern) -> int:
    sources, targets = pattern
    for s, t in zip(sources, targets):
        if label == s:
            return t
    return label


# -- vertex labelings --------------------------------------------------------


def block_product_labeling(
    g: Graph, h: Graph, lg: Sequence[int], lh: Sequence[int]
) -> VertexLabeling:
    """Label copy i of H by lh shifted into its own block of d_h labels.

    Uses |V(G)| * d_h labels: disjoint blocks force every copy onto itself,
    and each copy is internally distinguishing.  Only the vertex order of G
    matters to the output; lg is validated but not consulted.
    """
    if not is_distinguishing(g, lg):
        raise ValueError("lg is not a distinguishing labeling of g")
    if not is_distinguishing(h, lh):
        raise ValueError("lh is not a distinguishing labeling of h")
    d_h = max(lh, default=1)
    return [lh[x] + a * d_h for a in range(g.n) for x in range(h.n)]


def pattern_product_labeling(
    g: Graph, h: Graph, lg: Sequence[int], lh: Sequence[int]
) -> VertexLabeling:
    """Label G[H] with at most d_h + M labels via per-class replacements.

    G's vertices are split into classes by their lg label; all copies in one
    class carry lh transformed by that class's replacement pattern, patterns
    assigned in canonical tier order.  Requires the product's automorphism
    group to be the wreath action (no copy-mixing automorphisms).
    """
    if not sabidussi_equal(g, h):
        raise ValueError("product automorphisms exceed the wreath action")
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
    out = [0] * (2 * n + 1)
    out[0] = 1
    for j in range(n):
        out[2 * j + 1] = j // r + 1
        out[2 * j + 2] = j % r + 1
    return out


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


def power_distinguishing_bounds(g: Graph, k: int) -> tuple[int, int]:
    """(lower, upper) bounds on the distinguishing number of the k-th power.

    (D(G), D(G) + k - 1) when D(G) > 1, else (1, 1).  Requires the square's
    automorphism group to be the wreath action.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not sabidussi_equal(g, g):
        raise ValueError("square automorphisms exceed the wreath action")
    got = distinguishing_number(g)
    assert got is not None
    d_g = got[0]
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
    g: Graph, h: Graph, lg: EdgeLabeling, lh: EdgeLabeling
) -> EdgeLabeling:
    """Every copy of H carries lh; every cross edge inherits its G-edge label.

    Uses max(d_g, d_h) labels.  Requires connected factors, the wreath action
    and that neither factor is a single edge: a lone edge cannot pin its copy
    internally, and a single-edge base is only pinned by vertex-asymmetric
    labels, which a one-edge labeling can never supply (its swap survives
    into the product).  So does a swap of a disconnected factor that moves
    no edge, such as that of a K2 component's ends: K3[K1 + K2] keeps it.
    """
    if not is_connected(g) or not is_connected(h):
        raise ValueError("both factors must be connected")
    if h.n == 2 and h.m == 1:
        raise ValueError("second factor must not be a single edge")
    if g.n == 2 and g.m == 1:
        raise ValueError("single-edge base needs the dedicated doubled-factor labeling")
    if not sabidussi_equal(g, h):
        raise ValueError("product automorphisms exceed the wreath action")
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
    """n cross-label columns over 1..d for pendant copies of a single edge.

    Column entries label the four edges from the two center vertices to one
    copy's two vertices.  Constraints: no column invariant under the copy's
    internal swap (first two entries equal and last two equal), no two
    columns related by that swap, and the first column's two images under
    the center swap are banned pool-wide so the center cannot flip.
    """
    first = (1, 1, 1, 2)
    if d < 2:
        return None

    def copy_swap(s):
        return (s[1], s[0], s[3], s[2])

    def center_swap(s):
        return (s[2], s[3], s[0], s[1])

    banned = {center_swap(first), center_swap(copy_swap(first))}
    cols = [first]
    used = {first, copy_swap(first)}
    if n == 1:
        return cols
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
    n: int, h: Graph, lh: EdgeLabeling
) -> EdgeLabeling:
    """Edge labeling of the product of a star with H.

    All copies carry lh; the cross edges from the center copy to pendant
    copy j follow column j of a label matrix whose columns are pairwise
    distinct, drawn over d = ceil(n^(1/m^2)) labels.  For two-vertex H the
    columns must additionally break the in-copy and center swaps, which can
    force one extra label (always when n = d^(m^2), where plain sequences
    run out).
    """
    if n < 2:
        raise ValueError("star needs at least two pendant vertices")
    m = h.n
    if m < 2:
        raise ValueError("second factor needs at least two vertices")
    if not is_connected(h):
        raise ValueError("second factor must be connected")
    if not sabidussi_equal(star(n), h):
        raise ValueError("product automorphisms exceed the wreath action")
    if not is_distinguishing_edges(h, lh):
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
    out: list[tuple[int, int, int, int]] = []
    m = 2
    while len(out) < count:
        out.extend(bundle_tier_tuples(m))
        m += 1
    return out[:count]


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


def p2_product_edge_labeling(g: Graph, lg: EdgeLabeling) -> EdgeLabeling:
    """Edge labeling of the product of G with a single edge.

    Each G-edge is replaced by a four-edge bundle; all bundles of one lg
    class share one pattern, classes take patterns in canonical tier order,
    and the two vertices of every copy are joined by a label-1 edge.
    Requires G to have no closed twins (otherwise copy-mixing automorphisms
    appear) and uses bundle_label_budget(max label of lg) labels.
    """
    p2 = path(2)
    if not sabidussi_equal(g, p2):
        raise ValueError("product automorphisms exceed the wreath action")
    if not is_distinguishing_edges(g, lg):
        raise ValueError("lg is not a distinguishing edge labeling of g")
    d_g = max(lg.values(), default=0)
    patterns = bundle_sequence(d_g) if d_g else []
    return _product_edge_labeling(
        g, p2, lambda a, k, e: 1, lambda a, b, x, y: patterns[lg[(a, b)] - 1][2 * x + y])


def two_label_edge_labeling(g: Graph, h: Graph) -> EdgeLabeling:
    """Two-label edge labeling of G[H] when G has at most |E(H)| + 1 vertices.

    Copy i carries i label-1 edges (a prefix of H's canonical edge order),
    so copies cannot be interchanged; within each G-edge's block, the p-th
    vertex of the lower copy sends p label-2 edges into the higher copy,
    pinning every copy internally.  A one-vertex G is refused when H has an
    edge: then G[H] is H, and copy 0 would carry label 2 alone.
    """
    if not is_connected(g) or not is_connected(h):
        raise ValueError("both factors must be connected")
    if g.n > h.m + 1:
        raise ValueError("first factor too large: needs |V(G)| <= |E(H)| + 1")
    if g.n == 1 and h.m > 0:
        raise ValueError("first factor too small: needs 2 <= |V(G)| when H has an edge")
    if not sabidussi_equal(g, h):
        raise ValueError("product automorphisms exceed the wreath action")
    return _product_edge_labeling(
        g, h, lambda a, k, e: 1 if k < a else 2, lambda a, b, x, y: 2 if y < x else 1)


def power_edge_labeling(g: Graph, k: int) -> EdgeLabeling:
    """Two-label edge labeling of the k-th lexicographic power, k >= 2.

    Applies the two-label product scheme with the (k-1)-th power as the
    second factor, which checks its size condition and connectivity.  The
    wreath action on the square, checked first, is the scheme's own wreath
    condition: G^(k-1) and its complement are connected iff G's are.
    """
    if k < 2:
        raise ValueError("powers start at k = 2")
    if not sabidussi_equal(g, g):
        raise ValueError("square automorphisms exceed the wreath action")
    return two_label_edge_labeling(g, lex_power(g, k - 1))
