"""Exact distinguishing number and distinguishing index by minimal-d search.

Vertex labelings are searched over restricted-growth sequences (each new
label value first appears in vertex order), which kills the label-relabeling
symmetry while preserving exactness.  Both searches prune a branch as soon
as some automorphism is guaranteed to preserve every extension of the
current prefix.  The edge search takes those automorphisms from the
enumerated group.  The vertex search takes them from its own refuted
leaves: each certificate sigma is kept as (last moved vertex, image), and a
prefix of length k > last dies when buf[sigma(v)] == buf[v] for every
v <= last.  sigma fixes every unlabeled vertex, so it preserves every
extension too.  Certificates are automorphisms of the bare graph, so they
stay valid across all label counts d.  A pruned subtree holds no
distinguishing labeling, and both searches visit candidates in
lexicographic order, so the returned witness is still the lexicographically
least successful labeling.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .autosearch import (
    ColoredGraph,
    DEFAULT_AUT_CAP,
    SearchStats,
    _search,
    enumerate_automorphisms,
    find_preserving,
    find_preserving_edges,
)
from .graph import Graph

VertexLabeling = list[int]
EdgeLabeling = dict[tuple[int, int], int]


def validate_vertex_labeling(g: Graph, labels: Sequence[int], d: int | None = None) -> None:
    if len(labels) != g.n:
        raise ValueError(f"{len(labels)} labels for {g.n} vertices")
    top = d if d is not None else max(labels, default=1)
    for v, val in enumerate(labels):
        if not 1 <= val <= top:
            raise ValueError(f"vertex {v}: label {val} outside 1..{top}")


def validate_edge_labeling(g: Graph, labels: EdgeLabeling, d: int | None = None) -> None:
    if set(labels) != set(g.edge_list()):
        raise ValueError("labeling domain must equal the edge set exactly")
    top = d if d is not None else max(labels.values(), default=1)
    for e, val in labels.items():
        if not 1 <= val <= top:
            raise ValueError(f"edge {e}: label {val} outside 1..{top}")


def is_distinguishing(g: Graph, labels: Sequence[int]) -> bool:
    """True iff no nontrivial automorphism preserves every vertex label."""
    validate_vertex_labeling(g, labels)
    got, _ = find_preserving(ColoredGraph(g, tuple(labels)), exclude_identity=True)
    return got is None


def is_distinguishing_edges(g: Graph, labels: EdgeLabeling) -> bool:
    """True iff no automorphism moving an edge preserves every edge label."""
    validate_edge_labeling(g, labels)
    return find_preserving_edges(g, labels, exclude_identity=True) is None


def _twin_pairs(g: Graph) -> list[tuple[int, int]]:
    """Pairs whose transposition is an automorphism (open or closed twins)."""
    bits = g.adjacency_bits
    out = []
    for v in range(g.n):
        for w in range(v + 1, g.n):
            both = ~((1 << v) | (1 << w))
            if bits[v] & both == bits[w] & both:
                out.append((v, w))
    return out


def distinguishing_number(
    g: Graph, d_max: int | None = None
) -> Optional[tuple[int, VertexLabeling]]:
    """Least d admitting a distinguishing d-labeling, with its witness.

    Returns None when no distinguishing labeling with at most ``d_max``
    labels exists.  The default cap, the vertex count, always suffices.
    The witness is the lexicographically least successful restricted-growth
    labeling.
    """
    n = g.n
    if d_max is None:
        d_max = max(n, 1)
    if d_max < 1:
        raise ValueError("d_max must be positive")
    if n == 0:
        return 1, []
    # A same-labeled twin pair is preserved by its transposition whatever
    # the rest of the labeling does, so the whole prefix subtree is dead.
    twins_at: list[list[int]] = [[] for _ in range(n)]
    for v, w in _twin_pairs(g):
        twins_at[w].append(v)
    adj = g.adjacency_bits
    ident = tuple(range(n))
    accept = lambda s: s != ident  # noqa: E731
    buf = [0] * n
    # leaf certificates as (last moved vertex, image); valid for every d
    certs: list[tuple[int, tuple[int, ...]]] = []

    def rec(k: int, top: int, d: int) -> bool:
        # requires top == d by the end: strings with a smaller maximum were
        # already covered (and refuted) at their own level
        if d - top > n - k:
            return False
        for last, img in certs:
            if last < k and all(buf[img[v]] == buf[v] for v in range(last + 1)):
                return False
        if k == n:
            got = _search(adj, n, buf, accept, False, 0, SearchStats())
            if got is None:
                return True
            img = got.image
            certs.append((max(v for v in range(n) if img[v] != v), img))
            return False
        hi = min(d, top + 1)
        partners = twins_at[k]
        for val in range(1, hi + 1):
            if any(buf[u] == val for u in partners):
                continue
            buf[k] = val
            if rec(k + 1, max(top, val), d):
                return True
        return False

    for d in range(1, d_max + 1):
        if rec(0, 0, d):
            return d, list(buf)
    return None


# -- edge index -------------------------------------------------------------


def _edge_actions(g: Graph, aut_cap: int) -> list[tuple[int, ...]]:
    """Distinct nontrivial edge permutations induced by Aut(g)."""
    edges = g.edge_list()
    index = {e: i for i, e in enumerate(edges)}
    ident = tuple(range(len(edges)))
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for p in enumerate_automorphisms(g, cap=aut_cap):
        img = p.image
        ep = tuple(
            index[(img[u], img[v])] if img[u] < img[v] else index[(img[v], img[u])]
            for u, v in edges
        )
        if ep != ident and ep not in seen:
            seen.add(ep)
            out.append(ep)
    return out


def _edge_scan(m: int, eperms: list[tuple[int, ...]], d: int) -> Optional[list[int]]:
    """Lex-least restricted-growth edge labeling over 1..d (max exactly d)
    killed by no listed edge permutation, or None.

    A permutation whose constraints all lie inside the labeled prefix and
    that still preserves it will preserve every extension, so that subtree
    is pruned.
    """
    if d > m:
        return None
    resolved: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    dies_at: list[list[int]] = [[] for _ in range(m)]
    for s, ep in enumerate(eperms):
        last = 0
        for i in range(m):
            j = ep[i]
            if j != i:
                k = i if i > j else j
                resolved[k].append((s, i, j))
                if k > last:
                    last = k
        dies_at[last].append(s)

    alive = [True] * len(eperms)
    buf = [0] * m
    sol: Optional[list[int]] = None

    def rec(k: int, top: int) -> bool:
        nonlocal sol
        if d - top > m - k:
            return False
        hi = min(d, top + 1)
        res_k = resolved[k]
        die_k = dies_at[k]
        for val in range(1, hi + 1):
            buf[k] = val
            killed = []
            for s, i, j in res_k:
                if alive[s] and buf[i] != buf[j]:
                    alive[s] = False
                    killed.append(s)
            if not any(alive[s] for s in die_k):
                if k + 1 == m:
                    if max(top, val) == d:
                        sol = list(buf)
                        for s in killed:
                            alive[s] = True
                        return True
                elif rec(k + 1, max(top, val)):
                    for s in killed:
                        alive[s] = True
                    return True
            for s in killed:
                alive[s] = True
        return False

    rec(0, 0)
    return sol


def distinguishing_index(
    g: Graph, d_max: int | None = None, aut_cap: int = DEFAULT_AUT_CAP
) -> Optional[tuple[int, EdgeLabeling]]:
    """Least d admitting a distinguishing edge d-labeling, with its witness.

    Requires at least one edge.  When every automorphism acts trivially on
    the edge set the constant labeling already distinguishes and the result
    is 1.  Needs the automorphism group enumerated, so graphs past
    ``aut_cap`` raise CapExceededError.
    """
    edges = g.edge_list()
    m = len(edges)
    if m == 0:
        raise ValueError("distinguishing index needs at least one edge")
    if d_max is None:
        d_max = m
    if d_max < 1:
        raise ValueError("d_max must be positive")
    eperms = _edge_actions(g, aut_cap)
    if not eperms:
        return 1, {e: 1 for e in edges}
    for d in range(2, d_max + 1):
        lab = _edge_scan(m, eperms, d)
        if lab is not None:
            return d, {e: lab[i] for i, e in enumerate(edges)}
    return None
