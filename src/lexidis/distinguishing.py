"""Exact distinguishing number and distinguishing index by minimal-d search.

One walker, ``_least_labeling``, answers both.  For d = 1, 2, ... it visits
the restricted-growth labelings (each new label first appears in position
order, which kills the relabeling symmetry) in lexicographic order and
returns the first that no known permutation preserves.  A permutation's
alive flag clears while the prefix breaks one of its cycles; a prefix that
reaches its last moved position with the flag set dies, since the
permutation then preserves every extension.

Both oracles ask it the same question on a graph given by bit rows whose
positions at or after an offset carry the labels: D(G) asks it on G's rows
with offset 0, and D'(G) on the subdivision's rows with offset n, where
vertex n + k stands for edge k and the original vertices take color 0,
below every label.  Neither lists Aut(G).  The walk starts from the twin
transpositions: as vertex permutations for D(G) (Albertson & Collins
1996), as edge permutations for D'(G) (Kalinowski & Pilsniak 2015),
leaving out any swap that fixes every edge.  Each leaf that survives them
goes to one automorphism search, ``_search``, for the first
color-preserving automorphism that moves a labeled position; it is the
search ``find_preserving`` and ``find_preserving_edges`` run.  Its action
on the labeled positions refutes the leaf and is kept for every later d
(it comes from an automorphism of the bare graph and moves a position, so
it is nontrivial).  It fixes every position after its last moved one, so
it preserves every labeling that agrees with the leaf up to there, and the
walk backjumps to that position.
Everything skipped is preserved by a nontrivial automorphism and the walk
is lexicographic, so the first accepted leaf is the lexicographically
least distinguishing labeling with the least d.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .autosearch import (
    ColoredGraph,
    SearchStats,
    _search,
    _subdivision_bits,
    find_preserving,
    find_preserving_edges,
)
from .graph import Graph

VertexLabeling = list[int]
EdgeLabeling = dict[tuple[int, int], int]


def validate_vertex_labeling(g: Graph, labels: Sequence[int]) -> None:
    if len(labels) != g.n:
        raise ValueError(f"{len(labels)} labels for {g.n} vertices")
    top = max(labels, default=1)
    for v, val in enumerate(labels):
        if val < 1:
            raise ValueError(f"vertex {v}: label {val} outside 1..{top}")


def validate_edge_labeling(g: Graph, labels: EdgeLabeling) -> None:
    if set(labels) != set(g.edge_list()):
        raise ValueError("labeling domain must equal the edge set exactly")
    top = max(labels.values(), default=1)
    for e, val in labels.items():
        if val < 1:
            raise ValueError(f"edge {e}: label {val} outside 1..{top}")


def is_distinguishing(g: Graph, labels: Sequence[int]) -> bool:
    """True iff no nontrivial automorphism preserves every vertex label."""
    validate_vertex_labeling(g, labels)
    got, _ = find_preserving(ColoredGraph(g, tuple(labels)))
    return got is None


def is_distinguishing_edges(g: Graph, labels: EdgeLabeling) -> bool:
    """True iff no automorphism moving an edge preserves every edge label."""
    validate_edge_labeling(g, labels)
    return find_preserving_edges(g, labels) is None


def _twin_pairs(g: Graph) -> Iterator[tuple[int, ...]]:
    """Transpositions of open or closed twins, each an automorphism."""
    bits = g.adjacency_bits
    for v in range(g.n):
        for w in range(v + 1, g.n):
            both = ~((1 << v) | (1 << w))
            if bits[v] & both == bits[w] & both:
                swap = list(range(g.n))
                swap[v], swap[w] = w, v
                yield tuple(swap)


class _Walk:
    """State of one restricted-growth walk; see ``_least_labeling``.

    A permutation preserves a labeling when every moved position j has the
    label of low(j), the least position of its cycle.  The pair at the last
    moved position decides the prune; earlier pairs clear the alive flag.
    """

    __slots__ = ("bits", "offset", "m", "checks", "dies", "alive", "buf", "jump")

    def __init__(self, bits: Sequence[int], offset: int) -> None:
        m = len(bits) - offset
        self.bits = bits
        self.offset = offset
        self.m = m
        self.checks: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        self.dies: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        self.alive: list[bool] = []
        self.buf = [0] * m
        self.jump = m  # where to resume after a leaf certificate; m when none is pending

    def add(self, p: tuple[int, ...]) -> int:
        """Track permutation p; returns its last moved position."""
        s = len(self.alive)
        self.alive.append(True)
        low = list(range(self.m))
        last = 0
        for i, j in enumerate(p):
            if j > i and low[i] == i:
                while j != i:
                    low[j] = i
                    if j > last:
                        last = j
                    j = p[j]
        for j in range(last):
            if low[j] != j:
                self.checks[j].append((s, low[j]))
        self.dies[last].append((s, low[last]))
        return last

    def rec(self, k: int, top: int, d: int) -> bool:
        # requires top == d by the end: strings with a smaller maximum were
        # already covered (and refuted) at their own level
        m = self.m
        if d - top > m - k:
            return False
        buf, alive = self.buf, self.alive
        if k == m:
            off = self.offset
            got = _search(self.bits, off + m, [0] * off + buf, off, SearchStats())
            if got is None:
                return True
            self.jump = self.add(tuple(x - off for x in got.image[off:]))
            return False
        chk = self.checks[k]
        # a live permutation whose last pair lands here bans its low label;
        # the set holds for the whole loop, as those flags depend only on
        # positions < k, and a certificate added with its last pair here
        # bans just the value it refuted
        banned = {buf[i] for s, i in self.dies[k] if alive[s]}
        for val in range(1, min(d, top + 1) + 1):
            if val in banned:
                continue
            buf[k] = val
            killed = [s for s, i in chk if alive[s] and buf[i] != val]
            for s in killed:
                alive[s] = False
            hit = self.rec(k + 1, max(top, val), d)
            for s in killed:
                alive[s] = True
            if hit:
                return True
            if self.jump < k:
                return False
            self.jump = m
        return False


def _least_labeling(
    bits: Sequence[int], offset: int, d_max: int, perms: Iterable[tuple[int, ...]]
) -> Optional[tuple[int, list[int]]]:
    """Least d <= d_max and the lex-least restricted-growth labeling with
    maximum d of the positions at or after ``offset`` of the graph with
    rows ``bits`` (position offset + i is label i) that is preserved by no
    permutation of ``perms`` and by no automorphism moving a labeled
    position, or None.

    Each leaf that ``perms`` leaves goes to ``_search``, with color 0 on
    the positions before ``offset``.  The action on the labeled positions
    of the automorphism it finds is kept for every later d, and the walk
    resumes at its last moved position.
    """
    walk = _Walk(bits, offset)
    for p in perms:
        walk.add(p)
    for d in range(1, d_max + 1):
        if walk.rec(0, 0, d):
            return d, list(walk.buf)
    return None


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
    return _least_labeling(g.adjacency_bits, 0, d_max, _twin_pairs(g))


# -- edge index -------------------------------------------------------------


def distinguishing_index(
    g: Graph, d_max: int | None = None, aut_cap: int | None = None
) -> Optional[tuple[int, EdgeLabeling]]:
    """Least d admitting a distinguishing edge d-labeling, with its witness.

    Returns None when no distinguishing edge labeling with at most ``d_max``
    labels exists; the default cap, the edge count, always suffices.
    Requires at least one edge.  The walk starts from the edge actions of
    the twin transpositions and refutes each surviving leaf with the search
    of ``find_preserving_edges`` on the subdivision, so Aut(g) is never
    listed.  ``aut_cap`` is accepted for old callers and ignored, as there
    is no group listing left to cap.
    """
    edges = g.edge_list()
    m = len(edges)
    if m == 0:
        raise ValueError("distinguishing index needs at least one edge")
    if d_max is None:
        d_max = m
    if d_max < 1:
        raise ValueError("d_max must be positive")
    index = {e: i for i, e in enumerate(edges)}
    ident = tuple(range(m))

    def action(img: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            index[(img[u], img[v])] if img[u] < img[v] else index[(img[v], img[u])]
            for u, v in edges
        )

    # a twin swap fixes every edge only on a K2 component or two isolated vertices
    seeds = (ep for ep in map(action, _twin_pairs(g)) if ep != ident)
    got = _least_labeling(_subdivision_bits(g, edges), g.n, d_max, seeds)
    if got is None:
        return None
    d, lab = got
    return d, dict(zip(edges, lab))
