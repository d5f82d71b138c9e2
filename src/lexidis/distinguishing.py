"""Exact distinguishing number and distinguishing index by minimal-d search.

One walker, ``_least_labeling``, answers both.  For d = 1, 2, ... it visits
the restricted-growth labelings (each new label first appears in position
order, which kills the relabeling symmetry) in lexicographic order and
returns the first that no known permutation preserves.  A permutation's
alive flag clears while the prefix breaks one of its cycles; a prefix that
reaches its last moved position with the flag set dies, since the
permutation then preserves every extension.

The positions are the vertices of G for D(G) and its edges, in
``edge_list()`` order, for D'(G); neither oracle lists Aut(G).  The walk
starts from the twin transpositions: as vertex permutations for D(G)
(Albertson & Collins 1996), as edge permutations for D'(G) (Kalinowski &
Pilsniak 2015), leaving out any swap that fixes every edge.  Each leaf
that survives them goes to one automorphism search, the one
``find_preserving`` runs for D and ``find_preserving_edges`` for D': the
first automorphism preserving the labels that moves a vertex, or an edge.
Its action on the positions refutes the leaf and is kept for every later
d (it comes from an automorphism of the bare graph and moves a position,
so it is nontrivial).  It fixes every position after its last moved one,
so it preserves every labeling that agrees with the leaf up to there, and
the walk backjumps to that position.
The levels run in order, each to exhaustion, so a level starts with every
labeling of a smaller maximum preserved by a kept permutation, and the
walk at level d bans each prefix that cannot reach d without a test of its
own (``_Walk.walk`` gives the argument).
Everything skipped is preserved by a nontrivial automorphism and the walk
is lexicographic, so the first accepted leaf is the lexicographically
least distinguishing labeling with the least d.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .autosearch import (
    SearchStats,
    _edge_search,
    _search,
    find_preserving,
    find_preserving_edges,
)
from .graph import Graph, closed_twin_partition, open_twin_partition

VertexLabeling = list[int]
EdgeLabeling = dict[tuple[int, int], int]
Refuter = Callable[[list[int]], Optional[tuple[int, ...]]]


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
    got, _ = find_preserving(g, labels)
    return got is None


def is_distinguishing_edges(g: Graph, labels: EdgeLabeling) -> bool:
    """True iff no automorphism moving an edge preserves every edge label."""
    validate_edge_labeling(g, labels)
    return find_preserving_edges(g, labels) is None


def _twin_pairs(g: Graph) -> Iterator[tuple[int, ...]]:
    """Transpositions of open or closed twins, each an automorphism."""
    for cls in (*open_twin_partition(g), *closed_twin_partition(g)):
        for v, w in combinations(cls, 2):
            swap = list(range(g.n))
            swap[v], swap[w] = w, v
            yield tuple(swap)


class _Walk:
    """State of one restricted-growth walk; see ``_least_labeling``.

    A permutation preserves a labeling when every moved position j has the
    label of low(j), the least position of its cycle.  The pair at the last
    moved position decides the prune; earlier pairs clear the alive flag.
    """

    __slots__ = ("refute", "m", "checks", "dies", "alive", "buf")

    def __init__(self, m: int, refute: Refuter) -> None:
        self.refute = refute
        self.m = m
        self.checks: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        self.dies: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        self.alive: list[bool] = []
        self.buf = [0] * m

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

    def walk(self, d: int) -> bool:
        """Whether some labeling with maximum d survives, the first left in
        ``buf``.  A loop, not a recursion: position k keeps its value buf[k],
        the top before it, the permutations that value killed and the labels
        banned there; a refuted leaf pops back to its certificate's last
        moved position, which tries its next value.

        Level invariant: ``_least_labeling`` runs d = 1, 2, ... in order,
        each to exhaustion, so when level d starts every labeling with
        maximum < d is preserved by a kept permutation (it was banned,
        skipped by a backjump or refuted at its own level).  So no prefix
        that cannot reach d survives, and no test for it is needed.  Take a
        prefix through position k with top t and t + (m - k - 1) < d, and
        extend it by the fresh labels t + 1, t + 2, ...: the result has
        maximum < d, so a kept p preserves it.  Each position after k holds
        a label used nowhere else, so p fixes it; p's last moved position is
        at most k, p preserves the prefix, and the walk bans the prefix at
        p's last moved position.
        """
        m, buf, alive = self.m, self.buf, self.alive
        checks, dies = self.checks, self.dies
        top = [0] * (m + 1)  # top[k]: the largest label at positions < k
        # position k's entries are set each time the walk enters k
        killed: list[list[int]] = [[]] * m
        banned: list[set[int]] = [set()] * m
        k, fresh = 0, True
        while k >= 0:
            if fresh:
                # a live permutation whose last pair lands here bans its low
                # label; the set holds while k advances, as those flags
                # depend only on positions < k, and a certificate added with
                # its last pair here bans just the value it refuted
                banned[k] = {buf[i] for s, i in dies[k] if alive[s]}
                killed[k] = []
                buf[k] = 0
            for s in killed[k]:
                alive[s] = True
            val = buf[k] + 1
            while val in banned[k]:
                val += 1
            if val > min(d, top[k] + 1):
                k, fresh = k - 1, False
                continue
            buf[k] = val
            killed[k] = [s for s, i in checks[k] if alive[s] and buf[i] != val]
            for s in killed[k]:
                alive[s] = False
            top[k + 1] = max(top[k], val)
            if k + 1 < m:
                k, fresh = k + 1, True
            else:
                got = self.refute(buf)
                if got is None:
                    return True
                last = self.add(got)
                for j in range(last + 1, m):
                    for s in killed[j]:
                        alive[s] = True
                k, fresh = last, False
        return False


def _least_labeling(
    m: int, refute: Refuter, d_max: int, perms: Iterable[tuple[int, ...]]
) -> Optional[tuple[int, list[int]]]:
    """Least d <= d_max and the lex-least restricted-growth labeling with
    maximum d of m positions that is preserved by no permutation of
    ``perms`` and that ``refute`` leaves, or None.

    ``refute`` takes each leaf that ``perms`` leaves and returns a
    nontrivial permutation of the positions preserving it, or None.  The
    permutation is kept for every later d, and the walk resumes at its last
    moved position.
    """
    walk = _Walk(m, refute)
    for p in perms:
        walk.add(p)
    for d in range(1, d_max + 1):
        if walk.walk(d):
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

    def refute(labels: list[int]) -> Optional[tuple[int, ...]]:
        got = _search(g, labels, SearchStats())
        return None if got is None else got.image

    return _least_labeling(n, refute, d_max, _twin_pairs(g))


# -- edge index -------------------------------------------------------------


def distinguishing_index(
    g: Graph, d_max: int | None = None, aut_cap: int | None = None
) -> Optional[tuple[int, EdgeLabeling]]:
    """Least d admitting a distinguishing edge d-labeling, with its witness.

    Returns None when no distinguishing edge labeling with at most ``d_max``
    labels exists; the default cap, the edge count, always suffices.
    Requires at least one edge.  The walk starts from the edge actions of
    the twin transpositions and refutes each surviving leaf with the edge
    action of the search ``find_preserving_edges`` runs, so Aut(g) is never
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

    def refute(labels: list[int]) -> Optional[tuple[int, ...]]:
        got = _edge_search(g, edges, labels, SearchStats())
        return None if got is None else action(got.image)

    got = _least_labeling(m, refute, d_max, seeds)
    if got is None:
        return None
    d, lab = got
    return d, dict(zip(edges, lab))
