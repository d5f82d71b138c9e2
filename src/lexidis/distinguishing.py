"""Exact distinguishing number and distinguishing index by minimal-d search.

One body, ``_oracle``, answers both.  For d = 1, 2, ... it visits the
restricted-growth labelings with maximum d (each new label first appears
in position order, which kills the relabeling symmetry) in lexicographic
order and returns the first that no automorphism preserves.  D and D'
differ only in three things, which their callers pass in: the positions,
the vertices of G for D(G) (Albertson & Collins 1996) and its edges, in
``edge_list()`` order, for D'(G) (Kalinowski & Pilsniak 2015); a vertex
permutation's action on them; and the leaf search, ``_search`` for D and
``_edge_search`` for D'.  Neither oracle lists Aut(G).

The walk keeps a list of automorphisms, acting on the positions.  It
starts from the action of the swaps (v w) of each twin class's consecutive
members, which generate the class's symmetric group, leaving out any swap
that moves no position.  Each leaf that survives the prunes below goes to
one leaf search: the first automorphism preserving the labels that moves a
position, in search order.  Its action refutes the leaf and is kept for
every later d (it comes from an automorphism of the bare graph and moves a
position, so it is nontrivial).  It fixes every position after its last
moved one, so it preserves every labeling that agrees with the leaf up to
there, and the walk backjumps to that position.

A kept permutation p with last moved position k maps the positions 0..k
onto themselves, so a prefix P through k decides one rule for every
extension E of P.  Write (E o p)[i] = E[p[i]], and NF for the
restricted-growth normal form, which renames the labels in the order they
first appear.  The walk drops P when NF(P o p) <= P on the positions up
to k, where equality means P o p = P:
- equal: p preserves P, so p preserves E (counted as preserved);
- smaller: E o p agrees with E after k, so NF(E o p) < E (image).
NF(P o p) = P by a renaming alone keeps P, as the renaming need not hold
past k.  A second prune needs no permutation.
- Reach-d: max(top, val) + (m - k - 1) < d, for the value val at k and
  the largest label top before k; no extension of P reaches maximum d.
The first names the permutation it used.

Why the witness is the lexicographically least distinguishing labeling
with the least d.  p is an automorphism, so E o p is distinguishing iff E
is, and so is its renaming E' = NF(E o p), which has the same maximum as E.
So every labeling the rule drops is preserved by the nontrivial
automorphism p, or has a smaller distinguishing E' of the same maximum, or
is not distinguishing itself; the backjump drops only labelings that a
nontrivial automorphism preserves; and the reach-d prune drops only
labelings of a smaller maximum, which their own levels have ruled out (the
levels run in order, each to exhaustion).  So the least distinguishing
labeling with maximum d is never dropped, every leaf before it is
refuted, and it is the first accepted leaf.

Two forms make the rule cheap.
- A transposition (v w), v < w, needs no normal form.  P o p agrees with P
  but at v and w; p preserves P if P[w] = P[v], and a label P[w] < P[v]
  appears before v and keeps its name, so then NF(P o p) < P.  At w the
  walk requires a value above buf[v], the twin floor, in O(1) per value.
  For D the seeds are then only each twin class's consecutive pairs: their
  floors order the class strictly, which is every drop of all its pairs.
  For D' a twin swap exchanges the edges vx and wx for each shared
  neighbor x, so degree-one twins give edge transpositions and take the
  same floor chain.  The other swaps stay image rules, which need not imply
  those of the class's other pairs; leaving those out only drops fewer
  labelings, which may cost leaf searches but not the witness, as the
  argument above holds for any set of kept automorphisms.
- Any other permutation is compared once per value tried at k.  P o p
  and P can first differ only at a position p moves, so the compare scans
  those for the first i with P[p[i]] != P[i], and finds none when p
  preserves P; before i the normal form is P itself and the labels up to
  the top before i keep their names, and from i on it renames the others.
"""
from __future__ import annotations

from itertools import compress, pairwise
from operator import ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .autosearch import (
    SearchStats,
    _check_edge_domain,
    _edge_search,
    _search,
    find_preserving,
    find_preserving_edges,
)
from .graph import Graph, closed_twin_partition, open_twin_partition
from .permgroup import Perm

VertexLabeling = list[int]
EdgeLabeling = dict[tuple[int, int], int]
Refuter = Callable[[list[int]], Optional[tuple[int, ...]]]


def _check_values(kind: str, keys: Iterable[object], labels: Iterable[int]) -> None:
    """Refuse the first label below 1, named by its key in the range 1..max."""
    for key, val in zip(keys, labels):
        if val < 1:
            raise ValueError(f"{kind} {key}: label {val} outside 1..{max(labels)}")


def validate_vertex_labeling(g: Graph, labels: Sequence[int]) -> None:
    if len(labels) != g.n:
        raise ValueError(f"{len(labels)} labels for {g.n} vertices")
    _check_values("vertex", range(g.n), labels)


def _check_edge_values(labels: EdgeLabeling) -> None:
    _check_values("edge", labels, labels.values())


def validate_edge_labeling(g: Graph, labels: EdgeLabeling) -> None:
    _check_edge_values(labels)
    _check_edge_domain(g, labels)


def is_distinguishing(g: Graph, labels: Sequence[int]) -> bool:
    """True iff no nontrivial automorphism preserves every vertex label."""
    validate_vertex_labeling(g, labels)
    got, _ = find_preserving(g, labels)
    return got is None


def is_distinguishing_edges(g: Graph, labels: EdgeLabeling) -> bool:
    """True iff no automorphism moving an edge preserves every edge label."""
    _check_edge_values(labels)
    return find_preserving_edges(g, labels) is None


def _twin_pairs(g: Graph) -> Iterator[tuple[int, int]]:
    """The consecutive pairs v < w of each class of open or closed twins;
    each transposition (v w) is an automorphism, and a class's pairs
    generate its symmetric group."""
    for cls in (*open_twin_partition(g), *closed_twin_partition(g)):
        yield from pairwise(cls)


def _image_rank(
    p: Sequence[int], moved: list[int], k: int, buf: list[int], top: list[int]
) -> int:
    """Compare NF(buf o p) with buf on the positions up to k, where
    ``moved`` lists the positions p moves, ascending, and top[i] is the
    largest label before i: 0 when buf o p = buf there, -1 when NF(buf o p)
    is smaller, else 1, also when the two are equal only by a renaming."""
    for i in moved:
        if buf[p[i]] != buf[i]:
            break
    else:
        return 0
    # NF(buf o p) is buf before i, and there the labels up to top[i] keep
    # their names; a fixed position after i can still differ by a renaming
    t = top[i]
    names: dict[int, int] = {}
    for i in range(i, k + 1):
        x = buf[p[i]]
        if x > t:
            x = names.setdefault(x, t + len(names) + 1)
        if x != buf[i]:
            return -1 if x < buf[i] else 1
    return 1


class _Walk:
    """State of one restricted-growth walk; see ``_oracle``.

    A transposition (v w) is kept as the floor v at w, any other
    permutation with its moved positions at its last moved position, where
    ``_image_rank`` decides its rule.  Each level adds its work to the
    question's one ``stats``: values placed (steps), leaves refuted or
    accepted, values dropped by each prune, and refuted leaves whose
    certificate backjumped past the last position.
    """

    __slots__ = ("refute", "m", "floors", "images", "buf", "stats")

    def __init__(self, m: int, refute: Refuter, stats: SearchStats) -> None:
        self.refute = refute
        self.m = m
        self.floors: list[list[int]] = [[] for _ in range(m)]
        # (p, its moved positions) at p's last moved position
        self.images: list[list[tuple[Sequence[int], list[int]]]] = [[] for _ in range(m)]
        self.buf = [0] * m
        self.stats = stats

    def add(self, p: Sequence[int]) -> int:
        """Track the nontrivial permutation p; returns its last moved position."""
        moved = list(compress(range(self.m), map(ne, p, range(self.m))))
        last = moved[-1]
        if len(moved) == 2:
            self.floors[last].append(moved[0])
        else:
            self.images[last].append((p, moved))
        return last

    def walk(self, d: int) -> bool:
        """Whether some labeling with maximum d survives, the first left in
        ``buf``.  A loop, not a recursion: position k keeps its value buf[k]
        and the top before it; a refuted leaf pops back to its certificate's
        last moved position, which tries its next value.  A value is dropped
        by reach-d, then by the twin floor, then by the first permutation
        kept at k, in the order kept, whose image ranks it <= 0; the module
        docstring argues that none drops the witness.
        """
        m, buf, floors, images = self.m, self.buf, self.floors, self.images
        top = [0] * (m + 1)  # top[k]: the largest label at positions < k
        steps = leaves = preserved = floored = imaged = reached = jumps = 0
        k, fresh = 0, True
        while k >= 0:
            t = top[k]
            hi = t + 1 if t < d else d
            if fresh:
                # the reach-d and floor bounds hold for the whole visit, so
                # only its first value needs them
                val = d - m + k + 1  # the least value that can still reach d
                if val > t:
                    reached += min(val, hi + 1) - 1
                else:
                    val = 1
                if floors[k]:
                    lo = max([buf[v] for v in floors[k]]) + 1
                    if lo > val:
                        floored += min(lo, hi + 1) - val
                        val = lo
            else:
                val = buf[k] + 1
            while val <= hi:
                buf[k] = val
                for p, moved in images[k]:
                    rank = _image_rank(p, moved, k, buf, top)
                    if rank <= 0:
                        break
                else:
                    break
                if rank:
                    imaged += 1
                else:
                    preserved += 1
                val += 1
            if val > hi:
                k, fresh = k - 1, False
                continue
            steps += 1
            top[k + 1] = val if val > t else t
            if k + 1 < m:
                k, fresh = k + 1, True
                continue
            leaves += 1
            got = self.refute(buf)
            if got is None:
                break
            last = self.add(got)
            if last < k:
                jumps += 1
            k, fresh = last, False
        stats = self.stats
        stats.steps += steps
        stats.leaves += leaves
        stats.preserved += preserved
        stats.twin_floor += floored
        stats.image += imaged
        stats.reach_d += reached
        stats.backjump += jumps
        return k >= 0


def _oracle(
    g: Graph, m: int, action: Callable[[Sequence[int]], tuple[int, ...]],
    search: Callable[[list[int], SearchStats], Optional[Perm]], d_max: int | None,
) -> Optional[tuple[int, list[int]]]:
    """Least d <= d_max and the lex-least restricted-growth labeling with
    maximum d of g's m positions that no automorphism of g preserves, or None.

    ``action`` maps a vertex permutation to its action on the positions;
    ``search(labels, stats)`` is the leaf search, which returns the first
    automorphism that preserves the labels and moves a position, or None.
    One ``SearchStats`` holds the work of the walk and of every leaf
    search.  The default cap, max(m, 1), always suffices, and no positions
    give (1, []).
    """
    if d_max is None:
        d_max = max(m, 1)
    if d_max < 1:
        raise ValueError("d_max must be positive")
    stats = SearchStats()
    if m == 0:
        return 1, []

    def refute(labels: list[int]) -> Optional[tuple[int, ...]]:
        got = search(labels, stats)
        return None if got is None else action(got.image)

    walk = _Walk(m, refute, stats)
    ident = tuple(range(m))
    for v, w in _twin_pairs(g):
        img = list(range(g.n))
        img[v], img[w] = w, v
        p = action(img)
        # a twin swap moves no edge only on a K2 component or two isolated vertices
        if p != ident:
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
    return _oracle(g, g.n, tuple, lambda labels, stats: _search(g, labels, stats), d_max)


# -- edge index -------------------------------------------------------------


def distinguishing_index(
    g: Graph, d_max: int | None = None, aut_cap: int | None = None
) -> Optional[tuple[int, EdgeLabeling]]:
    """Least d admitting a distinguishing edge d-labeling, with its witness.

    Returns None when no distinguishing edge labeling with at most ``d_max``
    labels exists; the default cap, the edge count, always suffices.
    Requires at least one edge.  ``aut_cap`` is accepted for old callers and
    ignored, as there is no group listing left to cap.
    """
    edges = g.edge_list()
    m = len(edges)
    if m == 0:
        raise ValueError("distinguishing index needs at least one edge")
    # index[u][v] = index[v][u]: the position of edge uv
    index = [[0] * g.n for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        index[u][v] = index[v][u] = i

    def action(img: Sequence[int]) -> tuple[int, ...]:
        return tuple([index[img[u]][img[v]] for u, v in edges])

    got = _oracle(
        g, m, action, lambda labels, stats: _edge_search(g, edges, labels, stats), d_max)
    return None if got is None else (got[0], dict(zip(edges, got[1])))
