"""Color-preserving automorphism search by partition refinement.

The engine answers two questions: does a colored graph admit a nontrivial
color-preserving automorphism (find one as a certificate), and what is the
automorphism group of a graph (a base, strong generators and the order).

Every certificate search asks one question: the first color-preserving
automorphism, in search order, that moves a position at or after an
offset.  Vertex colors use offset 0, so any nontrivial automorphism
counts.  Edge labels use the subdivision with offset n, so an automorphism
counts when it moves an edge; ``_subdivision_bits`` says why the original
vertices take a marker color below every label.

One walk answers both.  It refines the starting colors and individualizes
down the first path once, each level taking the least vertex of the
smallest non-singleton cell, until the coloring is discrete: those
vertices b1, ..., bk form a base.  Deepest level first, each w of b_i's
cell outside the orbit of b_i under the automorphisms found so far starts,
in ascending order, one subtree search with b_i mapped to w, which yields
an automorphism or proves that none maps b_i to w.  The source side of
every subtree is the stored first path: individualizing and refining is a
deterministic function of the coloring, so the source coloring at depth j
is always the first path's, and only the target side is refined, by
replaying the first path's trace per choice; each leaf is compared with
the first path's discrete coloring and re-verified by a naive check.  A
certificate is the first yield: until then every orbit is its base point
alone, so the leaves come in the order of a depth-first search that tries
the identity branch first.  Aut(G) drains the walk at offset 0; a finished
level's orbit is that of the stabilizer of b1..b(i-1), so the generators
are strong and |Aut(G)| is the product of the orbit lengths, with no
element list or Schreier-Sims step (McKay & Piperno 2014; Seress 2003).

Each refinement round counts a vertex's neighbours only in the round's
fresh classes: every class in the first round of a search, the rest of the
split cell after an individualization, and otherwise the new classes whose
parent class split in the previous round, each split class but its last
child.  A class that did not split is a vertex set of an earlier round, and
a count in it was fixed by an earlier key, which maps one-to-one to the
current color, on the source side and, while every earlier sorted list
matched, on the target side too.  A last child's count is its parent's
count, fixed the same way, minus its siblings' counts, which come just
before it (Hopcroft 1971 drops one child as a splitter; here it must be
the last, so that the order of the keys is kept as well).  So within a
color the restricted keys sort as the all-classes ones would, and across
colors the leading color decides: the colorings, rank maps, chosen cells,
bases and certificates are the same, at a cost per round that follows the
classes that changed (McKay & Piperno 2014) instead of all of them.

A round keys each vertex by its color and then its count in each fresh
class, in class order, and sorts the keys.  With at most
``_HORNER_MAX_CLASSES`` fresh classes, as in nearly every round after an
individualization, the key is one integer with a base-(n + 1) digit per
class.  With more, as in a first round or a cell split into singletons,
one integer would run to thousands of bits, so the key is a tuple of the
color and one small integer per class that the vertex's row reaches, which
names the class and the count and sorts as the packed integer would; such a
round costs its nonzero counts, not every (vertex, class) pair.  The
colorings follow the order of the keys only, and a replayed round builds
keys of the recorded kind, so the colorings, traces and certificates do not
depend on the choice.

``enumerate_automorphisms`` lists a group under its cap as the closure of
the strong generators, sorted by the images of the base.  That is the order
in which a search visiting every leaf reaches them, since candidates are
tried in ascending order at every depth; and each generator is the first
such leaf that the earlier generators do not already produce.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Sequence

from .graph import Graph
from .permgroup import DEFAULT_LISTING_CAP, CapExceededError, GeneratorSet, Perm, closure


@dataclass(frozen=True)
class ColoredGraph:
    """A graph plus one positive integer color per vertex."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.graph.n:
            raise ValueError(
                f"{len(self.colors)} colors for {self.graph.n} vertices"
            )


class SearchStats:
    """Counters for one search; ``nodes`` is base-path levels plus subtree node calls."""

    __slots__ = ("nodes", "refinements")

    def __init__(self) -> None:
        self.nodes = 0
        self.refinements = 0

    def __repr__(self) -> str:
        return f"SearchStats(nodes={self.nodes}, refinements={self.refinements})"


# A vertex's refinement key: one integer in rounds with few fresh classes,
# a tuple of small integers in rounds with many; see ``_signatures``.
_Key = int | tuple[int, ...]
_Trace = list[tuple[list[_Key], dict[_Key, int], list[int]]]


# Rounds with at most this many fresh classes pack each key into one
# integer by Horner's rule; see ``_signatures``.
_HORNER_MAX_CLASSES = 4


def _signatures(adj: Sequence[int], n: int, c: list[int], fresh: list[int]) -> list[_Key]:
    """Key each vertex by its color and its neighbour counts in the fresh
    classes, taken in ascending class index, so that keys compare as those
    digit strings do.

    Counts against the other classes are left out: the caller guarantees
    that each is fixed by the color and the counts before it, so it could
    not split a class or reorder one.

    With k fresh classes and base n + 1, a round with at most
    ``_HORNER_MAX_CLASSES`` classes packs the key into one integer,
    ``c[v] * base**k + sum(count_i(v) * base**(k - 1 - i))``, by Horner's
    rule one class at a time over all vertices.  Nearly every round of the
    small graphs that ``aut`` and the oracles search has one or two fresh
    classes, and there a few whole-list passes on small integers cost less
    than finding the vertices each class's rows reach.

    A round with more classes (a first round, a cell split into singletons)
    would pack thousands of bits per key, yet has few nonzero counts among
    its (vertex, class) pairs.  Its key is the tuple of the color and one
    entry ``(k - 1 - i) * base + count_i(v)`` per class i that v's row
    reaches, in ascending i; each class adds its entries only at the
    vertices its members' rows reach.  A count is below the base, so an
    entry names its class and count, and entries fall with i.  At the first
    class where two vertices' counts differ, the one with the larger count
    has the larger entry there, while the other has a smaller entry of a
    later class or none: tuple order is the packed integers' order.
    """
    base = n + 1
    k = len(fresh)
    slot = {cls: i for i, cls in enumerate(fresh)}
    masks = [0] * k
    for v, col in enumerate(c):
        i = slot.get(col)
        if i is not None:
            masks[i] |= 1 << v
    if k > _HORNER_MAX_CLASSES:
        keys = [[col] for col in c]
        entry = k * base
        for mask in masks:
            entry -= base
            hit = 0
            m = mask
            while m:
                low = m & -m
                m ^= low
                hit |= adj[low.bit_length() - 1]
            while hit:
                low = hit & -hit
                hit ^= low
                v = low.bit_length() - 1
                keys[v].append(entry + (adj[v] & mask).bit_count())
        return [tuple(key) for key in keys]
    out = c
    for m in masks:
        out = [s * base + (row & m).bit_count() for s, row in zip(out, adj)]
    return out


def _refine_trace(
    adj: Sequence[int],
    n: int,
    c: list[int],
    ncolors: int,
    fresh: list[int],
    stats: SearchStats,
) -> tuple[list[int], int, _Trace]:
    """Refine one coloring to its equitable fixpoint, recording each round.

    Every round recolors vertices by sorted-key rank, counting neighbours
    only in the round's fresh classes.  The first round's fresh classes are
    given: every class of an unrefined coloring, or the rest of a cell that
    individualizing one vertex split out of an equitable coloring.  After
    that they are the new classes whose parent class split, except the
    last child of each.  Think of a round's full key as the color, then
    the count in every class of the round's input, in class order.  Each
    count left out is fixed by the color and the counts before it:

    - a class that did not split is, as a vertex set, a class of the round
      before, and by this rule one round back the count in it is fixed by
      that round's key, which maps one-to-one to the current color (in the
      first round after an individualization, the coloring it split was
      equitable, so every count in its classes is fixed by the color);
    - a class P that split into children C1 < ... < Ct was a class of the
      round before as well, so the count in P is fixed by the current
      color, and the count in Ct is the count in P minus the counts in
      C1, ..., C(t-1), whose digits come just before Ct's.  After an
      individualization the new singleton is the last child of its cell.

    So two vertices of one color that agree on every digit before a
    dropped one agree on the dropped one too: the restricted keys are
    equal, and ordered, exactly as the full keys are, and the colorings,
    traces, bases and certificates are those of all-classes refinement.
    It must be the last child: leaving out another (Hopcroft's largest,
    say) keeps the partition but can reorder its colors.

    The recorded (sorted keys, rank map, fresh classes) rounds let the
    target side of a search node replay the identical renumbering, or prune
    on mismatch.
    """
    trace: _Trace = []
    while True:
        stats.refinements += 1
        sig = _signatures(adj, n, c, fresh)
        srt = sorted(sig)
        rank: dict[_Key, int] = {}
        prev = None
        for s in srt:
            if s != prev:
                rank[s] = len(rank)
                prev = s
        trace.append((srt, rank, fresh))
        new = [rank[s] for s in sig]
        k = len(rank)
        if k == ncolors or k == n:
            return new, k, trace
        parents = [0] * k
        for r, p in zip(new, c):
            parents[r] = p
        fresh = [r for r in range(k - 1) if parents[r] == parents[r + 1]]
        c = new
        ncolors = k


def _replay_trace(
    adj: Sequence[int], n: int, c: list[int], trace: _Trace, stats: SearchStats
) -> Optional[list[int]]:
    """Refine a coloring along a recorded trace; None when signatures diverge,
    which certifies no automorphism maps the traced coloring onto this one.

    Each round counts against the fresh classes the trace recorded.  While
    every earlier sorted list matched, the target's colors were assigned by
    the same rank maps, so a count left out is the same function of the
    color on both sides, and the restricted lists match exactly when the
    all-classes lists would.
    """
    for srt, rank, fresh in trace:
        stats.refinements += 1
        sig = _signatures(adj, n, c, fresh)
        if sorted(sig) != srt:
            return None
        c = [rank[s] for s in sig]
    return c


def _verify(adj: Sequence[int], n: int, colors: Sequence[int], sigma: Sequence[int]) -> bool:
    """Naive check: sigma preserves both adjacency and the given colors."""
    for v in range(n):
        if colors[sigma[v]] != colors[v]:
            return False
    for v in range(n):
        row = adj[v]
        mapped = 0
        while row:
            lsb = row & -row
            row ^= lsb
            mapped |= 1 << sigma[lsb.bit_length() - 1]
        if mapped != adj[sigma[v]]:
            return False
    return True


def _split(
    adj: Sequence[int], n: int, c: list[int], ncolors: int, stats: SearchStats
) -> tuple[list[int], list[int], int, _Trace]:
    """Individualize the least vertex of the smallest non-singleton cell
    (ties to the lower color) and refine.

    Returns that cell in ascending order, the refined coloring, its color
    count, and the trace the target side replays.  The coloring c must be
    equitable, so only the cell's rest starts fresh.
    """
    cells: list[list[int]] = [[] for _ in range(ncolors)]
    for v in range(n):
        cells[c[v]].append(v)
    cell = min((x for x in cells if len(x) > 1), key=len)
    nc = list(c)
    nc[cell[0]] = ncolors
    # the new singleton is the split cell's last child
    rc, rk, trace = _refine_trace(adj, n, nc, ncolors + 1, [c[cell[0]]], stats)
    return cell, rc, rk, trace


class _Search:
    """One walk over a fixed graph and colors for automorphisms that move a
    position at or after ``offset``; it fills ``base`` and ``orbits``.

    ``levels[j]`` holds the first path's coloring above base point j, its
    color count, the cell b_j was chosen from and the trace of
    individualizing b_j; ``leaf`` is the discrete coloring at its end.
    Every subtree search reads its source side from them.
    """

    __slots__ = (
        "adj", "n", "colors", "offset", "tail", "stats", "base", "orbits", "levels", "leaf",
    )

    def __init__(
        self, adj: Sequence[int], n: int, colors: Sequence[int], offset: int, stats: SearchStats
    ) -> None:
        self.adj = adj
        self.n = n
        self.colors = colors
        self.offset = offset
        self.tail = tuple(range(offset, n))
        self.stats = stats
        self.base: list[int] = []
        self.orbits: list[int] = []
        self.levels: list[tuple[list[int], int, list[int], _Trace]] = []
        self.leaf: list[int] = []

    def generators(self) -> Iterator[Perm]:
        """Yield each automorphism the walk finds, in search order."""
        adj, n, stats, levels = self.adj, self.n, self.stats, self.levels
        if n == 0:
            return
        # normalize the starting colors to dense values 0..k-1
        dense = {val: i for i, val in enumerate(sorted(set(self.colors)))}
        k = len(dense)
        c, k, _ = _refine_trace(adj, n, [dense[x] for x in self.colors], k, list(range(k)), stats)
        while k < n:
            stats.nodes += 1
            cell, rc, rk, trace = _split(adj, n, c, k, stats)
            levels.append((c, k, cell, trace))
            self.base.append(cell[0])
            c, k = rc, rk
        self.leaf = c
        gens: list[Perm] = []
        for depth in range(len(levels) - 1, -1, -1):
            c, k, cell, trace = levels[depth]
            # every generator so far fixes the points above this level
            orbit = {cell[0]}
            for w in cell[1:]:
                if w in orbit:
                    continue
                nc = list(c)
                nc[w] = k
                rc2 = _replay_trace(adj, n, nc, trace, stats)
                if rc2 is None:
                    continue
                got = self.node(depth + 1, rc2)
                if got is not None:
                    gens.append(got)
                    orbit = _orbit(cell[0], gens)
                    yield got
            self.orbits.append(len(orbit))

    def node(self, depth: int, c2: list[int]) -> Optional[Perm]:
        """First automorphism moving a position at or after the offset that
        maps the first path's coloring at ``depth`` onto the target c2, or
        None.  The source side below is the first path itself, so only the
        target is refined: by replaying the stored trace per choice.
        """
        adj, n, stats = self.adj, self.n, self.stats
        stats.nodes += 1
        if depth == len(self.levels):
            pos2 = [0] * n
            for v in range(n):
                pos2[c2[v]] = v
            st = tuple(pos2[x] for x in self.leaf)
            if st[self.offset:] == self.tail or not _verify(adj, n, self.colors, st):
                return None
            return Perm(st)
        c, k, cell, trace = self.levels[depth]
        color = c[cell[0]]
        for w in range(n):
            if c2[w] != color:
                continue
            nc2 = list(c2)
            nc2[w] = k
            rc2 = _replay_trace(adj, n, nc2, trace, stats)
            if rc2 is None:
                continue
            got = self.node(depth + 1, rc2)
            if got is not None:
                return got
        return None


def _search(
    adj: Sequence[int], n: int, colors: Sequence[int], offset: int, stats: SearchStats
) -> Optional[Perm]:
    """First color-preserving automorphism, in search order, that moves a
    position at or after ``offset``, or None: the walk's first generator."""
    return next(_Search(adj, n, colors, offset, stats).generators(), None)


def find_preserving(colored: ColoredGraph) -> tuple[Optional[Perm], SearchStats]:
    """Search for a nontrivial automorphism preserving every vertex color.

    The returned permutation, if any, is a certificate that the coloring is
    not distinguishing; absence means the coloring is distinguishing.
    """
    g = colored.graph
    stats = SearchStats()
    got = _search(g.adjacency_bits, g.n, colored.colors, 0, stats)
    return got, stats


def _orbit(v: int, gens: Sequence[Perm]) -> set[int]:
    """Orbit of v under the group the permutations generate."""
    orbit = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        for p in gens:
            y = p.image[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def automorphism_group(
    g: Graph, stats: Optional[SearchStats] = None
) -> tuple[list[int], list[Perm], int]:
    """Base, strong generators and order of Aut(g).

    The generators come deepest base level first, each level in ascending
    order of the image of its base point.  ``stats`` collects the work.
    """
    search = _Search(g.adjacency_bits, g.n, [0] * g.n, 0, SearchStats() if stats is None else stats)
    gens = list(search.generators())
    return search.base, gens, prod(search.orbits)


def _elements(n: int, base: list[int], gens: list[Perm], order: int, cap: int) -> list[Perm]:
    """``enumerate_automorphisms`` for a group already in hand."""
    if order > cap:
        raise CapExceededError(cap + 1)
    elems = closure(GeneratorSet(n, tuple(gens)), cap=order)
    elems.sort(key=lambda p: [p.image[b] for b in base])
    return elems


def enumerate_automorphisms(g: Graph, cap: int = DEFAULT_LISTING_CAP) -> list[Perm]:
    """All automorphisms of g, identity first, in deterministic search order.

    Raises CapExceededError(cap + 1) when the group has more than ``cap``
    elements, before listing any.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return _elements(g.n, *automorphism_group(g), cap)


def is_color_preserving_automorphism(g: Graph, colors: Sequence[int], p: Perm) -> bool:
    """Independent naive re-check of a certificate."""
    if p.degree != g.n or len(colors) != g.n:
        return False
    return _verify(g.adjacency_bits, g.n, colors, p.image)


# -- edge labelings via the subdivision reduction --------------------------


def _subdivision_bits(g: Graph, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Adjacency rows of the subdivision; edge k of ``edges``, the edge set
    of g in ``g.edge_list()`` order, becomes vertex n + k.

    Color edge vertex n + k by the label of edge k and give the original
    vertices one marker color apart from every label.  Then no automorphism
    mixes the two kinds, a color-preserving automorphism restricts exactly
    to a label-preserving automorphism of g, and its image of n + k is
    n + (the image of edge k); it moves an edge exactly when it moves a
    position at or after n.  A marker equal to a label could let a rotation
    of a subdivided cycle map a vertex onto an edge vertex.  The marker sits
    below every label, so after ``_search`` renumbers the colors densely
    ``find_preserving_edges`` searches with the colors the D' walker uses
    (marker 0, labels from 1) and finds the same certificates.
    """
    bits = list(g.adjacency_bits)
    for u, v in edges:
        w = len(bits)
        bits[u] &= ~(1 << v)
        bits[v] &= ~(1 << u)
        bits[u] |= 1 << w
        bits[v] |= 1 << w
        bits.append((1 << u) | (1 << v))
    return bits


def preserves_edge_labels(g: Graph, labels: dict[tuple[int, int], int], p: Perm) -> bool:
    """Whether p is an automorphism of g preserving every edge label."""
    if p.degree != g.n:
        return False
    for (u, v), val in labels.items():
        a, b = p(u), p(v)
        e = (a, b) if a < b else (b, a)
        if labels.get(e) != val:
            return False
    return is_color_preserving_automorphism(g, [0] * g.n, p)


def find_preserving_edges(g: Graph, labels: dict[tuple[int, int], int]) -> Optional[Perm]:
    """Search for an automorphism preserving every edge label that moves an edge.

    An automorphism whose action on the edge set is the identity counts as
    trivial here: such maps exist only on single-edge components and can
    never be broken by edge labels.
    """
    edges = g.edge_list()
    if set(labels) != set(edges):
        raise ValueError("labeling domain must equal the edge set exactly")
    n = g.n
    values = [labels[e] for e in edges]
    colors = [min(values, default=0) - 1] * n + values
    got = _search(_subdivision_bits(g, edges), n + len(edges), colors, n, SearchStats())
    if got is None:
        return None
    vertex_part = Perm(got.image[:n])
    if not preserves_edge_labels(g, labels, vertex_part):
        raise AssertionError("internal error: certificate failed re-verification")
    return vertex_part
