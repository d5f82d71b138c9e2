"""Color-preserving automorphism search by partition refinement.

The engine answers two questions: does a colored graph admit a nontrivial
color-preserving automorphism (find one as a certificate), and what is the
automorphism group of a graph (a base, strong generators and the order).

The whole-graph searches ``_search`` and ``_edge_search``, which refute the
oracles' leaves, ask one question: the first color-preserving
automorphism, in search order, that moves a vertex.  Edge labels are
searched on the graph itself: with the labels numbered densely in sorted
order, bit l*n + u of row v is set when uv is an edge labeled l, so a
refinement digit counts neighbours in one (fresh class, label) pair, and
``_verify`` maps bit l*n + u to l*n + sigma(u).  An automorphism fixing
every edge fixes each component of three or more vertices pointwise, so it
can only swap the ends of a K2 component or permute isolated vertices;
``_edge_search`` gives each isolated vertex a color of its own and the
lower end of each K2 component a marker.  Then only the identity fixes
every edge and the colors, and every label-preserving automorphism agrees
on the edges with a color-preserving one, so the edge search looks for any
nontrivial one.

One walk answers both.  It refines the starting colors and individualizes
down the first path once, each level taking the least vertex of the
smallest non-singleton cell, until the coloring is discrete: those
vertices b1, ..., bk form a base.  Deepest level first, each w of b_i's
cell outside the orbit of b_i under the automorphisms found so far starts,
in ascending order, one subtree search with b_i mapped to w, which yields
an automorphism or proves that none maps b_i to w.  A subtree search is a
depth-first loop over an explicit stack, not a recursion, so no base is
too long for the interpreter's stack.  The source side of
every subtree is the stored first path: individualizing and refining is a
deterministic function of the coloring, so the source coloring at depth j
is always the first path's, and only the target side is refined, by
replaying the first path's trace per choice; each leaf is compared with
the first path's discrete coloring and re-verified by a naive check.  A
certificate is the first yield: until then every orbit is its base point
alone, so the leaves come in the order of a depth-first search that tries
the identity branch first; a leaf below a branch b_i -> w, w != b_i, is
never the identity.  A group search drains the walk; a finished level's
orbit is that of the stabilizer of b1..b(i-1), so the generators are
strong and the order is the product of the orbit lengths, with no element
list or Schreier-Sims step (McKay & Piperno 2014; Seress 2003).  The naive
check reads the rows of the moved vertices only: an edge with a fixed end
and a moved one is checked from the moved end, and an edge with two fixed
ends maps to itself.

``automorphism_group`` and ``find_preserving`` run one walk, ``_twin_walk``,
over the twin-free quotient of G.  Every class of twins is a module, so it
merges each class of open twins, or when there are none of closed twins,
into one node typed by its kind and its children's types, round by round
until no twins are left; a cograph merges down to one node (Habib & Paul,
Computer Science Review 4, 2010).  The leaf types are the vertex colors,
all equal for the group.  Merging yields each swap of two equal-type
siblings, in merge order; then the search runs on the quotient colored by
type, and its generators are lifted to G through each node's canonical
member order.  |Aut(G)| is the quotient's order times a factorial per
group of equal siblings.  On a twin-free graph the walk is the search over
all of G, unchanged.  The walk keeps no state; drained, it returns the
quotient, from which ``automorphism_group`` alone builds a base of G.
``find_preserving`` takes the first yield as the certificate: with no
sibling swap, the kernel of the lift is trivial, so that is the quotient's
first generator, lifted.
``find_preserving_edges`` first looks for two label twins, open ones with
equal banded rows or closed ones on one label, whose swap moves an edge:
any such pair is a certificate, so there is nothing to merge, and without
one it runs ``_edge_search``.  Every swap and lifted generator, and every
edge certificate, is re-checked by the naive check.

Each refinement round counts a vertex's neighbours only in the round's
fresh classes: every class in the first round of a search, the rest of the
split cell after an individualization, and otherwise the new classes whose
parent class split in the previous round, each split class but its last
child.  A class that did not split is a vertex set of an earlier round, and
a count in it was fixed by an earlier key, which maps one-to-one to the
current color, on the source side and, while every earlier sorted list
matched, on the target side too.  A last child's count is its parent's
count, fixed the same way, minus its siblings' counts, which come just
before it, label by label (Hopcroft 1971 drops one child as a splitter;
here it must be the last, so that the order of the keys is kept as well).
So within a color the restricted keys sort as the all-classes ones would,
and across colors the leading color decides: the colorings, rank maps,
chosen cells, bases and certificates are the same, at a cost per round
that follows the classes that changed (McKay & Piperno 2014) instead of
all of them.

A round keys each vertex by its color and then its count in each fresh
class and band, in that order, and sorts the keys.  With at most
``_HORNER_MAX_CLASSES`` such digits, as in nearly every round after an
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
the strong generators, sorted by the images of the base of the walk over
all of G, whose first path alone it walks.  That is the order in which a
search of G visiting every leaf reaches them, since candidates are tried
in ascending order at every depth.
"""
from __future__ import annotations

from bisect import insort
from math import prod
from typing import Collection, Generator, Iterable, Iterator, Optional, Sequence

from .graph import Graph, _members
from .permgroup import DEFAULT_LISTING_CAP, CapExceededError, GeneratorSet, Perm, closure


# the counters of ``SearchStats``, in order; its subclasses (such as the
# benchmark's recording one) declare no slots of their own, so ``__init__``
# reads the names from here
_STATS_FIELDS = ("nodes", "refinements", "merges", "steps", "leaves", "preserved",
                 "twin_floor", "image", "reach_d", "backjump")


class SearchStats:
    """Counters for one search or one oracle question.  ``nodes`` is
    base-path levels plus subtree node calls, ``merges`` the twin classes
    ``automorphism_group`` or ``find_preserving`` merged, or the label-twin
    pair whose swap ``find_preserving_edges`` returned.  An oracle question
    keeps one for all its leaf searches and its walk, whose counts follow
    (see ``distinguishing._Walk``)."""

    __slots__ = _STATS_FIELDS

    def __init__(self) -> None:
        for name in _STATS_FIELDS:
            setattr(self, name, 0)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)}" for name in _STATS_FIELDS)
        return f"SearchStats({body})"


# A vertex's refinement key: one integer in rounds with few fresh classes,
# a tuple of small integers in rounds with many; see ``_signatures``.
_Key = int | tuple[int, ...]
_Trace = list[tuple[list[_Key], dict[_Key, int], list[int]]]


# Rounds with at most this many fresh classes pack each key into one
# integer by Horner's rule; see ``_signatures``.
_HORNER_MAX_CLASSES = 4


def _signatures(
    adj: Sequence[int], n: int, c: list[int], fresh: list[int], cols: Sequence[int]
) -> list[_Key]:
    """Key each vertex by its color and its neighbour counts in the fresh
    classes, taken in ascending class index, so that keys compare as those
    digit strings do.  ``cols[p]`` holds the vertices whose row has bit p:
    the rows themselves for one band, and for rows in bands a class gives
    one digit per band, in band order, which "class" below then reads as.

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
    vertices its members' columns hold.  A count is below the base, so an
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
    if len(cols) > n:
        masks = [m << s for m in masks for s in range(0, len(cols), n)]
        k = len(masks)
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
                hit |= cols[low.bit_length() - 1]
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
    cols: Sequence[int],
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
        sig = _signatures(adj, n, c, fresh, cols)
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
    adj: Sequence[int], n: int, c: list[int], trace: _Trace, stats: SearchStats,
    cols: Sequence[int],
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
        sig = _signatures(adj, n, c, fresh, cols)
        if sorted(sig) != srt:
            return None
        c = [rank[s] for s in sig]
    return c


def _verify(
    adj: Sequence[int], n: int, colors: Sequence[int], sigma: Sequence[int], cols: Sequence[int]
) -> bool:
    """Naive check: sigma preserves the colors and, band by band, adjacency.

    Only the moved vertices are checked, which is enough:

    - an edge with a moved end is checked from that end's row, band by
      band: the row's image must be the row of the end's image;
    - an edge with both ends fixed maps to itself;
    - so sigma maps the labeled edge set into itself, and a bijection of
      the vertices is one-to-one on that finite set, so onto it as well.

    A row's fixed bits map to themselves, so only its moved bits are
    mapped one by one.
    """
    moved = [v for v in range(n) if sigma[v] != v]
    for v in moved:
        if colors[sigma[v]] != colors[v]:
            return False
    bands = range(0, len(cols), n) if n else ()
    if len(cols) > n:
        sigma = [s + x for s in bands for x in sigma]
    low = 0
    for v in moved:
        low |= 1 << v
    mask = 0
    for s in bands:
        mask |= low << s
    for v in moved:
        row = adj[v]
        hit = row & mask
        mapped = row ^ hit
        while hit:
            lsb = hit & -hit
            hit ^= lsb
            mapped |= 1 << sigma[lsb.bit_length() - 1]
        if mapped != adj[sigma[v]]:
            return False
    return True


def _split(
    adj: Sequence[int], n: int, c: list[int], ncolors: int, stats: SearchStats,
    cols: Sequence[int],
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
    rc, rk, trace = _refine_trace(adj, n, nc, ncolors + 1, [c[cell[0]]], stats, cols)
    return cell, rc, rk, trace


class _Search:
    """One walk over a graph's rows ``adj`` (columns ``cols``, by default the
    rows) and colors for automorphisms; it fills ``base`` and ``orbits``.

    ``levels[j]`` holds the first path's coloring above base point j, its
    color count, the cell b_j was chosen from and the trace of
    individualizing b_j; ``leaf`` is the discrete coloring at its end.
    Every subtree search reads its source side from them.
    """

    __slots__ = ("adj", "n", "cols", "colors", "stats", "base", "orbits", "levels", "leaf")

    def __init__(
        self, adj: Sequence[int], n: int, colors: Sequence[int], stats: SearchStats,
        cols: Optional[Sequence[int]] = None,
    ) -> None:
        self.adj = adj
        self.n = n
        self.cols = adj if cols is None else cols
        self.colors = colors
        self.stats = stats
        self.base: list[int] = []
        self.orbits: list[int] = []
        self.levels: list[tuple[list[int], int, list[int], _Trace]] = []
        self.leaf: list[int] = []

    def first_path(self) -> list[int]:
        """Refine the starting colors and individualize down the first path
        until the coloring is discrete; fill ``levels`` and ``leaf`` and
        return the base."""
        adj, n, cols, stats, levels = self.adj, self.n, self.cols, self.stats, self.levels
        if n == 0:
            return self.base
        # normalize the starting colors to dense values 0..k-1
        dense = {val: i for i, val in enumerate(sorted(set(self.colors)))}
        k = len(dense)
        c, k, _ = _refine_trace(
            adj, n, [dense[x] for x in self.colors], k, list(range(k)), stats, cols)
        while k < n:
            stats.nodes += 1
            cell, rc, rk, trace = _split(adj, n, c, k, stats, cols)
            levels.append((c, k, cell, trace))
            self.base.append(cell[0])
            c, k = rc, rk
        self.leaf = c
        return self.base

    def generators(self) -> Iterator[Perm]:
        """Yield each automorphism the walk finds, in search order."""
        adj, n, cols, stats, levels = self.adj, self.n, self.cols, self.stats, self.levels
        self.first_path()
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
                rc2 = _replay_trace(adj, n, nc, trace, stats, cols)
                if rc2 is None:
                    continue
                got = self.node(depth + 1, rc2)
                if got is not None:
                    gens.append(got)
                    orbit = _orbit(cell[0], gens)
                    yield got
            self.orbits.append(len(orbit))

    def node(self, depth: int, c2: list[int]) -> Optional[Perm]:
        """First automorphism that maps the first path's coloring at
        ``depth`` onto the target c2, or None.  The source side below is the
        first path itself, so only the target is refined: by replaying the
        stored trace per choice.

        A loop, not a recursion, so the base length is not bounded by the
        interpreter's stack: each node entered below pushes its parent's
        (depth, target coloring, candidate), and a dead end pops the parent,
        which goes on with its next candidate.
        """
        adj, n, cols, stats, levels = self.adj, self.n, self.cols, self.stats, self.levels
        stats.nodes += 1
        stack: list[tuple[int, list[int], int]] = []
        w = -1
        while True:
            if depth == len(levels):
                pos2 = [0] * n
                for v in range(n):
                    pos2[c2[v]] = v
                st = tuple(pos2[x] for x in self.leaf)
                if _verify(adj, n, self.colors, st, cols):
                    return Perm(st)
            else:
                c, k, cell, trace = levels[depth]
                color = c[cell[0]]
                rc2 = None
                for w in range(w + 1, n):
                    if c2[w] != color:
                        continue
                    nc2 = list(c2)
                    nc2[w] = k
                    rc2 = _replay_trace(adj, n, nc2, trace, stats, cols)
                    if rc2 is not None:
                        break
                if rc2 is not None:
                    stats.nodes += 1
                    stack.append((depth, c2, w))
                    depth, c2, w = depth + 1, rc2, -1
                    continue
            if not stack:
                return None
            depth, c2, w = stack.pop()


def _search(g: Graph, colors: Sequence[int], stats: SearchStats) -> Optional[Perm]:
    """First nontrivial color-preserving automorphism of g, in search order,
    or None: the walk's first generator."""
    return next(_Search(g.adjacency_bits, g.n, colors, stats).generators(), None)


def find_preserving(g: Graph, colors: Sequence[int]) -> tuple[Optional[Perm], SearchStats]:
    """Search for a nontrivial automorphism of g preserving every vertex color.

    The returned permutation, if any, is a certificate that the coloring is
    not distinguishing; absence means the coloring is distinguishing.
    Raises ValueError unless there is one color per vertex.

    The certificate is the first yield of the walk over the colored
    twin-free quotient (``_twin_walk``), with the colors as the leaf types:
    the first swap of two equal-type siblings, met in merge order, and with
    none the quotient's first generator, lifted, since then every
    color-preserving automorphism is the lift of one of the quotient's.  On
    a twin-free graph that is the walk over all of g.  ``stats.merges``
    counts the merged classes.  Every certificate passes the naive check.
    No base is built: only ``automorphism_group`` needs one.
    """
    if len(colors) != g.n:
        raise ValueError(f"{len(colors)} colors for {g.n} vertices")
    dense = {val: i for i, val in enumerate(sorted(set(colors)))}
    stats = SearchStats()
    return next(_twin_walk(g.adjacency_bits, g.n, [dense[x] for x in colors], stats), None), stats


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


def _merge_twins(
    adj: Sequence[int], n: int, types: Sequence[int], stats: SearchStats
) -> Generator[Perm, None, tuple[int, list[list[int]], list[int], int]]:
    """Merge twin classes round by round until none is left; see
    ``automorphism_group``.

    ``types`` are the leaf types, dense values 0..k-1 (all 0 for the bare
    graph); merged types are numbered from k on.  Each merged node is named
    by its least vertex.  Yields the swap of each two adjacent equal-type
    siblings, in merge order, re-checked against the leaf types; the caller
    decides how many to take, and the rest is never merged.  Returns the
    nodes of the twin-free quotient as the set bits of an int; ``members``
    and ``types``, read at those nodes; and the product of r! over the
    merges and the children's types, r children of each type.

    A node's open key is its row outside its members, and its closed key
    its row with them.  Members form a module, so a key is the union of the
    members of the node's neighbors in the quotient (and its own): two
    nodes have equal keys iff they are twins of that kind, and only a
    merged node's keys change, so the classes are kept from round to round
    instead of keyed again.  A merged node keeps its key of the merge's
    kind (its siblings were all or none of its neighbors).  A node with
    twins of one kind has none of the other (an open twin u and a closed
    twin w of v would make u a neighbor of w, so of v), and the keys of the
    other kind that the merge leaves behind, its siblings' and its own old
    one, each hold part of the merged module but not all of it, which no
    later key can; so those classes stay as they are, never met again.
    """
    alive = (1 << n) - 1
    members = [[v] for v in range(n)]
    masks = [1 << v for v in range(n)]  # the bits of members[v]
    leaf, types = types, list(types)
    leaf_types = max(types, default=0) + 1
    numbered: dict[tuple[bool, tuple[int, ...]], int] = {}
    order = 1
    # by kind (open, closed): key -> nodes, and the keys of two nodes or
    # more; the closed classes are built the first time a round needs them
    found: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        found.setdefault(row, []).append(v)
    buckets: list[Optional[dict[int, list[int]]]] = [found, None]
    multi = [{key for key, cls in found.items() if len(cls) > 1}, set()]
    while True:
        if not multi[0] and buckets[1] is None:
            buckets[1] = found = {}
            for v in _members(alive):
                found.setdefault(adj[v] | masks[v], []).append(v)
            multi[1] = {key for key, cls in found.items() if len(cls) > 1}
        closed = not multi[0]
        if not multi[closed]:
            return alive, members, types, order
        found, others = buckets[closed], buckets[not closed]
        # each class is kept ascending, so they sort by least node
        twins = sorted(map(found.__getitem__, multi[closed]))
        multi[closed].clear()
        for cls in twins:
            stats.merges += 1
            rep = cls[0]
            # a stable sort: ties stay in ascending order of the least vertex
            cls.sort(key=types.__getitem__)
            run = 1
            for a, b in zip(cls, cls[1:]):
                if types[a] != types[b]:
                    run = 1
                    continue
                run += 1
                order *= run
                image = list(range(n))
                for x, y in zip(members[a], members[b]):
                    image[x], image[y] = y, x
                yield _rechecked(Perm(image), _verify(adj, n, leaf, image, adj))
            kind = (closed, tuple([types[c] for c in cls]))
            types[rep] = numbered.setdefault(kind, len(numbered) + leaf_types)
            members[rep] = [x for c in cls for x in members[c]]
            mask = 0
            for c in cls:
                mask |= masks[c]
            # of the siblings' members only the siblings are still alive
            alive &= ~mask | masks[rep]
            masks[rep] = mask
            if others is not None:
                key = adj[rep] & ~masks[rep] if closed else adj[rep] | masks[rep]
                if key in others:
                    insort(others[key], rep)
                    multi[not closed].add(key)
                else:
                    others[key] = [rep]
            cls[:] = [rep]


def _quotient(
    adj: Sequence[int], alive: int, types: list[int]
) -> tuple[Sequence[int], Sequence[int], list[int]]:
    """The twin-free quotient that ``_merge_twins`` left: its nodes in
    ascending order, its rows over their indices and the nodes' types;
    ``adj`` itself when nothing merged."""
    if alive == (1 << len(adj)) - 1:
        return range(len(adj)), adj, types
    nodes = _members(alive)
    index = {v: i for i, v in enumerate(nodes)}
    rows = []
    for v in nodes:
        row = 0
        for u in _members(adj[v] & alive):
            row |= 1 << index[u]
        rows.append(row)
    return nodes, rows, [types[v] for v in nodes]


def _lift(n: int, nodes: Sequence[int], members: Sequence[list[int]], p: Perm) -> list[int]:
    """The image of a quotient automorphism p on the n vertices: each node's
    members onto its image's, position by position in canonical order."""
    image = list(range(n))
    for v, w in zip(nodes, p.image):
        for x, y in zip(members[v], members[nodes[w]]):
            image[x] = y
    return image


def _rechecked(p: Perm, ok: bool) -> Perm:
    """p, once its naive re-check gave ``ok``; a failed one is a bug."""
    if not ok:
        raise AssertionError("internal error: certificate failed re-verification")
    return p


def _twin_walk(
    adj: Sequence[int], n: int, types: list[int], stats: SearchStats
) -> Generator[Perm, None, tuple[Sequence[int], list[list[int]], _Search, int]]:
    """The walk over the twin-free quotient of rows ``adj`` colored by the
    dense leaf ``types`` (see ``automorphism_group``): yields each sibling
    swap in merge order, then the quotient's generators, lifted, each
    re-checked; returns (nodes, members, drained search, merges' order)."""
    alive, members, merged, order = yield from _merge_twins(adj, n, types, stats)
    nodes, rows, qtypes = _quotient(adj, alive, merged)
    search = _Search(rows, len(nodes), qtypes, stats)
    if rows is adj:
        # nothing merged: the walk over all of the graph checks its leaves
        yield from search.generators()
    else:
        for p in search.generators():
            image = _lift(n, nodes, members, p)
            yield _rechecked(Perm(image), _verify(adj, n, types, image, adj))
    return nodes, members, search, order


def automorphism_group(
    g: Graph, stats: Optional[SearchStats] = None
) -> tuple[list[int], list[Perm], int]:
    """Base, strong generators and order of Aut(g): ``_twin_walk``, drained.

    Twin classes are merged first, round by round: each round merges every
    class of two or more open twins of the current quotient into one node,
    or, when there is none, every such class of closed twins.  A merged
    node's children are sorted by type, ties by least vertex; its type is
    (kind, the children's types in that order), numbered as met, with 0 for
    a single vertex, and its members in canonical order are its children's
    in turn.  Each class is a module of g, siblings are twins, and equal
    types have the same shape all the way down, so mapping one equal-type
    module onto another in canonical order, and back, is an automorphism.
    Each round's classes are read off the quotient alone, so every
    automorphism of g permutes the nodes of every round and keeps types.

    ``_Search`` then runs only on the twin-free quotient Q, colored by
    type.  Its generators are lifted to g by mapping each node's members
    onto its image's, position by position.  Lifting is a homomorphism, and
    it splits the map from Aut(g) onto Aut(Q, types); the kernel, the
    automorphisms fixing every node of Q setwise, is, node by node, the
    type-preserving permutations of each merged node's children together
    with the children's own groups, which the swaps of adjacent equal-type
    siblings generate.  So |Aut(g)| = |Aut(Q, types)| times, over the
    merges, the product of r! over the children's types, r of each type.

    The base, built here and nowhere else, is Q's base, each point replaced
    by its node's first member, then each node's members in canonical order
    but its last.  The swaps, in merge order, then the lifted generators,
    deepest level of Q's base first, are strong for it: fixing a first
    member fixes its node, a lifted generator that fixes a node fixes its
    members, and fixing a prefix of a node's canonical order leaves the
    type-preserving permutations of the children after it, and their own
    groups, which the swaps fixing the prefix generate.  On a twin-free
    graph nothing merges, each node is its one member, and the base,
    generators, order and ``stats`` are the whole-graph search's.  Every
    swap and lifted generator is re-checked by the naive check; ``stats``
    collects the work, ``stats.merges`` the merged classes.
    """
    walk = _twin_walk(g.adjacency_bits, g.n, [0] * g.n, SearchStats() if stats is None else stats)
    gens: list[Perm] = []
    try:
        while True:
            gens.append(next(walk))
    except StopIteration as done:
        nodes, members, search, order = done.value
    base = [members[nodes[i]][0] for i in search.base]
    fixed = set(base)
    base += [x for v in nodes for x in members[v][:-1] if x not in fixed]
    return base, gens, order * prod(search.orbits)


def _elements(g: Graph, gens: list[Perm], order: int, cap: int) -> list[Perm]:
    """``enumerate_automorphisms`` for a group already in hand: the closure
    of gens, sorted by the images of the whole-graph search's first path,
    which is a base; the path is walked only for a listing under the cap."""
    if order > cap:
        raise CapExceededError(cap + 1)
    elems = closure(GeneratorSet(g.n, tuple(gens)), cap=order)
    base = _Search(g.adjacency_bits, g.n, [0] * g.n, SearchStats()).first_path()
    elems.sort(key=lambda p: [p.image[b] for b in base])
    return elems


def enumerate_automorphisms(g: Graph, cap: int = DEFAULT_LISTING_CAP) -> list[Perm]:
    """All automorphisms of g, identity first, in deterministic search order.

    Raises CapExceededError(cap + 1) when the group has more than ``cap``
    elements, before listing any.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    _, gens, order = automorphism_group(g)
    return _elements(g, gens, order, cap)


def is_color_preserving_automorphism(g: Graph, colors: Sequence[int], p: Perm) -> bool:
    """Independent naive re-check of a certificate."""
    if p.degree != g.n or len(colors) != g.n:
        return False
    return _verify(g.adjacency_bits, g.n, colors, p.image, g.adjacency_bits)


# -- edge labelings, one row band per label --------------------------------


def _banded_rows(
    n: int, edges: Iterable[tuple[int, int]], values: Collection[int]
) -> tuple[list[int], int]:
    """The rows of label values[k] on edge k of ``edges``, labels numbered
    densely in sorted order: bit l*n + u of row v is set when uv is an edge
    labeled l; and the number of bands."""
    shift = {val: i * n for i, val in enumerate(sorted(set(values)))}
    rows = [0] * n
    for (u, v), val in zip(edges, values):
        rows[u] |= 1 << (shift[val] + v)
        rows[v] |= 1 << (shift[val] + u)
    return rows, len(shift)


def _label_twin_swap(rows: Sequence[int], n: int, bands: int) -> Optional[list[int]]:
    """The swap of the first two label twins whose swap moves an edge, or
    None: open twins, equal rows that are not empty, in vertex order; then,
    band by band, closed twins on label l, equal keys ``row | 1 << (l*n + v)``
    of vertices with a neighbour besides each other.  Twins have the same
    labeled neighbours but each other, so the swap keeps every label, and
    it maps an edge to another at each such neighbour."""
    rich = [v for v, row in enumerate(rows) if row & (row - 1)]
    passes = [(None, [v for v, row in enumerate(rows) if row])]
    passes += [(i * n, rich) for i in range(bands)]
    for shift, live in passes:
        seen: dict[int, int] = {}
        for v in live:
            key = rows[v] if shift is None else rows[v] | 1 << (shift + v)
            u = seen.setdefault(key, v)
            if u != v:
                image = list(range(n))
                image[u], image[v] = v, u
                return image
    return None


def _edge_search(
    g: Graph, edges: Sequence[tuple[int, int]], values: Sequence[int], stats: SearchStats
) -> Optional[Perm]:
    """First automorphism of g, in search order, that preserves label
    values[k] of edge k of ``edges`` (``g.edge_list()``) and moves an edge,
    or None; the module docstring gives the bands and the colors."""
    return _band_search(g, *_banded_rows(g.n, edges, values), stats)


def _band_search(g: Graph, rows: list[int], bands: int, stats: SearchStats) -> Optional[Perm]:
    """``_edge_search`` on the rows ``_banded_rows`` built."""
    n = g.n
    # bit l*n + u of row v is bit l*n + v of row u: the columns are the rows' bands
    full = (1 << n) - 1
    cols = [row >> (i * n) & full for i in range(bands) for row in rows] or rows
    adj = g.adjacency_bits
    colors = [0] * n
    for v, row in enumerate(adj):
        if not row:
            colors[v] = v + 2
        elif row >> v and row == row & -row and adj[row.bit_length() - 1] == 1 << v:
            colors[v] = 1
    return next(_Search(rows, n, colors, stats, cols).generators(), None)


def _check_edge_domain(g: Graph, labels: dict[tuple[int, int], int]) -> None:
    """Raise ValueError unless the keys of labels are g's m edges, as int pairs u < v."""
    rows = g.adjacency_bits
    try:  # a tuple of another length, an end that is not an int, or u >= g.n
        ok = len(labels) == g.m and {*map(type, labels)} <= {tuple} and all(
            0 <= u < v and rows[u] >> v & 1 for u, v in labels)
    except (TypeError, ValueError, IndexError):
        ok = False
    if not ok:
        raise ValueError("labeling domain must equal the edge set exactly")


def preserves_edge_labels(g: Graph, labels: dict[tuple[int, int], int], p: Perm) -> bool:
    """Whether p is an automorphism of g preserving every edge label."""
    if p.degree != g.n:
        return False
    img = p.image
    for (u, v), val in labels.items():
        a, b = img[u], img[v]
        if labels.get((a, b) if a < b else (b, a)) != val:
            return False
    return is_color_preserving_automorphism(g, [0] * g.n, p)


def find_preserving_edges(g: Graph, labels: dict[tuple[int, int], int]) -> Optional[Perm]:
    """Search for an automorphism preserving every edge label that moves an edge.

    An automorphism whose action on the edge set is the identity counts as
    trivial here: such maps only swap the ends of single-edge components or
    permute isolated vertices, and can never be broken by edge labels.

    The certificate is the swap of the first two label twins that moves an
    edge (``_label_twin_swap``), counted in ``merges``: any such pair is
    one, so there is nothing to merge.  With none, it is ``_edge_search``'s
    first automorphism.  Every certificate passes the naive check.
    """
    _check_edge_domain(g, labels)
    stats = SearchStats()
    rows, bands = _banded_rows(g.n, labels, labels.values())
    swap = _label_twin_swap(rows, g.n, bands)
    if swap is not None:
        stats.merges += 1
        got: Optional[Perm] = Perm(swap)
    else:
        got = _band_search(g, rows, bands, stats)
    return None if got is None else _rechecked(got, preserves_edge_labels(g, labels, got))
