"""Shared test helpers: small-graph catalog and independent brute-force oracles.

The oracles here deliberately avoid the package's search engine so they can
arbitrate it: existence checks run over all n! vertex bijections.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations
from math import prod

from lexidis import Graph, Perm, autosearch, complete, cycle, path, spider, star
from lexidis.formats import GRAPH6_HEADER, FormatError, _g6_encode_n

# connected graphs on at most 4 vertices, up to isomorphism
PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
TRITAIL = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])


def atlas4() -> dict[str, Graph]:
    return {
        "K1": complete(1),
        "K2": complete(2),
        "P3": path(3),
        "K3": complete(3),
        "P4": path(4),
        "K13": star(3),
        "paw": PAW,
        "C4": cycle(4),
        "diamond": DIAMOND,
        "K4": complete(4),
    }


def sweep_pairs() -> list[tuple[str, Graph, str, Graph]]:
    """The 102 factor pairs of the Sabidussi sweep: all atlas4 pairs plus
    C5[P4] (criterion true) and tritail[P3] (criterion false)."""
    a = atlas4()
    pairs = [(gn, g, hn, h) for gn, g in a.items() for hn, h in a.items()]
    pairs.append(("C5", cycle(5), "P4", path(4)))
    pairs.append(("tritail", TRITAIL, "P3", path(3)))
    return pairs


def catalog() -> dict[str, Graph]:
    """Connected graphs used by the bound-conformance sweeps."""
    out = atlas4()
    out.update(
        {
            "P5": path(5),
            "C5": cycle(5),
            "K5": complete(5),
            "K14": star(4),
            "P6": path(6),
            "C6": cycle(6),
            "spider3": spider(3),
        }
    )
    return out


def is_automorphism(g: Graph, perm: tuple[int, ...]) -> bool:
    return _maps_onto(g.edges, perm)


def _maps_onto(edges: frozenset, perm: tuple[int, ...]) -> bool:
    # the edge set is read once per scan: Graph derives it from its rows
    for u, v in edges:
        a, b = perm[u], perm[v]
        if ((a, b) if a < b else (b, a)) not in edges:
            return False
    return True


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every vertex bijection; n <= 8 or so."""
    edges = g.edges
    return [p for p in permutations(range(g.n)) if _maps_onto(edges, p)]


def naive_color_preserver_exists(g: Graph, colors) -> bool:
    """Is some nontrivial automorphism color-preserving?  Full n! scan."""
    ident = tuple(range(g.n))
    edges = g.edges
    for p in permutations(range(g.n)):
        if p == ident:
            continue
        if all(colors[p[v]] == colors[v] for v in range(g.n)):
            if _maps_onto(edges, p):
                return True
    return False


def naive_edge_preserver_exists(g: Graph, labels) -> bool:
    """Is some automorphism moving an edge label-preserving?  Full n! scan."""
    edges = g.edges
    for p in permutations(range(g.n)):
        if not _maps_onto(edges, p):
            continue
        moved = False
        ok = True
        for (u, v), val in labels.items():
            a, b = p[u], p[v]
            e = (a, b) if a < b else (b, a)
            if e != (u, v):
                moved = True
            if labels[e] != val:
                ok = False
                break
        if ok and moved:
            return True
    return False


def edge_action_is_trivial(g: Graph, p: Perm) -> bool:
    """Whether p fixes every edge of g as a set."""
    for u, v in g.edges:
        a, b = p(u), p(v)
        if (a, b) != (u, v) and (a, b) != (v, u):
            return False
    return True


def line_graph(g: Graph) -> Graph:
    """L(g): one vertex per edge of g, in ``edge_list()`` order, two of them
    adjacent when their edges share an end."""
    edges = g.edge_list()
    at: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(edges):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    return Graph(len(edges), [pair for inc in at.values() for pair in combinations(inc, 2)])


def canonical_form(g: Graph) -> tuple[int, tuple]:
    """Minimum edge set over all relabelings; usable up to ~8 vertices."""
    best = None
    g_edges = g.edge_list()
    for p in permutations(range(g.n)):
        edges = tuple(
            sorted((p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in g_edges)
        )
        if best is None or edges < best:
            best = edges
    return g.n, best if best is not None else ()


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Random graph forced connected by threading a random spanning tree."""
    g = random_graph(rng, n, p)
    order = list(range(n))
    rng.shuffle(order)
    extra = set(g.edges)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        extra.add((u, v) if u < v else (v, u))
    return Graph(n, extra)


def flatten_copy(labels, nh: int, copy: int):
    """The labeling with one H-copy made invariant under Aut(H).  Vertex
    labels: the copy takes its first vertex's label.  Edge labels: the
    copy's own edges take one label, and each edge from the copy to a
    vertex w outside it takes the label of the edge from the copy's first
    vertex to w."""
    lo = copy * nh
    if isinstance(labels, tuple):
        return labels[:lo] + (labels[lo],) * nh + labels[lo + nh:]
    inner = [val for (u, v), val in labels.items() if u // nh == v // nh == copy]
    out = dict(labels)
    for u, v in labels:
        if u // nh == v // nh == copy:
            out[(u, v)] = inner[0]
        elif copy in (u // nh, v // nh):
            w = v if u // nh == copy else u
            out[(u, v)] = labels[(lo, w) if lo < w else (w, lo)]
    return out


# -- reference refinement --------------------------------------------------
# The all-classes refinement the search engine used before it counted only
# against fresh classes.  Tests compare the engine against it round by round.


def full_signatures(adj, n: int, c, ncolors: int) -> list[int]:
    """(color, neighbour count in every class) packed base n+1."""
    base = n + 1
    masks = [0] * ncolors
    for v in range(n):
        masks[c[v]] |= 1 << v
    out = []
    for v in range(n):
        s = c[v]
        for m in masks:
            s = s * base + (adj[v] & m).bit_count()
        out.append(s)
    return out


def full_refine(adj, n: int, c, ncolors: int):
    """Refine to the equitable fixpoint against every class each round.

    Returns the coloring after each round and the trace of
    (sorted signatures, rank map) pairs.
    """
    rounds: list[list[int]] = []
    trace = []
    while True:
        sig = full_signatures(adj, n, c, ncolors)
        srt = sorted(sig)
        rank: dict[int, int] = {}
        for s in srt:
            rank.setdefault(s, len(rank))
        trace.append((srt, rank))
        c = [rank[s] for s in sig]
        rounds.append(c)
        if len(rank) in (ncolors, n):
            return rounds, trace
        ncolors = len(rank)


def full_replay(adj, n: int, c, ncolors: int, trace):
    """Colorings after each round of replaying ``trace``, or None when the
    sorted signatures diverge."""
    rounds = []
    for srt, rank in trace:
        sig = full_signatures(adj, n, c, ncolors)
        if sorted(sig) != srt:
            return None
        c = [rank[s] for s in sig]
        rounds.append(c)
        ncolors = len(rank)
    return rounds


def dense_signatures(adj, n: int, c, fresh, bands: int = 1) -> list[int]:
    """(color, neighbour count in each class of ``fresh``, band by band for
    rows in ``bands`` bands) packed base n+1 by Horner's rule, one vertex at
    a time: the fresh-class signatures as the search engine computed them
    before it accumulated them per class."""
    base = n + 1
    slot = {cls: i for i, cls in enumerate(fresh)}
    masks = [0] * len(fresh)
    for v, col in enumerate(c):
        i = slot.get(col)
        if i is not None:
            masks[i] |= 1 << v
    out = []
    for v in range(n):
        s = c[v]
        for m in masks:
            for band in range(bands):
                s = s * base + (adj[v] >> band * n & m).bit_count()
        out.append(s)
    return out


# -- edge-labeling search inputs -------------------------------------------


def subdivision(g: Graph, edges) -> list[int]:
    """Bit rows of the subdivision of g: edge k of ``edges`` becomes vertex
    n + k, adjacent to the two ends of the edge and to nothing else."""
    n = g.n
    rows = [0] * (n + len(edges))
    for k, (u, v) in enumerate(edges):
        rows[u] |= 1 << (n + k)
        rows[v] |= 1 << (n + k)
        rows[n + k] = (1 << u) | (1 << v)
    return rows


def subdivision_colors(g: Graph, labels) -> list[int]:
    """Colors of the subdivision: each edge vertex its edge's label, every
    original vertex one marker below every label."""
    values = [labels[e] for e in g.edge_list()]
    return [min(values, default=0) - 1] * g.n + values


def banded_input(g: Graph, labels):
    """(rows, colors, cols) of the search of g for an automorphism that
    preserves ``labels`` and moves an edge: the label-l neighbours of v,
    labels numbered densely in sorted order, in bits l*n .. l*n + n - 1 of
    row v; each isolated vertex its own color, and the lower end of each
    K2 component a marker color; cols[p] the vertices whose row has bit p."""
    n = g.n
    order = sorted(set(labels.values()))
    rows = [0] * n
    for (u, v), val in labels.items():
        band = order.index(val) * n
        rows[u] |= 1 << (band + v)
        rows[v] |= 1 << (band + u)
    cols = [0] * (len(order) * n)
    for p in range(len(cols)):
        cols[p] = sum(1 << v for v in range(n) if rows[v] >> p & 1)
    colors = [0] * n
    for v in range(n):
        nbrs = g.neighbors(v)
        if not nbrs:
            colors[v] = v + 2
        elif len(nbrs) == 1:
            (u,) = nbrs
            if u > v and len(g.neighbors(u)) == 1:
                colors[v] = 1
    return rows, colors, cols


# -- reference search ------------------------------------------------------
# The depth-first certificate search the engine ran before every search
# became a walk down the base path.  Its first branch at each level is the
# identity, whose refinement trace it replays and whose leaf it rejects.


def reference_search(adj, n: int, colors, offset: int, stats, cols=None):
    """First color-preserving automorphism, in search order, that moves a
    position at or after ``offset``, or None.  On the subdivision of a graph
    of n0 vertices at offset n0, an automorphism moves an edge exactly when
    it moves a position at or after n0."""
    if n == 0:
        return None
    cols = adj if cols is None else cols
    order = sorted(set(colors))
    dense = {val: i for i, val in enumerate(order)}
    k = len(order)
    rc, rk, _ = autosearch._refine_trace(adj, n, [dense[val] for val in colors], k,
                                         list(range(k)), stats, cols)
    tail = tuple(range(offset, n))

    def node(c1, c2, ncolors):
        stats.nodes += 1
        if ncolors == n:
            pos2 = [0] * n
            for v in range(n):
                pos2[c2[v]] = v
            st = tuple(pos2[c1[v]] for v in range(n))
            if st[offset:] == tail or not autosearch._verify(adj, n, colors, st, cols):
                return None
            return Perm(st)
        cell, rc1, rk1, trace = autosearch._split(adj, n, c1, ncolors, stats, cols)
        for w in range(n):
            if c2[w] != c1[cell[0]]:
                continue
            nc2 = list(c2)
            nc2[w] = ncolors
            rc2 = autosearch._replay_trace(adj, n, nc2, trace, stats, cols)
            if rc2 is not None:
                got = node(rc1, rc2, rk1)
                if got is not None:
                    return got
        return None

    return node(rc, list(rc), rk)


def whole_graph_group(g: Graph, stats):
    """Base, strong generators and order of Aut(g) from one ``_Search`` walk
    over all of g, without the twin merging of ``automorphism_group``: the
    engine's own referee, whose work the search pins count."""
    search = autosearch._Search(g.adjacency_bits, g.n, [0] * g.n, stats)
    gens = list(search.generators())
    return search.base, gens, prod(search.orbits)


def whole_graph_certificate(g: Graph, labels, stats):
    """The whole-graph search's certificate for a vertex labeling (a
    sequence) or an edge labeling (a dict): ``_search`` or ``_edge_search``,
    the oracles' leaf refuters."""
    if not isinstance(labels, dict):
        return autosearch._search(g, labels, stats)
    edges = g.edge_list()
    return autosearch._edge_search(g, edges, [labels[e] for e in edges], stats)


def recorded_stats(monkeypatch) -> list:
    """The SearchStats objects the search and the oracles make from now on,
    in order."""
    from lexidis import distinguishing

    made = []

    class Recording(autosearch.SearchStats):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(autosearch, "SearchStats", Recording)
    monkeypatch.setattr(distinguishing, "SearchStats", Recording)
    return made


def base_path_rounds(adj, n: int, colors, cols=None) -> int:
    """Refinement rounds of the individualizations down the first search
    path: the rounds that the identity branch of ``reference_search``
    replays."""
    stats = autosearch.SearchStats()
    cols = adj if cols is None else cols
    order = sorted(set(colors))
    dense = {val: i for i, val in enumerate(order)}
    k = len(order)
    c, k, _ = autosearch._refine_trace(adj, n, [dense[val] for val in colors], k,
                                       list(range(k)), stats, cols)
    rounds = 0
    while k < n:
        _cell, c, k, trace = autosearch._split(adj, n, c, k, stats, cols)
        rounds += len(trace)
    return rounds


# -- reference text formats ------------------------------------------------
# The edge-list and graph6 writers and the graph6 reader as they were before
# they worked on bit rows directly: one formatted line per edge, one bit per
# vertex pair, one bit string per byte.  The writers test every pair, so
# they do not share the package's bit scans.


def reference_write_edge_list(g: Graph) -> str:
    rows = g.adjacency_bits
    lines = [f"p {g.n} {g.m}"]
    lines.extend(
        f"e {u} {v}" for u in range(g.n) for v in range(u + 1, g.n) if rows[u] >> v & 1
    )
    return "\n".join(lines) + "\n"


def reference_write_graph6(g: Graph) -> str:
    out = [_g6_encode_n(g.n)]
    nbits = 0
    chunk = 0
    for j in range(1, g.n):
        row = g.adjacency_bits[j]
        for i in range(j):
            chunk = (chunk << 1) | ((row >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(chunk + 63))
                chunk = nbits = 0
    if nbits:
        out.append(chr((chunk << (6 - nbits)) + 63))
    return "".join(out)


def reference_read_graph6(line: str, lineno: int = 1) -> Graph:
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise FormatError(f"line {lineno}: empty graph6 record")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise FormatError(f"line {lineno}: graph6 records beyond 258047 vertices unsupported")
        if len(s) < 4:
            raise FormatError(f"line {lineno}: truncated graph6 size field")
        vals = [ord(c) - 63 for c in s[1:4]]
        if any(not 0 <= v <= 63 for v in vals):
            raise FormatError(f"line {lineno}: invalid graph6 size byte")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise FormatError(f"line {lineno}: invalid graph6 size byte")
        body = s[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise FormatError(f"line {lineno}: graph6 body length {len(body)} wrong for n={n}")
    if body and (min(body) < "?" or max(body) > "~"):
        raise FormatError(f"line {lineno}: invalid graph6 data byte")
    bits = "".join([format(ord(c) - 63, "06b") for c in body])
    if "1" in bits[need:]:
        raise FormatError(f"line {lineno}: nonzero graph6 padding bits")
    # bit k is the pair (i, j) of the upper triangle in column order, with
    # column j starting at bit j(j-1)/2
    edges = []
    j = 1
    start = 0
    k = bits.find("1", 0, need)
    while k != -1:
        while k >= start + j:
            start += j
            j += 1
        edges.append((k - start, j))
        k = bits.find("1", k + 1, need)
    return Graph(n, edges)
