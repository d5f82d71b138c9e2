"""Shared test helpers: small-graph catalog and independent brute-force oracles.

The oracles here deliberately avoid the package's search engine so they can
arbitrate it: existence checks run over all n! vertex bijections.
"""
from __future__ import annotations

import random
from itertools import permutations

from lexidis import Graph, Perm, complete, cycle, path, spider, star

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
