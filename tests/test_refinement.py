"""Refinement against fresh classes only: pinned search work and a
round-by-round comparison with the all-classes reference in tests/util;
the base-path walk against the depth-first reference search there."""
import random

import pytest

from lexidis import (
    ColoredGraph,
    Graph,
    block_product_labeling,
    complete,
    cycle,
    distinguishing_number,
    find_preserving,
    find_preserving_edges,
    k2_product_edge_labeling,
    lex_product,
    path,
    path_product_edge_labeling,
    pattern_product_labeling,
    spider,
    spider_distinguishing_labeling,
    star,
)
from lexidis import autosearch

from .util import (
    base_path_rounds,
    dense_signatures,
    full_refine,
    full_replay,
    random_graph,
    reference_search,
)


def _pin_cases():
    rng = random.Random(5)
    prods = [
        ("C5[P4]", lex_product(cycle(5), path(4))),
        ("P3[C4]", lex_product(path(3), cycle(4))),
        ("K3[C4]", lex_product(complete(3), cycle(4))),
        ("spider4[K2]", lex_product(spider(4), complete(2))),
        ("C6[K2]", lex_product(cycle(6), complete(2))),
        ("P4[P3]", lex_product(path(4), path(3))),
        ("star4[P3]", lex_product(star(4), path(3))),
        ("K2[C6]", lex_product(complete(2), cycle(6))),
    ]
    graphs = dict(prods)
    out = []
    for name, g in prods:
        out.append(("v", name, g, tuple(rng.randrange(1, 4) for _ in range(g.n))))
    lab = [x for x in spider_distinguishing_labeling(9) for _ in range(2)]
    out.append(("v", "spider9[K2] doubled", lex_product(spider(9), complete(2)), tuple(lab)))
    out.append(("v", "C5[P4] const", graphs["C5[P4]"], (1,) * 20))
    for name, g in prods[:3]:
        sparse = {e: 2 if rng.random() < 0.1 else 1 for e in g.edge_list()}
        out.append(("e", name + " sparse", g, sparse))
    k2c6 = k2_product_edge_labeling(cycle(6))
    out.append(("e", "K2[C6] thm", graphs["K2[C6]"], k2c6))
    flip = dict(k2c6)
    flip[min(e for e, v in flip.items() if v == 2)] = 1
    out.append(("e", "K2[C6] flipped", graphs["K2[C6]"], flip))
    p4p3 = path_product_edge_labeling(4, path(3))
    out.append(("e", "P4[P3] thm", graphs["P4[P3]"], p4p3))
    out.append(("e", "P4[P3] const", graphs["P4[P3]"], {e: 1 for e in p4p3}))
    return out


def _flatten_copy(labels, nh: int, copy: int):
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


def _large_cases():
    """Searches the size of the benchmark's certify questions: labeled
    products of 200 and 402 vertices and an edge-labeled product whose
    subdivision has 229, each distinguishing and with one copy flattened."""
    sp = lex_product(spider(100), complete(2))
    sp_lab = tuple(pattern_product_labeling(
        spider(100), complete(2), spider_distinguishing_labeling(100), [1, 2]))
    pc = lex_product(path(40), cycle(5))
    pc_lab = tuple(block_product_labeling(
        path(40), cycle(5), [1] * 39 + [2], distinguishing_number(cycle(5))[1]))
    pp = lex_product(path(17), path(3))
    pp_lab = path_product_edge_labeling(17, path(3))
    return [
        ("v", "spider100[K2] pattern", sp, sp_lab),
        ("v", "spider100[K2] flat 57", sp, _flatten_copy(sp_lab, 2, 57)),
        ("v", "P40[C5] block", pc, pc_lab),
        ("v", "P40[C5] block flat 17", pc, _flatten_copy(pc_lab, 5, 17)),
        ("e", "P17[P3] prop34", pp, pp_lab),
        ("e", "P17[P3] prop34 flat 5", pp, _flatten_copy(pp_lab, 3, 5)),
    ]


LARGE_CASES = _large_cases()


# (certificate image or None, nodes, refinements), as the all-classes
# refinement produced them in the depth-first search that
# ``reference_search`` keeps; the base-path walk does one node call and the
# base path's replayed rounds fewer
PINS = {
    "v C5[P4]": ((0, 1, 2, 3, 7, 6, 5, 4) + tuple(range(8, 20)), 3, 6),
    "v P3[C4]": ((0, 1, 2, 3, 4, 5, 6, 7, 10, 9, 8, 11), 4, 8),
    "v K3[C4]": ((0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 10, 9), 6, 17),
    "v spider4[K2]": ((0, 1, 2, 3, 5, 4) + tuple(range(6, 18)), 6, 11),
    "v C6[K2]": ((0, 1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11), 3, 6),
    "v P4[P3]": ((2, 1, 0) + tuple(range(3, 12)), 3, 6),
    "v star4[P3]": ((0, 1, 2, 3, 4, 5, 8, 7, 6, 9, 10, 11, 12, 13, 14), 5, 11),
    "v K2[C6]": (None, 1, 2),
    "v spider9[K2] doubled": (tuple(range(26)) + (27, 26) + tuple(range(28, 38)), 21, 41),
    "v C5[P4] const": (tuple(range(12)) + (15, 14, 13, 12, 16, 17, 18, 19), 7, 25),
    "e C5[P4] sparse": (None, 1, 6),
    "e P3[C4] sparse": ((0, 1, 2, 3, 4, 7, 6, 5, 8, 9, 10, 11), 7, 40),
    "e K3[C4] sparse": ((0, 3, 2, 1) + tuple(range(4, 12)), 4, 22),
    "e K2[C6] thm": (None, 1, 4),
    "e K2[C6] flipped": (None, 1, 4),
    "e P4[P3] thm": (None, 1, 4),
    "e P4[P3] const": ((0, 1, 2, 5, 4, 3, 6, 7, 8, 9, 10, 11), 7, 26),
    # searches of 229 to 402 vertices, as Horner-rule signatures gave them
    "v spider100[K2] pattern": (None, 1, 2),
    "v spider100[K2] flat 57": (tuple(range(114)) + (115, 114) + tuple(range(116, 402)), 3, 6),
    "e P17[P3] prop34 flat 5": (tuple(range(15)) + (17, 16, 15) + tuple(range(18, 51)), 3, 14),
}


PIN_CASES = _pin_cases() + [c for c in LARGE_CASES if f"{c[0]} {c[1]}" in PINS]


@pytest.mark.parametrize(
    "kind, name, g, labels", PIN_CASES, ids=[f"{c[0]} {c[1]}" for c in PIN_CASES]
)
def test_certificates_and_work_are_pinned(kind, name, g, labels, monkeypatch):
    made = []

    class Recording(autosearch.SearchStats):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(autosearch, "SearchStats", Recording)
    if kind == "v":
        got, _ = find_preserving(ColoredGraph(g, labels))
        adj, colors = g.adjacency_bits, labels
    else:
        got = find_preserving_edges(g, labels)
        edges = g.edge_list()
        adj = autosearch._subdivision_bits(g, edges)
        values = [labels[e] for e in edges]
        colors = [min(values) - 1] * g.n + values
    (stats,) = made
    image = None if got is None else got.image
    pin_image, pin_nodes, pin_refinements = PINS[f"{kind} {name}"]
    replayed = base_path_rounds(adj, len(adj), colors)
    assert (image, stats.nodes, stats.refinements) == (
        pin_image, pin_nodes - 1, pin_refinements - replayed)


def _new_rounds(adj, n, c, trace):
    """Colorings after each round of a fresh-class trace, or None where the
    sorted signatures first differ from the recorded ones."""
    out = []
    for srt, rank, fresh in trace:
        sig = autosearch._signatures(adj, n, c, fresh)
        if sorted(sig) != srt:
            return None
        c = [rank[s] for s in sig]
        out.append(c)
    return out


def _refine_both(adj, n, c, ncolors, fresh):
    stats = autosearch.SearchStats()
    got, k, trace = autosearch._refine_trace(adj, n, list(c), ncolors, fresh, stats)
    rounds, ref_trace = full_refine(adj, n, c, ncolors)
    assert _new_rounds(adj, n, c, trace) == rounds
    assert got == rounds[-1]
    assert k == len(ref_trace[-1][1]) == len(set(got))
    assert stats.refinements == len(trace) == len(rounds)
    return got, k, trace, ref_trace


def _replay_both(adj, n, c, ncolors, trace, ref_trace):
    stats = autosearch.SearchStats()
    got = autosearch._replay_trace(adj, n, list(c), trace, stats)
    rounds = full_replay(adj, n, c, ncolors, ref_trace)
    assert _new_rounds(adj, n, c, trace) == rounds
    if rounds is None:
        assert got is None
    else:
        assert got == rounds[-1]
        assert stats.refinements == len(trace)
    return got


def test_fresh_refinement_matches_all_classes_reference():
    rng = random.Random(1401)
    replays = nones = 0
    for trial in range(120):
        if trial % 3 == 0:
            g = random_graph(rng, rng.randrange(1, 31), rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        elif trial % 3 == 1:
            # products are rich in symmetry, so many replays match
            a = random_graph(rng, rng.randrange(2, 6), 0.5)
            g = lex_product(a, random_graph(rng, rng.randrange(1, 30 // a.n + 1), 0.5))
        else:
            # a cycle plus a random perfect matching is regular unless a
            # matching edge repeats a cycle edge, so its equitable partition
            # is one cell and many replays diverge
            n = 2 * rng.randrange(2, 16)
            order = list(range(n))
            rng.shuffle(order)
            edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
            for i in range(0, n, 2):
                u, v = sorted(order[i:i + 2])
                edges.add((u, v))
            g = Graph(n, edges)
        n, adj = g.n, g.adjacency_bits
        palette = rng.choice([1, 1, 2, 3])
        raw = [rng.randrange(palette) for _ in range(n)]
        dense = {val: i for i, val in enumerate(sorted(set(raw)))}
        start = [dense[val] for val in raw]
        k0 = len(dense)
        src, k, _, _ = _refine_both(adj, n, start, k0, list(range(k0)))
        tgt = list(src)
        # walk down a random individualization path on the source side,
        # replaying every candidate of the cell on the target side
        while k < n:
            cells = {}
            for v in range(n):
                cells.setdefault(src[v], []).append(v)
            cell = rng.choice([x for x in cells.values() if len(x) > 1])
            v = rng.choice(cell)
            nc = list(src)
            nc[v] = k
            rc, rk, trace, ref_trace = _refine_both(adj, n, nc, k + 1, [src[v], k])
            follow = None
            for w in range(n):
                if tgt[w] != src[v]:
                    continue
                nt = list(tgt)
                nt[w] = k
                got = _replay_both(adj, n, nt, k + 1, trace, ref_trace)
                replays += 1
                nones += got is None
                if got is not None and (follow is None or rng.random() < 0.5):
                    follow = got
            if follow is None:
                break
            src, tgt, k = rc, follow, rk
    # both outcomes of a replay are exercised
    assert replays > 400 and 50 < nones < replays


def test_signatures_match_horner_reference_on_large_searches(monkeypatch):
    """Every signature the searches of certify-sized inputs compute, many of
    them in rounds with dozens to hundreds of fresh classes, equals the one
    Horner's rule gives vertex by vertex."""
    seen = []
    signatures = autosearch._signatures

    def checked(adj, n, c, fresh):
        got = signatures(adj, n, c, fresh)
        assert got == dense_signatures(adj, n, c, fresh)
        seen.append((n, len(fresh)))
        return got

    monkeypatch.setattr(autosearch, "_signatures", checked)
    for kind, _name, g, labels in LARGE_CASES:
        if kind == "v":
            find_preserving(ColoredGraph(g, labels))
        else:
            find_preserving_edges(g, labels)
    large = [k for n, k in seen if n >= 200]
    assert len(large) == len(seen) >= 40
    assert sum(k > 20 for k in large) >= 10 and max(large) > 200


def test_walk_finds_the_reference_searchs_first_certificate():
    """The base-path walk's first generator is the certificate of the
    depth-first reference search, found with one node call and the base
    path's replayed rounds fewer: on random colored graphs at offset 0 and
    on subdivisions of random edge labelings at offset n."""
    rng = random.Random(1301)
    found = {0: [0, 0], 1: [0, 0]}
    for trial in range(240):
        if trial % 2:
            a = random_graph(rng, rng.randrange(1, 5), 0.5)
            g = lex_product(a, random_graph(rng, rng.randrange(1, 5), 0.5))
        else:
            g = random_graph(rng, rng.randrange(0, 13), rng.choice([0.1, 0.3, 0.5, 0.8]))
        palette = rng.choice([1, 2, 3])
        edge_kind = trial % 3 == 2 and g.m > 0
        if edge_kind:
            edges = g.edge_list()
            adj, offset = autosearch._subdivision_bits(g, edges), g.n
            colors = [0] * g.n + [rng.randrange(1, palette + 1) for _ in edges]
        else:
            adj, offset = g.adjacency_bits, 0
            colors = [rng.randrange(palette) for _ in range(g.n)]
        n = len(adj)
        ref, walk = autosearch.SearchStats(), autosearch.SearchStats()
        want = reference_search(adj, n, colors, offset, ref)
        got = autosearch._search(adj, n, colors, offset, walk)
        assert (got and got.image) == (want and want.image), trial
        if n:
            assert walk.nodes == ref.nodes - 1, trial
            assert walk.refinements == ref.refinements - base_path_rounds(adj, n, colors), trial
        found[edge_kind][got is not None] += 1
    # both kinds, each with and without a certificate
    assert min(found[0] + found[1]) >= 25
