"""Refinement against fresh classes only: pinned search work and a
round-by-round comparison with the all-classes reference in tests/util;
the base-path walk against the depth-first reference search there."""
import random

import pytest

from lexidis import (
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
    preserves_edge_labels,
    spider,
    spider_distinguishing_labeling,
    star,
)
from lexidis import autosearch

from .util import (
    banded_input,
    base_path_rounds,
    dense_signatures,
    flatten_copy,
    full_refine,
    full_replay,
    random_graph,
    recorded_stats,
    reference_search,
    subdivision,
    subdivision_colors,
    sweep_pairs,
    whole_graph_certificate,
    whole_graph_group,
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


def _large_cases():
    """Searches the size of the benchmark's certify questions: labeled
    products of 200 and 402 vertices and an edge-labeled product of 51
    vertices in two label bands, each distinguishing and with one copy
    flattened."""
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
        ("v", "spider100[K2] flat 57", sp, flatten_copy(sp_lab, 2, 57)),
        ("v", "P40[C5] block", pc, pc_lab),
        ("v", "P40[C5] block flat 17", pc, flatten_copy(pc_lab, 5, 17)),
        ("e", "P17[P3] prop34", pp, pp_lab),
        ("e", "P17[P3] prop34 flat 5", pp, flatten_copy(pp_lab, 3, 5)),
    ]


LARGE_CASES = _large_cases()


# (certificate image or None, nodes, refinements), as the all-classes
# refinement produced them in the depth-first search that
# ``reference_search`` keeps; the base-path walk does one node call and the
# base path's replayed rounds fewer.  These are the whole-graph searches
# ``_search`` and ``_edge_search``, the oracles' leaf refuters; the public
# searches run on the twin quotient and are pinned in TWIN_PINS
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
    # edge rows search the graph's own vertices, one row band per label
    "e C5[P4] sparse": (None, 1, 3),
    "e P3[C4] sparse": ((0, 1, 2, 3, 4, 7, 6, 5, 8, 9, 10, 11), 6, 19),
    "e K3[C4] sparse": ((0, 3, 2, 1) + tuple(range(4, 12)), 4, 13),
    "e K2[C6] thm": (None, 1, 2),
    "e K2[C6] flipped": (None, 1, 2),
    "e P4[P3] thm": (None, 1, 2),
    # the subdivision's search reached (3 5) first; both preserve the labels
    "e P4[P3] const": ((0, 1, 2, 3, 4, 5, 8, 7, 6, 9, 10, 11), 7, 15),
    # searches of 200 to 402 vertices, as Horner-rule signatures gave them
    "v spider100[K2] pattern": (None, 1, 2),
    "v spider100[K2] flat 57": (tuple(range(114)) + (115, 114) + tuple(range(116, 402)), 3, 6),
    "e P17[P3] prop34 flat 5": (tuple(range(15)) + (17, 16, 15) + tuple(range(18, 51)), 3, 9),
}


PIN_CASES = _pin_cases() + [c for c in LARGE_CASES if f"{c[0]} {c[1]}" in PINS]


@pytest.mark.parametrize(
    "kind, name, g, labels", PIN_CASES, ids=[f"{c[0]} {c[1]}" for c in PIN_CASES]
)
def test_certificates_and_work_are_pinned(kind, name, g, labels):
    stats = autosearch.SearchStats()
    got = whole_graph_certificate(g, labels, stats)
    if kind == "v":
        adj, colors, cols = g.adjacency_bits, labels, g.adjacency_bits
    else:
        adj, colors, cols = banded_input(g, labels)
        if got is not None:
            assert preserves_edge_labels(g, labels, got)
    image = None if got is None else got.image
    pin_image, pin_nodes, pin_refinements = PINS[f"{kind} {name}"]
    replayed = base_path_rounds(adj, g.n, colors, cols)
    assert (image, stats.nodes, stats.refinements) == (
        pin_image, pin_nodes - 1, pin_refinements - replayed)


def _p50_c4_cases():
    g = lex_product(path(50), cycle(4))
    lab = tuple(pattern_product_labeling(
        path(50), cycle(4), [1] * 49 + [2], distinguishing_number(cycle(4))[1]))
    return [("v", "P50[C4] pattern", g, lab),
            ("v", "P50[C4] pattern flat 23", g, flatten_copy(lab, 4, 23))]


TWIN_CASES = LARGE_CASES + _p50_c4_cases()

# (certificate, merges, nodes, refinements) of find_preserving and
# find_preserving_edges.  A flattened copy with twins is answered by the
# swap of two equal-type siblings, before any search; P40[C5] is twin-free,
# so it keeps the whole-graph search's certificate and work; a
# distinguishing labeling is searched on the colored quotient: spider100
# and P50, their K2 and C4 copies merged
TWIN_PINS = {
    "v spider100[K2] pattern": (None, 201, 0, 1),
    "v spider100[K2] flat 57": ("(114 115)", 58, 0, 0),
    "v P40[C5] block": (None, 0, 0, 1),
    "v P40[C5] block flat 17": ("(86 89)(87 88)", 0, 3, 6),
    "e P17[P3] prop34": (None, 0, 0, 8),
    "e P17[P3] prop34 flat 5": ("(15 17)", 1, 0, 0),
    "v P50[C4] pattern": (None, 150, 0, 24),
    "v P50[C4] pattern flat 23": ("(92 94)", 47, 0, 0),
}


@pytest.mark.parametrize(
    "kind, name, g, labels", TWIN_CASES, ids=[f"{c[0]} {c[1]}" for c in TWIN_CASES]
)
def test_twin_quotient_certificates_and_work_are_pinned(kind, name, g, labels, monkeypatch):
    made = recorded_stats(monkeypatch)
    if kind == "v":
        got, _ = find_preserving(g, labels)
    else:
        got = find_preserving_edges(g, labels)
    (stats,) = made
    # the verdict is the whole-graph search's
    want = whole_graph_certificate(g, labels, autosearch.SearchStats())
    assert (got is None) == (want is None)
    assert (got and got.cycle_string(), stats.merges, stats.nodes, stats.refinements) == (
        TWIN_PINS[f"{kind} {name}"])


def _new_rounds(adj, n, c, trace):
    """Colorings after each round of a fresh-class trace, or None where the
    sorted signatures first differ from the recorded ones."""
    out = []
    for srt, rank, fresh in trace:
        sig = autosearch._signatures(adj, n, c, fresh, adj)
        if sorted(sig) != srt:
            return None
        c = [rank[s] for s in sig]
        out.append(c)
    return out


def _refine_both(adj, n, c, ncolors, fresh):
    stats = autosearch.SearchStats()
    got, k, trace = autosearch._refine_trace(adj, n, list(c), ncolors, fresh, stats, adj)
    rounds, ref_trace = full_refine(adj, n, c, ncolors)
    assert _new_rounds(adj, n, c, trace) == rounds
    assert got == rounds[-1]
    assert k == len(ref_trace[-1][1]) == len(set(got))
    assert stats.refinements == len(trace) == len(rounds)
    return got, k, trace, ref_trace


def _replay_both(adj, n, c, ncolors, trace, ref_trace):
    stats = autosearch.SearchStats()
    got = autosearch._replay_trace(adj, n, list(c), trace, stats, adj)
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
    replays = nones = many = 0
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
        src, k, trace, _ = _refine_both(adj, n, start, k0, list(range(k0)))
        many += sum(len(f) > autosearch._HORNER_MAX_CLASSES for _s, _r, f in trace)
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
            many += sum(len(f) > autosearch._HORNER_MAX_CLASSES for _s, _r, f in trace)
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
    # both outcomes of a replay are exercised, and many rounds key by tuples
    assert replays > 400 and 50 < nones < replays
    assert many >= 100


def _dense_ranks(keys):
    """Each key's rank among the distinct keys, in sorted order."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def test_signatures_match_horner_reference_on_large_searches(monkeypatch):
    """Every key the searches of certify-sized inputs compute, many of them
    in rounds with dozens to hundreds of fresh classes, agrees with the
    integer Horner's rule gives vertex by vertex: equal to it in rounds of
    at most ``_HORNER_MAX_CLASSES`` digits, one per (class, band), and
    ranking the vertices as it does in the rounds with more, whose keys are
    tuples."""
    seen = []
    signatures = autosearch._signatures

    def checked(adj, n, c, fresh, cols):
        got = signatures(adj, n, c, fresh, cols)
        bands = len(cols) // n
        want = dense_signatures(adj, n, c, fresh, bands)
        if len(fresh) * bands <= autosearch._HORNER_MAX_CLASSES:
            assert got == want
        else:
            assert _dense_ranks(got) == _dense_ranks(want)
        seen.append((n, bands, len(fresh)))
        return got

    monkeypatch.setattr(autosearch, "_signatures", checked)
    for kind, _name, g, labels in LARGE_CASES:
        whole_graph_certificate(g, labels, autosearch.SearchStats())
    # vertex searches of 200 and 402 vertices and edge searches in two bands
    assert {(n, bands) for n, bands, _k in seen} == {(200, 1), (402, 1), (51, 2)}
    digits = [k * bands for _n, bands, k in seen]
    assert len(digits) >= 30 and max(digits) > 200
    assert sum(d > autosearch._HORNER_MAX_CLASSES for d in digits) >= 20
    # each kind of key in the edge searches
    edge = [k * bands for _n, bands, k in seen if bands > 1]
    assert min(edge) <= autosearch._HORNER_MAX_CLASSES < max(edge)


def test_rounds_count_no_split_class_last_child(monkeypatch):
    """Fresh classes counted over all rounds, pinned.  Every split class
    leaves out its last child and an individualization its new singleton;
    counting every child, with the same rounds, gave 9 813 on the sweep's
    group searches and 1 263 on the certify-sized searches (1 689 when the
    edge searches ran on the subdivision, whose rounds counted 1 427)."""
    counted = []
    signatures = autosearch._signatures

    def counting(adj, n, c, fresh, cols):
        counted.append(len(fresh))
        return signatures(adj, n, c, fresh, cols)

    monkeypatch.setattr(autosearch, "_signatures", counting)
    for _gn, g, _hn, h in sweep_pairs():
        whole_graph_group(lex_product(g, h), autosearch.SearchStats())
    assert (len(counted), sum(counted)) == (4787, 5000)
    counted.clear()
    for kind, _name, g, labels in LARGE_CASES:
        whole_graph_certificate(g, labels, autosearch.SearchStats())
    assert (len(counted), sum(counted)) == (30, 1084)


def test_walk_finds_the_reference_searchs_first_certificate(monkeypatch):
    """The base-path walk's first generator is the certificate of the
    depth-first reference search, found with one node call fewer and
    without the rounds the reference spends individualizing its source
    side: the walk splits only down the base path, once per base point,
    and every subtree search reads its source side from there.  On random
    colored graphs, and on random edge labelings in label bands, where the
    reference on the subdivision at offset n (an automorphism moving a
    position at or after n moves an edge) finds a certificate too exactly
    when the walk does."""
    split_rounds = []
    split = autosearch._split

    def counted(adj, n, c, ncolors, stats, cols):
        before = stats.refinements
        got = split(adj, n, c, ncolors, stats, cols)
        split_rounds.append(stats.refinements - before)
        return got

    monkeypatch.setattr(autosearch, "_split", counted)
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
        edges = g.edge_list()
        if edge_kind:
            labels = {e: rng.randrange(1, palette + 1) for e in edges}
            adj, colors, cols = banded_input(g, labels)
        else:
            adj, colors = g.adjacency_bits, [rng.randrange(palette) for _ in range(g.n)]
            cols = adj
        n = g.n
        ref, walk = autosearch.SearchStats(), autosearch.SearchStats()
        split_rounds.clear()
        want = reference_search(adj, n, colors, 0, ref, cols)
        ref_split_rounds = sum(split_rounds)
        split_rounds.clear()
        if edge_kind:
            got = autosearch._edge_search(g, edges, [labels[e] for e in edges], walk)
        else:
            got = autosearch._search(g, colors, walk)
        walk_splits = len(split_rounds)
        first = autosearch._Search(adj, n, colors, autosearch.SearchStats(), cols)
        next(first.generators(), None)
        assert (got and got.image) == (want and want.image), trial
        assert walk_splits == len(first.base), trial
        if n:
            assert walk.nodes == ref.nodes - 1, trial
            assert walk.refinements == ref.refinements - ref_split_rounds, trial
        if edge_kind:
            sub = subdivision(g, edges)
            referee = reference_search(
                sub, len(sub), subdivision_colors(g, labels), n, autosearch.SearchStats())
            assert (got is None) == (referee is None), trial
            assert got is None or preserves_edge_labels(g, labels, got), trial
        found[edge_kind][got is not None] += 1
    # both kinds, each with and without a certificate
    assert min(found[0] + found[1]) >= 25
