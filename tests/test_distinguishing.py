import math
import random
from itertools import product

import pytest

from lexidis import (
    Graph,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_distinguishing_edges,
    lex_power,
    lex_product,
    path,
    spider,
    spider_k2_distinguishing_number,
    star,
)
from lexidis.autosearch import automorphism_group

from .util import (
    atlas4,
    catalog,
    naive_color_preserver_exists,
    naive_edge_preserver_exists,
    random_graph,
)

# an asymmetric graph: its only automorphism is the identity
ASYM = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 3)])


def _is_restricted_growth(labels) -> bool:
    top = 0
    for val in labels:
        if val > top + 1:
            return False
        top = max(top, val)
    return True


def _rgs_with_max(n: int, d: int):
    """Restricted-growth strings of length n with maximum exactly d, lex order."""
    for labels in product(range(1, d + 1), repeat=n):
        if max(labels) == d and _is_restricted_growth(labels):
            yield list(labels)


def _first_unrefuted(length: int, d: int, refuted):
    return next(s for s in _rgs_with_max(length, d) if not refuted(s))


def test_is_distinguishing_examples():
    assert is_distinguishing(cycle(5), [1, 2, 3, 4, 5])
    assert not is_distinguishing(complete(2), [1, 1])
    # two branches with identical (subdivision, pendant) pairs can be swapped
    g = spider(3)
    labels = [1, 1, 2, 1, 2, 2, 1]  # branches 1 and 2 both carry (1, 2)
    assert not is_distinguishing(g, labels)
    labels = [1, 1, 1, 1, 2, 2, 1]  # pairs (1,1), (1,2), (2,1)
    assert is_distinguishing(g, labels)


def test_labeling_validation():
    with pytest.raises(ValueError):
        is_distinguishing(path(3), [1, 2])
    with pytest.raises(ValueError):
        is_distinguishing(path(3), [0, 1, 2])
    with pytest.raises(ValueError):
        is_distinguishing_edges(path(3), {(0, 1): 1})


def test_is_distinguishing_edges_examples():
    assert is_distinguishing_edges(path(4), {(0, 1): 1, (1, 2): 1, (2, 3): 2})
    assert not is_distinguishing_edges(cycle(6), {e: 1 for e in cycle(6).edge_list()})
    # asymmetric graph: any labeling works
    assert automorphism_group(ASYM)[2] == 1
    assert is_distinguishing_edges(ASYM, {e: 1 for e in ASYM.edge_list()})


def test_distinguishing_number_small_families():
    for n in range(2, 6):
        d, w = distinguishing_number(complete(n))
        assert d == n and sorted(w) == list(range(1, n + 1))
    for n in range(2, 8):
        d, w = distinguishing_number(path(n))
        assert d == 2
        assert is_distinguishing(path(n), w)
    d, _ = distinguishing_number(cycle(5))
    assert d == 3
    d, _ = distinguishing_number(cycle(6))
    assert d == 2


def test_distinguishing_number_spiders():
    for n in range(3, 7):
        d, w = distinguishing_number(spider(n))
        assert d == math.isqrt(n - 1) + 1
        assert is_distinguishing(spider(n), w)


def test_distinguishing_number_asymmetric_and_cap():
    assert distinguishing_number(ASYM) == (1, [1] * 6)
    assert distinguishing_number(complete(4), d_max=3) is None
    assert distinguishing_number(Graph(0)) == (1, [])


def test_witness_is_lexicographically_least():
    # P4: the least distinguishing string is all-ones except the final vertex
    assert distinguishing_number(path(4)) == (2, [1, 1, 1, 2])
    # K3: forced to use all three labels
    assert distinguishing_number(complete(3)) == (3, [1, 2, 3])


def test_witness_is_least_unrefuted_string():
    # the first restricted-growth string with maximum d that no automorphism
    # preserves (full n! scan) must be the returned witness, over the vertices
    # for D and over g.edge_list() for D'
    rng = random.Random(2024)
    graphs = list(atlas4().values())
    graphs += [random_graph(rng, rng.randrange(1, 7)) for _ in range(20)]
    edge_cases = 0
    for g in graphs:
        d, w = distinguishing_number(g)
        assert w == _first_unrefuted(g.n, d, lambda s: naive_color_preserver_exists(g, s)), g
        if not 1 <= g.m <= 8:
            continue
        edges = g.edge_list()
        d, w = distinguishing_index(g)
        first = _first_unrefuted(
            len(edges), d, lambda s: naive_edge_preserver_exists(g, dict(zip(edges, s)))
        )
        assert [w[e] for e in edges] == first, g
        edge_cases += 1
    assert edge_cases >= 15  # 9 atlas4 graphs with edges + 10 random ones


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


@pytest.mark.parametrize("g", [complete(5), complete(6), _complete_bipartite(3, 3),
                               _complete_bipartite(2, 5)], ids=["K5", "K6", "K3,3", "K2,5"])
def test_edge_witness_is_the_first_labeling_brute_force_leaves(g):
    # twin classes of three or more vertices and 9-15 edges, past the
    # atlas graphs the witness-argument replay covers
    d, w = distinguishing_index(g)
    edges = g.edge_list()
    want = _first_unrefuted(
        len(edges), d, lambda s: naive_edge_preserver_exists(g, dict(zip(edges, s))))
    assert [w[e] for e in edges] == want


# (value, witness) of the slow tail, as recorded in the benchmark's answers
SLOW_TAIL = {
    "K3[C4]": (lex_product(complete(3), cycle(4)), 4, [1, 1, 2, 3, 1, 2, 4, 3, 2, 3, 4, 4]),
    "spider6": (spider(6), 3, [1, 1, 1, 1, 2, 1, 3, 2, 1, 2, 2, 2, 3]),
    "K2[C6]": (lex_product(complete(2), cycle(6)), 3, [1, 1, 1, 1, 2, 3, 1, 1, 1, 2, 1, 3]),
    "P3[C4]": (lex_product(path(3), cycle(4)), 3, [1, 1, 2, 3, 1, 1, 2, 3, 1, 2, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(SLOW_TAIL))
def test_slow_tail_values_and_witnesses(name):
    g, value, witness = SLOW_TAIL[name]
    assert distinguishing_number(g) == (value, witness)


def test_spider7_finishes():
    g = spider(7)
    d, w = distinguishing_number(g)
    assert d == 3
    assert is_distinguishing(g, w)


def test_long_asymmetric_tree_finishes():
    # a path needs about n/2 refinement rounds; counting against every
    # class in each of them made this one leaf search cubic in n
    n = 900
    g = Graph(n + 1, [(i, i + 1) for i in range(n - 1)] + [(2, n)])
    assert distinguishing_number(g) == (1, [1] * (n + 1))


def test_walker_runs_past_the_recursion_limit():
    # 2 160 labeled edge positions, more than Python's default frame limit
    g = lex_power(path(3), 4)
    assert (g.n, g.m) == (81, 2160)
    d, w = distinguishing_index(g)
    assert d == 2 and is_distinguishing_edges(g, w)


# leaf searches for D, each one automorphism search; without the certificate
# pruning these take 18 935 and 8 736, and before the image prune 27 and 16
D_LEAVES = {"K3[C4]": 6, "spider6": 6}


@pytest.mark.parametrize("name", sorted(D_LEAVES))
def test_leaf_certificates_prune(monkeypatch, name):
    import lexidis.distinguishing as dist

    g = SLOW_TAIL[name][0]

    calls = []
    inner = dist._search

    def counting(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(dist, "_search", counting)
    distinguishing_number(g)
    assert len(calls) == D_LEAVES[name]


# before the image prune, K3[C4] took 8 and spider6 16
D_PRIME_LEAVES = {
    "K3[C4]": (lex_product(complete(3), cycle(4)), 5),
    "spider6": (spider(6), 6),
    "K10": (complete(10), 4),
    "C4[C4]": (lex_product(cycle(4), cycle(4)), 5),
    "K4[K4]": (lex_product(complete(4), complete(4)), 2),
    # its 15 consecutive twin swaps are edge transpositions, so floors, and
    # leave one leaf, the all-distinct labeling
    "star16": (star(16), 1),
}


@pytest.mark.parametrize("name", sorted(D_PRIME_LEAVES))
def test_edge_leaf_certificates_prune(monkeypatch, name):
    # every D' leaf that survives the twin seeds runs one banded edge search;
    # the groups here have up to 16! elements and none is listed
    import lexidis.distinguishing as dist

    g, leaves = D_PRIME_LEAVES[name]
    calls = []
    inner = dist._edge_search

    def counting(*args, **kwargs):
        calls.append(None)
        # fail fast: a lost pruning rule can cost minutes here
        assert len(calls) <= leaves, f"more than {leaves} leaf searches"
        return inner(*args, **kwargs)

    monkeypatch.setattr(dist, "_edge_search", counting)
    d, w = distinguishing_index(g)
    monkeypatch.undo()
    assert len(calls) == leaves
    assert is_distinguishing_edges(g, w)
    assert max(w.values()) == d


# (seeds, floors) of the D' walk before its first level: the edge action of
# each twin class's consecutive swaps; with all C(r, 2) swaps K6 took 15
# seeds, K_{2,4} 7 and star(5) 10, all floors
D_PRIME_SEEDS = {
    "K6": (complete(6), 5, 0),
    "K2,4": (_complete_bipartite(2, 4), 4, 0),
    "star5": (star(5), 4, 4),
    "K3[C4]": (lex_product(complete(3), cycle(4)), 6, 0),
}


@pytest.mark.parametrize("name", sorted(D_PRIME_SEEDS))
def test_edge_walk_seeds_each_twin_class_with_its_consecutive_swaps(monkeypatch, name):
    import lexidis.distinguishing as dist

    g, seeds, floors = D_PRIME_SEEDS[name]
    kept: list[tuple[int, ...]] = []
    add = dist._Walk.add

    def recording_add(self, p):
        kept.append(tuple(p))
        return add(self, p)

    class Seeded(Exception):
        pass

    def stop(self, d):
        raise Seeded

    monkeypatch.setattr(dist._Walk, "add", recording_add)
    monkeypatch.setattr(dist._Walk, "walk", stop)
    with pytest.raises(Seeded):
        distinguishing_index(g)
    moved = [sum(i != j for i, j in enumerate(p)) for p in kept]
    assert (len(kept), moved.count(2)) == (seeds, floors)


def test_witness_stays_valid_with_more_labels():
    for g in (path(5), cycle(6), spider(3)):
        d, w = distinguishing_number(g)
        assert is_distinguishing(g, w)
        # uses exactly d labels, each new value first appearing in order
        assert max(w) == d
        assert _is_restricted_growth(w)
        assert is_distinguishing(g, list(w))


def test_trivial_group_iff_one_label():
    for name, g in catalog().items():
        d, _ = distinguishing_number(g)
        assert (d == 1) == (automorphism_group(g)[2] == 1), name


def test_distinguishing_number_matches_naive_search():
    rng = random.Random(555)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 6))
        d, w = distinguishing_number(g)
        assert is_distinguishing(g, w)
        assert max(w) == d
        if d > 1:
            # no labeling with d-1 labels works: exhaustive cross-check
            n = g.n
            found = False
            for code in range((d - 1) ** n):
                labels = []
                c = code
                for _ in range(n):
                    labels.append(c % (d - 1) + 1)
                    c //= d - 1
                if not naive_color_preserver_exists(g, labels):
                    found = True
                    break
            assert not found


def test_distinguishing_index_examples():
    assert distinguishing_index(lex_product(complete(2), complete(2)))[0] == 3
    assert distinguishing_index(lex_product(path(3), path(3)))[0] == 2
    assert distinguishing_index(lex_product(complete(2), path(3)))[0] == 2
    assert distinguishing_index(complete(2)) == (1, {(0, 1): 1})
    # P3 needs two edge labels; with no automorphism moving an edge, one does
    assert distinguishing_index(path(3), d_max=1) is None
    assert distinguishing_index(ASYM) == (1, {e: 1 for e in ASYM.edge_list()})
    with pytest.raises(ValueError):
        distinguishing_index(Graph(3))


def test_distinguishing_index_witness_certifies():
    for g in (complete(4), star(4), cycle(6), lex_product(path(3), path(3))):
        d, w = distinguishing_index(g)
        assert is_distinguishing_edges(g, w)
        assert max(w.values()) == d
        assert d >= 2


def test_distinguishing_index_stars():
    # the n edges of a star are interchangeable: all must differ
    for n in (2, 3, 4):
        d, _ = distinguishing_index(star(n))
        assert d == n


@pytest.mark.parametrize("oracle", [distinguishing_number, distinguishing_index])
def test_oracles_refuse_a_nonpositive_label_cap(oracle):
    with pytest.raises(ValueError) as exc:
        oracle(path(3), d_max=0)
    assert str(exc.value) == "d_max must be positive"


def _rgs_up_to(m: int, d: int):
    """Restricted-growth strings of length m with maximum at most d, in
    lexicographic order."""
    out = [[]]
    for _ in range(m):
        out = [s + [v] for s in out for v in range(1, min(d, max(s, default=0) + 1) + 1)]
    return out


def _normal_form(labels) -> list[int]:
    names: dict[int, int] = {}
    return [names.setdefault(x, len(names) + 1) for x in labels]


def _naive_rank(p, k, labels) -> int:
    prefix = labels[: k + 1]
    image = [labels[j] for j in p[: k + 1]]
    if image == prefix:
        return 0
    return -1 if _normal_form(image) < prefix else 1


def test_image_rank_matches_a_naive_normal_form():
    """``_image_rank`` is the three-way compare of NF(P o p) with P up to
    p's last moved position k: 0 only when p preserves P, so an image equal
    to P only after a renaming ranks 1 and keeps P."""
    from lexidis.distinguishing import _image_rank

    def rank(p, labels):
        moved = [i for i, j in enumerate(p) if i != j]
        top = [max(labels[:i], default=0) for i in range(len(labels) + 1)]
        return _image_rank(p, moved, moved[-1], labels, top)

    # (0 1)(2 3) maps 1212 to 2121, whose normal form is 1212 again
    assert rank((1, 0, 3, 2), [1, 2, 1, 2]) == _naive_rank((1, 0, 3, 2), 3, [1, 2, 1, 2]) == 1
    assert rank((1, 0, 3, 2), [1, 1, 2, 2]) == 0
    assert rank((1, 2, 0), [1, 2, 2]) == -1
    rng = random.Random(24)
    seen = {-1: 0, 0: 0, 1: 0}
    renamed = 0
    for _ in range(3000):
        m = rng.randrange(3, 9)
        k = rng.randrange(2, m)
        p = list(range(k + 1))
        while p[k] == k:
            rng.shuffle(p)
        p += range(k + 1, m)
        labels = []
        for _ in range(m):
            labels.append(rng.randint(1, min(max(labels, default=0) + 1, rng.randint(1, 4))))
        want = _naive_rank(p, k, labels)
        assert rank(p, labels) == want, (p, labels)
        seen[want] += 1
        image = [labels[j] for j in p[: k + 1]]
        renamed += image != labels[: k + 1] and _normal_form(image) == labels[: k + 1]
    assert min(seen.values()) > 100 and renamed > 10, (seen, renamed)


def _skip_reason(labels, d, kept):
    """Why a walk at level d may drop this labeling: its maximum is below d,
    a kept permutation preserves it, or one maps it to a labeling whose
    normal form is smaller; None if nothing justifies the drop."""
    if max(labels) < d:
        return "reach_d"
    for p in kept:
        image = [labels[j] for j in p]
        if image == labels:
            return "preserved"
        if _normal_form(image) < labels:
            return "image"
    return None


def test_walk_skips_only_labelings_a_kept_permutation_or_the_level_rules_out(monkeypatch):
    """The witness argument of ``lexidis.distinguishing``: each labeling the
    walk at level d drops without a leaf search has maximum below d, is
    preserved by a permutation kept at that moment, or is mapped by one to
    a labeling of smaller normal form.  Replay every walk over every atlas
    graph for D and every atlas graph with at most 8 edges for D', and check
    each dropped restricted-growth labeling by brute force against the
    permutations kept when the walk passed it."""
    from networkx.generators.atlas import graph_atlas_g

    import lexidis.distinguishing as dist

    events: list[tuple] = []
    add, walk = dist._Walk.add, dist._Walk.walk

    def recording_add(self, p):
        events.append(("kept", tuple(p)))
        return add(self, p)

    def recording_walk(self, d):
        refute = self.refute

        def recording_refute(labels):
            events.append(("leaf", list(labels)))
            return refute(labels)

        self.refute = recording_refute
        found = walk(self, d)
        self.refute = refute
        events.append(("level", d, self.m, found))
        return found

    monkeypatch.setattr(dist._Walk, "add", recording_add)
    monkeypatch.setattr(dist._Walk, "walk", recording_walk)
    reasons = {"reach_d": 0, "preserved": 0, "image": 0}

    def replay():
        kept: list[tuple[int, ...]] = []
        leaves: list[list[int]] = []
        fresh: list[list[tuple[int, ...]]] = []  # the permutations each leaf added
        for event in events:
            if event[0] == "kept":
                (fresh[-1] if fresh else kept).append(event[1])
            elif event[0] == "leaf":
                leaves.append(event[1])
                fresh.append([])
            else:
                _, d, m, found = event
                for labels in _rgs_up_to(m, d):
                    if leaves and labels == leaves[0]:
                        leaves.pop(0)
                        kept += fresh.pop(0)
                        if found and not leaves:
                            break
                        continue
                    reason = _skip_reason(labels, d, kept)
                    assert reason is not None, (d, labels, kept)
                    reasons[reason] += 1
                assert not leaves and not fresh
        events.clear()

    graphs = [Graph(x.number_of_nodes(), x.edges()) for x in graph_atlas_g()]
    for g in graphs:
        distinguishing_number(g)
        replay()
    for g in graphs:
        if 0 < g.m <= 8:
            distinguishing_index(g)
            replay()
    # every rule dropped labelings, so the check is not vacuous
    assert min(reasons.values()) > 1000, reasons


def _walk_totals(monkeypatch, oracle, graphs) -> dict[str, int]:
    """The walk counters summed over ``oracle`` on each of ``graphs``."""
    import lexidis.distinguishing as dist

    walks = []

    class Recording(dist._Walk):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            walks.append(self)

    monkeypatch.setattr(dist, "_Walk", Recording)
    for g in graphs:
        oracle(g)
    monkeypatch.undo()
    return dict(zip(dist.COUNTERS, map(sum, zip(*(w.counts for w in walks)))))


# steps, leaves, then values dropped by each prune, then backjumps
WALK_COUNTS = {
    ("D", "K3[C4]"): (345, 6, 70, 463, 120, 2, 4),
    ("D", "spider6"): (253, 6, 70, 0, 156, 1, 4),
    ("D'", "K3[C4]"): (136, 5, 13, 0, 4, 0, 3),
    ("D'", "spider6"): (624, 6, 254, 0, 481, 1, 4),
}


@pytest.mark.parametrize("oracle, name", sorted(WALK_COUNTS))
def test_walk_counters_are_pinned(monkeypatch, oracle, name):
    from lexidis.distinguishing import COUNTERS

    assert COUNTERS == (
        "steps", "leaves", "preserved", "twin_floor", "image", "reach_d", "backjump"
    )
    g = SLOW_TAIL[name][0]
    fn = distinguishing_number if oracle == "D" else distinguishing_index
    counts = _walk_totals(monkeypatch, fn, [g])
    assert tuple(counts.values()) == WALK_COUNTS[oracle, name]
    leaves = D_LEAVES[name] if oracle == "D" else D_PRIME_LEAVES[name][1]
    assert counts["leaves"] == leaves


# the counters summed over every atlas graph for D and every atlas graph with
# 0 < m <= 8 for D', the graphs of the witness-argument replay
ATLAS_WALK_TOTALS = {
    "D": (16418, 1761, 298, 6855, 91, 518, 280),
    "D'": (4860, 561, 489, 882, 242, 286, 68),
}


@pytest.mark.parametrize("oracle", sorted(ATLAS_WALK_TOTALS))
def test_atlas_walk_totals_are_pinned(monkeypatch, oracle):
    """Every counter is pinned but the split of the kept permutations'
    drops between preserved and image, which follows the order the walk
    tries them in; the sum of the two is pinned."""
    from networkx.generators.atlas import graph_atlas_g

    graphs = [Graph(x.number_of_nodes(), x.edges()) for x in graph_atlas_g()]
    if oracle == "D":
        fn = distinguishing_number
    else:
        fn, graphs = distinguishing_index, [g for g in graphs if 0 < g.m <= 8]
    got = _walk_totals(monkeypatch, fn, graphs)
    want = dict(zip(got, ATLAS_WALK_TOTALS[oracle]))
    for name in ("steps", "leaves", "twin_floor", "reach_d", "backjump"):
        assert got[name] == want[name], name
    assert got["preserved"] + got["image"] == want["preserved"] + want["image"]


def test_spider_k2_oracle_meets_the_closed_form():
    # D(spider(n)[K2]) is the least r with C(r, 2)^2 >= n: 3 up to n = 9,
    # and 4 from n = 10 on
    for n in range(3, 11):
        d, w = distinguishing_number(lex_product(spider(n), complete(2)))
        assert d == spider_k2_distinguishing_number(n) == (3 if n < 10 else 4)
        assert is_distinguishing(lex_product(spider(n), complete(2)), w)
