import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexidis import (
    Graph,
    closed_twin_partition,
    complement,
    complete,
    components,
    cycle,
    is_connected,
    open_twin_partition,
    lex_product,
    path,
    spider,
    star,
)

from .util import random_graph, sweep_pairs
import random


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)
    # duplicate edges collapse (set semantics)
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.m == 1


def test_empty_and_singleton_graphs_are_legal():
    assert Graph(0).n == 0
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))


def test_neighbors_examples():
    assert path(3).neighbors(1) == {0, 2}
    assert complete(4).neighbors(0) == {1, 2, 3}
    # center of the subdivided star sees exactly the subdivision vertices
    assert spider(3).neighbors(0) == {1, 3, 5}
    with pytest.raises(IndexError):
        path(3).neighbors(3)


def test_closed_neighbors_examples():
    assert path(3).closed_neighbors(1) == {0, 1, 2}
    for v in range(3):
        assert complete(3).closed_neighbors(v) == {0, 1, 2}
    assert cycle(5).closed_neighbors(0) == {4, 0, 1}


def test_closed_neighborhood_size():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 9))
        for v in range(g.n):
            assert len(g.closed_neighbors(v)) == len(g.neighbors(v)) + 1


def test_open_twin_partition():
    # both leaves of the 2-star see only the center
    p = open_twin_partition(star(2))
    assert p == ((0,), (1, 2))
    # derived by checking all open-neighborhood pairs directly
    q = open_twin_partition(path(4))
    nbhds = [path(4).neighbors(v) for v in range(4)]
    assert len({frozenset(s) for s in nbhds}) == 4
    assert q == ((0,), (1,), (2,), (3,))
    assert open_twin_partition(complete(3)) == ((0,), (1,), (2,))


def test_closed_twin_partition():
    assert closed_twin_partition(complete(2)) == ((0, 1),)
    for n in (2, 3, 5):
        assert closed_twin_partition(complete(n)) == (tuple(range(n)),)
    # hand check of the three closed neighborhoods of the 3-path
    assert closed_twin_partition(path(3)) == ((0,), (1,), (2,))


def test_partition_classes_are_consistent():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 9))
        for part, key in (
            (open_twin_partition(g), g.neighbors),
            (closed_twin_partition(g), g.closed_neighbors),
        ):
            reps = []
            for cls in part:
                for v in cls:
                    assert key(v) == key(cls[0])
                reps.append(key(cls[0]))
            assert len({frozenset(r) for r in reps}) == len(part)
            # sorted classes, ordered by least vertex, covering every vertex once
            assert all(list(cls) == sorted(cls) for cls in part)
            assert [cls[0] for cls in part] == sorted(cls[0] for cls in part)
            assert sorted(v for cls in part for v in cls) == list(range(g.n))


def test_complement_examples():
    assert not is_connected(complement(complete(2)))
    # the 5-cycle is self-complementary: complement is again 2-regular and connected
    c5c = complement(cycle(5))
    assert c5c.m == 5 and all(c5c.degree(v) == 2 for v in range(5)) and is_connected(c5c)
    # non-edges of the 4-path, enumerated by hand
    assert complement(path(4)).edges == frozenset({(0, 2), (0, 3), (1, 3)})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 400), st.integers(0, 8))
def test_complement_involution(seed, n):
    g = random_graph(random.Random(seed), n)
    assert complement(complement(g)) == g


def test_connectivity_examples():
    assert is_connected(path(5))
    assert not is_connected(complement(complete(2)))
    assert is_connected(spider(4))
    assert components(Graph(4, [(0, 1), (2, 3)])) == [[0, 1], [2, 3]]


def test_family_sizes_and_minimums():
    assert spider(3).n == 7 and spider(3).m == 6
    assert complete(4).m == 6
    assert cycle(3).edges == complete(3).edges
    # star(2) is a 3-path with the center first
    assert star(2).edges == frozenset({(0, 1), (0, 2)})
    for fam, bad in ((path, 0), (cycle, 2), (complete, 0), (star, 0), (spider, 2)):
        with pytest.raises(ValueError):
            fam(bad)


def test_spider_is_a_tree():
    for n in range(3, 8):
        g = spider(n)
        assert g.n == 2 * n + 1
        assert g.m == 2 * n
        assert is_connected(g) and g.m == g.n - 1
        # frozen indexing: branch j uses vertices 2j-1 (subdivision) and 2j
        for j in range(1, n + 1):
            assert g.has_edge(0, 2 * j - 1)
            assert g.has_edge(2 * j - 1, 2 * j)


def test_construction_errors_name_the_input():
    for n, pairs, msg in ((3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
                          (2, [(0, 2)], "edge (0, 2) out of range for n=2"),
                          (2, [(-1, 0)], "edge (-1, 0) out of range for n=2"),
                          (-1, [], "vertex count must be non-negative, got -1")):
        with pytest.raises(ValueError) as exc:
            Graph(n, pairs)
        assert str(exc.value) == msg


def test_queries_read_off_the_rows_match_the_input_pairs():
    rng = random.Random(7)
    for n in range(13):
        for _ in range(3):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
            pairs += pairs[::2]  # duplicates; reversed pairs come from the ordered draw
            rng.shuffle(pairs)
            g = Graph(n, pairs)
            ref = {(min(e), max(e)) for e in pairs}
            nbrs = [{w for e in ref if v in e for w in e if w != v} for v in range(n)]
            assert g.edges == frozenset(ref)
            assert g.edge_list() == sorted(ref)
            assert g.m == len(ref)
            for v in range(n):
                assert g.neighbors(v) == frozenset(nbrs[v])
                assert g.closed_neighbors(v) == frozenset(nbrs[v] | {v})
                assert g.degree(v) == len(nbrs[v])
                assert [g.has_edge(v, w) for w in range(n)] == [w in nbrs[v] for w in range(n)]


def test_graphs_built_from_rows_equal_graphs_built_from_pairs():
    built = [complete(n) for n in range(1, 10)]
    for _, g, _, h in sweep_pairs():
        prod = lex_product(g, h)
        built += [prod, complement(g), complement(prod)]
    for g in built:
        ref = Graph(g.n, g.edge_list())
        assert g == ref and hash(g) == hash(ref) and g.m == ref.m
