"""Edge-labeling searches: golden values over the graph atlas, the
subdivision search as a referee, and graphs whose automorphisms that fix
every edge form a large group."""
import hashlib
import random

import pytest

from lexidis import (
    Graph,
    autosearch,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    find_preserving_edges,
    is_distinguishing_edges,
    lex_power,
    lex_product,
    path,
    preserves_edge_labels,
    spider,
)
from lexidis.cli import main
from lexidis.distinguishing import validate_edge_labeling
from lexidis.formats import write_edge_list

from .util import (
    edge_action_is_trivial,
    line_graph,
    naive_edge_preserver_exists,
    random_graph,
    recorded_stats,
    reference_search,
    subdivision,
    subdivision_colors,
)


def _atlas_with_edges():
    """(atlas index, Graph) for every networkx-atlas graph with an edge:
    the 1 245 graphs on 2 to 7 vertices that are not edgeless."""
    from networkx.generators.atlas import graph_atlas_g

    return [
        (i, Graph(x.number_of_nodes(), x.edges()))
        for i, x in enumerate(graph_atlas_g())
        if x.number_of_edges()
    ]


def test_edge_index_and_refutations_are_pinned():
    """Digest of (D', witness) over every atlas graph with an edge, and of
    which random 2-label edge labelings on atlas graphs up to 6 vertices
    ``find_preserving_edges`` refutes.  Witnesses are the lex-least ones
    and refutations are facts about the labelings, so neither may depend
    on how the search encodes the labels or orders its work."""
    graphs = _atlas_with_edges()
    assert len(graphs) == 1245
    values = hashlib.sha256()
    for i, g in graphs:
        d, w = distinguishing_index(g)
        values.update(repr((i, d, [w[e] for e in g.edge_list()])).encode())
    rng = random.Random(1903)
    refuted = hashlib.sha256()
    tried = found = 0
    for i, g in graphs:
        if g.n > 6:
            continue
        for _ in range(3):
            labels = {e: rng.randrange(1, 3) for e in g.edge_list()}
            got = find_preserving_edges(g, labels) is not None
            refuted.update(repr((i, got)).encode())
            tried += 1
            found += got
    assert (tried, found) == (606, 298)
    assert values.hexdigest() == "63757c6b7c055b5dd617073fcb1f1fe9c461bebde650bfbde83aef08b137c68d"
    assert refuted.hexdigest() == "b31bd431f8aae7214fca9e9cad3b06835360504c0c68b621e1706198476e4487"


def _with_small_components(rng: random.Random, g: Graph) -> Graph:
    """g plus a few K2 components and isolated vertices, relabeled at
    random so that either end of a K2 can be the lower one."""
    pairs, singles = rng.randrange(3), rng.randrange(4)
    n = g.n + 2 * pairs + singles
    edges = g.edge_list() + [(g.n + 2 * i, g.n + 2 * i + 1) for i in range(pairs)]
    order = list(range(n))
    rng.shuffle(order)
    return Graph(n, [(order[u], order[v]) for u, v in edges])


def test_band_search_agrees_with_the_subdivision_referee():
    """On random edge labelings, many of them on disconnected graphs with
    isolated vertices and K2 components, the band search finds a
    certificate exactly when the depth-first reference search on the
    subdivision finds an automorphism moving a position at or after n, and
    every certificate preserves the labels and moves an edge; on graphs of
    at most five vertices an n! scan agrees as well."""
    rng = random.Random(1907)
    tried = found = small = 0
    for trial in range(400):
        g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.2, 0.4, 0.7]))
        if trial % 2:
            g = _with_small_components(rng, g)
        if g.m == 0:
            continue
        edges = g.edge_list()
        labels = {e: rng.randrange(1, rng.choice([1, 2, 3]) + 1) for e in edges}
        got = find_preserving_edges(g, labels)
        sub = subdivision(g, edges)
        want = reference_search(
            sub, len(sub), subdivision_colors(g, labels), g.n, autosearch.SearchStats())
        assert (got is None) == (want is None), trial
        if got is not None:
            assert preserves_edge_labels(g, labels, got), trial
            assert not edge_action_is_trivial(g, got), trial
        if g.n <= 5:
            assert (got is not None) == naive_edge_preserver_exists(g, labels), trial
            small += 1
        tried += 1
        found += got is not None
    assert tried >= 300 and 100 <= found <= tried - 100 and small >= 50


def _line_graph_referee(g: Graph) -> None:
    d, witness = distinguishing_index(g)
    assert distinguishing_number(line_graph(g)) == (d, [witness[e] for e in g.edge_list()])


def test_edge_index_is_the_line_graphs_distinguishing_number():
    """D'(G) = D(L(G)), in value and in witness, on every connected atlas
    graph with 5 to 7 vertices.  On a connected graph with at least 5
    vertices every automorphism of L(G) comes from exactly one of G
    (Whitney 1932), so the distinguishing edge labelings of G are the
    distinguishing vertex labelings of L(G), whose vertices are G's edges in
    ``edge_list()`` order: the lex-least witnesses coincide.  The vertex
    oracle referees the banded edge search, the edge action and the twin
    seeds of D' at sizes the n! scan cannot reach."""
    import networkx as nx

    graphs = [Graph(x.number_of_nodes(), x.edges()) for x in nx.graph_atlas_g()
              if 5 <= x.number_of_nodes() <= 7 and nx.is_connected(x)]
    assert len(graphs) == 986
    for g in graphs:
        _line_graph_referee(g)


LINE_GRAPH_CASES = {
    "C5^2": lambda: lex_power(cycle(5), 2),
    "P3^3": lambda: lex_power(path(3), 3),
    "K3[C4]": lambda: lex_product(complete(3), cycle(4)),
    "spider(8)": lambda: spider(8),
    "spider(9)": lambda: spider(9),
}


@pytest.mark.parametrize("name", list(LINE_GRAPH_CASES))
def test_line_graph_referees_products_and_spiders(name):
    _line_graph_referee(LINE_GRAPH_CASES[name]())


def _k3_plus(isolated: int) -> Graph:
    return Graph(3 + isolated, [(0, 1), (0, 2), (1, 2)])


def _matching(k: int) -> Graph:
    return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


# input -> (answer, searches, nodes, refinements).  Searches that swept
# every automorphism fixing every edge before answering None took 11.5 s,
# 0.74 s and 0.68 s on the first three, growing tenfold per isolated
# vertex, twofold per matching edge and eightfold per isolated vertex.
EDGE_FIXING = {
    "find_preserving_edges K2 + 9K1": (
        lambda: find_preserving_edges(Graph(11, [(0, 1)]), {(0, 1): 1}), None, 1, 0, 1),
    "find_preserving_edges 14K2, distinct labels": (
        lambda: find_preserving_edges(_matching(14), {(2 * i, 2 * i + 1): i + 1 for i in range(14)}),
        None, 1, 0, 1),
    "distinguishing_index K3 + 8K1": (
        lambda: distinguishing_index(_k3_plus(8)), (3, {(0, 1): 1, (0, 2): 2, (1, 2): 3}), 1, 0, 1),
    "distinguishing_index K3 + 30K1": (
        lambda: distinguishing_index(_k3_plus(30)), (3, {(0, 1): 1, (0, 2): 2, (1, 2): 3}), 1, 0, 1),
}


@pytest.mark.parametrize("name", list(EDGE_FIXING))
def test_edge_searches_skip_automorphisms_fixing_every_edge(monkeypatch, name):
    # isolated vertices take colors of their own and each K2 component's
    # lower end a marker, so only the identity fixes every edge
    run, answer, searches, nodes, refinements = EDGE_FIXING[name]
    made = recorded_stats(monkeypatch)
    assert run() == answer
    assert (len(made), sum(s.nodes for s in made), sum(s.refinements for s in made)) == (
        searches, nodes, refinements)


def test_matching_with_equal_labels_is_refuted(monkeypatch):
    # equal labels let two K2 components trade places: a certificate that
    # moves an edge, with each lower end mapped onto a lower end
    made = recorded_stats(monkeypatch)
    g = _matching(14)
    labels = {e: 1 for e in g.edge_list()}
    got = find_preserving_edges(g, labels)
    assert got.cycle_string() == "(24 26)(25 27)"
    assert preserves_edge_labels(g, labels, got) and not edge_action_is_trivial(g, got)
    assert [(s.nodes, s.refinements) for s in made] == [(14, 27)]


DOMAIN_MESSAGE = "labeling domain must equal the edge set exactly"


def _domain_cases(rng: random.Random, g: Graph) -> dict[str, dict]:
    """An exact labeling of g's edges and the ways a key set can miss the
    edge set: a missing edge, an extra non-edge, and an edge's key replaced
    by its reversed pair, an out-of-range pair, a self pair or a non-edge."""
    edges = g.edge_list()
    exact = {e: rng.randrange(1, 4) for e in edges}
    cases = {"exact": exact}
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    if non_edges:
        cases["extra non-edge"] = {**exact, rng.choice(non_edges): 1}
    if not edges:
        return cases
    u, v = rng.choice(edges)

    def replaced(key):
        out = dict(exact)
        out[key] = out.pop((u, v))
        return out

    cases["missing edge"] = {e: val for e, val in exact.items() if e != (u, v)}
    cases["reversed pair"] = replaced((v, u))
    cases["out of range"] = replaced((u, g.n + rng.randrange(3)))
    cases["negative end"] = replaced((-1, v))
    cases["self pair"] = replaced((u, u))
    if non_edges:
        cases["non-edge in place"] = replaced(rng.choice(non_edges))
    return cases


def _domain_graphs():
    rng = random.Random(2911)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(0, 8), rng.choice([0.2, 0.5, 0.9]))
        yield rng, g


def _answers(fn, *args):
    """('answer', value) or ('refused', message) for a ValueError."""
    try:
        return "answer", fn(*args)
    except ValueError as exc:
        return "refused", str(exc)


def test_edge_domains_are_refused_as_a_set_compare_refuses_them(tmp_path, capsys):
    """Each key set is accepted exactly when it equals the edge set, by
    ``validate_edge_labeling``, ``find_preserving_edges``,
    ``is_distinguishing_edges`` and ``lexidis verify``, with one message
    for every refusal; accepted labelings get the n! referee's answer."""
    seen = dict.fromkeys(["exact", "extra non-edge", "missing edge", "reversed pair",
                          "out of range", "negative end", "self pair", "non-edge in place"], 0)
    for trial, (rng, g) in enumerate(_domain_graphs()):
        for name, labels in _domain_cases(rng, g).items():
            seen[name] += 1
            exact = set(labels) == set(g.edge_list())
            want = None if exact else ("refused", DOMAIN_MESSAGE)
            assert _answers(validate_edge_labeling, g, labels) == (want or ("answer", None)), (
                trial, name)
            got = _answers(find_preserving_edges, g, labels)
            dist = _answers(is_distinguishing_edges, g, labels)
            if exact:
                preserver = naive_edge_preserver_exists(g, labels)
                assert got[0] == "answer" and (got[1] is not None) == preserver, (trial, name)
                assert dist == ("answer", not preserver), (trial, name)
            else:
                assert got == dist == want, (trial, name)
            if not labels:
                continue
            # the CLI reads the pair as written and stores it ascending
            graph, lab = tmp_path / "g.el", tmp_path / "lab.txt"
            graph.write_text(write_edge_list(g))
            lab.write_text("".join(f"e {a} {b} {val}\n" for (a, b), val in labels.items()))
            code = main(["verify", str(graph), str(lab)])
            out = capsys.readouterr()
            stored = {(min(e), max(e)): val for e, val in labels.items()}
            if set(stored) == set(g.edge_list()):
                want_code = 1 if naive_edge_preserver_exists(g, stored) else 0
                assert (code, out.err) == (want_code, ""), (trial, name)
            else:
                assert (code, out.out, out.err) == (2, "", f"error: {DOMAIN_MESSAGE}\n"), (trial, name)
    assert min(seen.values()) >= 25, seen


def test_edge_domains_refuse_keys_that_are_not_int_pairs():
    """A key that is not a pair of ints is refused with the domain message,
    never a TypeError; the set compare accepted those equal to an edge,
    such as (0, 1.0)."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    base = {(0, 1): 1, (1, 2): 1, (2, 3): 2}
    for key in [(0, 1.0), (0.0, 1), (False, 1.0), "01", 1, (0, 1, 0), (0,), frozenset({0, 1})]:
        labels = dict(base)
        del labels[(0, 1)]
        labels[key] = 1
        for fn in (validate_edge_labeling, find_preserving_edges, is_distinguishing_edges):
            with pytest.raises(ValueError) as exc:
                fn(g, labels)
            assert str(exc.value) == DOMAIN_MESSAGE, (key, fn)


def test_edge_labeling_checks_do_not_list_the_edges(monkeypatch, tmp_path, capsys):
    """The domain check and the banded rows read the labeling and the row
    bits; none of the three checks, nor ``lexidis verify``, lists g's edges."""
    rng = random.Random(2917)
    cases = []
    for g in (_matching(4), lex_product(path(4), path(2)), *(random_graph(rng, 7) for _ in range(6))):
        labels = {e: rng.randrange(1, 3) for e in g.edge_list()}
        cases.append((g, labels, find_preserving_edges(g, labels)))
    graph, lab = tmp_path / "g.el", tmp_path / "lab.txt"
    graph.write_text(write_edge_list(cases[1][0]))
    lab.write_text("".join(f"e {u} {v} {val}\n" for (u, v), val in cases[1][1].items()))

    def no_edge_list(self):
        raise AssertionError("listed the edges")

    monkeypatch.setattr(Graph, "edge_list", no_edge_list)
    for g, labels, want in cases:
        assert validate_edge_labeling(g, labels) is None
        assert find_preserving_edges(g, labels) == want
        assert is_distinguishing_edges(g, labels) == (want is None)
    assert main(["verify", str(graph), str(lab)]) == (0 if cases[1][2] is None else 1)
    assert capsys.readouterr().err == ""


def test_edge_labels_are_checked_before_the_domain(tmp_path, capsys):
    """A labeling with both a label below 1 and a key that is no edge is
    refused for its label, by the library and by ``lexidis verify``."""
    g = path(4)
    labels = {(0, 1): 0, (1, 2): 1, (0, 3): 2}
    message = "edge (0, 1): label 0 outside 1..2"
    for fn in (validate_edge_labeling, is_distinguishing_edges):
        with pytest.raises(ValueError) as exc:
            fn(g, labels)
        assert str(exc.value) == message, fn
    graph, lab = tmp_path / "g.el", tmp_path / "lab.txt"
    graph.write_text(write_edge_list(g))
    lab.write_text("".join(f"e {u} {v} {val}\n" for (u, v), val in labels.items()))
    assert main(["verify", str(graph), str(lab)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_each_edge_question_checks_the_domain_once(monkeypatch, tmp_path, capsys):
    """``is_distinguishing_edges`` and ``lexidis verify`` validate the
    labeling and then search it without a second walk over its keys;
    ``find_preserving_edges`` alone still checks."""
    import lexidis.distinguishing as dist

    g = lex_product(path(4), path(2))
    labels = {e: 1 + (i % 3 == 0) for i, e in enumerate(g.edge_list())}
    graph, lab = tmp_path / "g.el", tmp_path / "lab.txt"
    graph.write_text(write_edge_list(g))
    lab.write_text("".join(f"e {u} {v} {val}\n" for (u, v), val in labels.items()))
    calls = []
    check = autosearch._check_edge_domain

    def counting(*args):
        calls.append(None)
        return check(*args)

    monkeypatch.setattr(autosearch, "_check_edge_domain", counting)
    monkeypatch.setattr(dist, "_check_edge_domain", counting)
    want = find_preserving_edges(g, labels)
    assert len(calls) == 1
    assert is_distinguishing_edges(g, labels) == (want is None)
    assert len(calls) == 2
    assert main(["verify", str(graph), str(lab)]) == (0 if want is None else 1)
    assert len(calls) == 3
    assert capsys.readouterr().err == ""
