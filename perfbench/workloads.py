"""Question lists of the three workloads.

A question is one ``lexidis`` CLI invocation.  Its argv names input files
as ``@name``; the runner writes the inputs and substitutes real paths.
Every list is a pure function of (workload, seed): the seed picks which
graphs of a fixed pool are asked, how inputs are relabeled or perturbed,
and the order of the questions.  Expected answers come from
``golden.json``, built by ``build_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# LEXIDIS_CAP and the `aut --cap` value.  Fixed on every commit, so a later
# engine that needs no cap answers the same questions, not easier ones.
CAP = 1000

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# seed of the fixed pool of random graphs the oracle workload samples from
POOL_SEED = 1606
POOL_SIZE = 40
POOL_PICK = 10

# dindex questions whose group exceeds CAP, with D'(K_n) = 2 for n >= 6
CAPPED_DINDEX = ("K3[K4]", "K4[K3]", "K2[K5]", "K5[K2]")


@dataclass
class Question:
    qid: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    questions: list[Question]
    inputs: dict[str, str]  # file name -> text
    graphs: dict[str, object]  # file name -> lexidis Graph, for the checks
    labelings: dict[str, object] = field(default_factory=dict)  # file name -> labels

    def digest(self) -> str:
        body = json.dumps(
            [[q.qid, q.argv, q.expect] for q in self.questions]
            + [sorted(self.inputs.items())],
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


# -- graphs ------------------------------------------------------------------


def family(spec: str):
    """Graph from a short name: P<n> path, C<n> cycle, K<n> complete,
    S<n> star with n leaves, X<n> spider with n branches."""
    from lexidis import complete, cycle, path, spider, star

    kind, n = spec[0], int(spec[1:])
    return {"P": path, "C": cycle, "K": complete, "S": star, "X": spider}[kind](n)


def catalog() -> dict:
    """The connected graphs of the test suite's catalog, same names and order."""
    from lexidis import Graph, complete, cycle, path, spider, star

    return {
        "K1": complete(1),
        "K2": complete(2),
        "P3": path(3),
        "K3": complete(3),
        "P4": path(4),
        "K13": star(3),
        "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
        "C4": cycle(4),
        "diamond": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        "K4": complete(4),
        "P5": path(5),
        "C5": cycle(5),
        "K5": complete(5),
        "K14": star(4),
        "P6": path(6),
        "C6": cycle(6),
        "spider3": spider(3),
    }


def atlas4() -> dict:
    return {k: g for k, g in catalog().items() if g.n <= 4}


def tritail():
    from lexidis import Graph

    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])


def random_pool() -> dict:
    """POOL_SIZE seeded random connected graphs on 7..9 vertices."""
    from lexidis import Graph

    rng = random.Random(POOL_SEED)
    out = {}
    for i in range(POOL_SIZE):
        n = 7 + i % 3
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        order = list(range(n))
        rng.shuffle(order)
        for k in range(1, n):
            u, v = order[k], order[rng.randrange(k)]
            edges.add((min(u, v), max(u, v)))
        out[f"rand{i:02d}"] = Graph(n, sorted(edges))
    return out


def oracle_graphs() -> dict:
    """Catalog graphs, their products on at most 12 vertices, spider(4..6)."""
    from lexidis import lex_product, spider

    cat = catalog()
    out = dict(cat)
    for gn, g in cat.items():
        for hn, h in cat.items():
            if g.n > 1 and h.n > 1 and g.n * h.n <= 12:
                out[f"{gn}[{hn}]"] = lex_product(g, h)
    for n in (4, 5, 6):
        out[f"spider{n}"] = spider(n)
    return out


def edge_list_text(g) -> str:
    lines = [f"p {g.n} {len(g.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def graph6_text(g) -> str:
    """Standard graph6 encoding (n < 63 or the '~' form up to 258047)."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    bits = []
    for j in range(1, n):
        row = g.adjacency_bits[j]
        bits.extend((row >> i) & 1 for i in range(j))
    bits.extend([0] * (-len(bits) % 6))
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out) + "\n"


def relabel(g, perm: list[int]):
    from lexidis import Graph

    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def vertex_labels_text(labels) -> str:
    return "".join(f"v {v} {val}\n" for v, val in enumerate(labels))


def edge_labels_text(labels: dict) -> str:
    return "".join(f"e {u} {v} {val}\n" for (u, v), val in sorted(labels.items()))


class _Builder:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.questions: list[Question] = []
        self.inputs: dict[str, str] = {}
        self.graphs: dict[str, object] = {}
        self.labelings: dict[str, object] = {}

    def graph(self, fname: str, g, graph6: bool = False) -> str:
        if fname not in self.inputs:
            self.inputs[fname] = graph6_text(g) if graph6 else edge_list_text(g)
            self.graphs[fname] = g
        return "@" + fname

    def labeling(self, fname: str, labels) -> str:
        text = vertex_labels_text(labels) if isinstance(labels, list) else edge_labels_text(labels)
        self.inputs[fname] = text
        self.labelings[fname] = labels
        return "@" + fname

    def ask(self, qid: str, argv: list[str], **expect) -> None:
        if any(q.qid == qid for q in self.questions):
            raise ValueError(f"duplicate question id {qid}")
        self.questions.append(Question(qid, argv, expect))

    def done(self) -> Workload:
        random.Random(f"{self.name}:{self.seed}:order").shuffle(self.questions)
        return Workload(self.name, self.seed, self.questions, self.inputs, self.graphs,
                        self.labelings)


# -- oracle --------------------------------------------------------------------


def oracle(seed: int, golden: dict) -> Workload:
    """dnum and dindex on small graphs; the slow tail (K3[C4], spider6) stays."""
    b = _Builder("oracle", seed)
    gold = golden["oracle"]
    graphs = oracle_graphs()
    pool = random_pool()
    picked = sorted(random.Random(f"oracle:{seed}:pool").sample(sorted(pool), POOL_PICK))
    graphs.update((k, pool[k]) for k in picked)
    for i, (name, g) in enumerate(graphs.items()):
        ref = b.graph(f"{name}.txt", g, graph6=i % 2 == 1)
        b.ask(f"dnum:{name}", ["--json", "dnum", ref], graph=name, **gold["dnum"][name])
        if g.m == 0:
            continue
        row = gold["dindex"][name]
        if row["aut_order"] <= CAP or name in CAPPED_DINDEX:
            b.ask(f"dindex:{name}", ["--json", "dindex", ref], graph=name, **row)
    return b.done()


# -- groups --------------------------------------------------------------------


def group_pairs() -> list[tuple[str, object, str, object]]:
    """All 100 atlas4 pairs plus C5[P4] and tritail[P3]."""
    from lexidis import cycle, path

    a = atlas4()
    pairs = [(gn, g, hn, h) for gn, g in a.items() for hn, h in a.items()]
    pairs.append(("C5", cycle(5), "P4", path(4)))
    pairs.append(("tritail", tritail(), "P3", path(3)))
    return pairs


def groups(seed: int, golden: dict) -> Workload:
    """`aut --cap CAP` on G[H], each product given under a seeded relabeling."""
    from lexidis import lex_product

    b = _Builder("groups", seed)
    for i, (gn, g, hn, h) in enumerate(group_pairs()):
        name = f"{gn}[{hn}]"
        prod = lex_product(g, h)
        perm = list(range(prod.n))
        random.Random(f"groups:{seed}:{name}").shuffle(perm)
        ref = b.graph(f"{name}.txt", relabel(prod, perm), graph6=i % 2 == 1)
        b.ask(f"aut:{name}", ["--json", "aut", "--cap", str(CAP), ref],
              order=golden["groups"][name])
    return b.done()


# -- certify -------------------------------------------------------------------

# `product` inputs: (first factor, second factor or "^k" for a power)
PRODUCTS = [
    ("K20", "K10"), ("K12", "K12"), ("K30", "K2"), ("K8", "C8"), ("C8", "K8"),
    ("X200", "K2"), ("X100", "P3"), ("X60", "C5"), ("X40", "K4"),
    ("P3", "^4"), ("P3", "^5"), ("C4", "^3"), ("K2", "^8"), ("P4", "^3"),
    ("C30", "P6"), ("C60", "K3"), ("C100", "K2"), ("C200", "P4"), ("C40", "C8"),
    ("P50", "C4"), ("P100", "K2"), ("P200", "P3"), ("P25", "K5"), ("P80", "C5"),
    ("S40", "K3"), ("S60", "P4"), ("S99", "K2"), ("S30", "C6"), ("K5", "C12"),
    ("C12", "K5"),
]

# `label --certify` rows: (method, factor specs, extra argv)
LABELS = [
    ("thm21", ("P10", "C5"), []), ("thm21", ("P12", "P5"), []), ("thm21", ("C8", "C4"), []),
    ("thm22", ("P25", "C4"), []), ("thm22", ("P40", "C5"), []), ("thm22", ("C20", "P5"), []),
    ("thm31", ("P10", "C5"), []), ("thm31", ("P6", "P4"), []), ("thm31", ("C8", "P4"), []),
    ("prop32", ("C6",), []), ("prop32", ("P12",), []), ("prop32", ("C9",), []),
    ("prop33", ("P3",), ["--n", "16"]), ("prop33", ("C4",), ["--n", "6"]),
    ("prop33", ("P4",), ["--n", "10"]),
    ("prop34", ("C5",), ["--n", "10"]), ("prop34", ("P3",), ["--n", "16"]),
    ("prop34", ("C4",), ["--n", "12"]),
    ("thm35", ("P25",), []), ("thm35", ("C12",), []), ("thm35", ("P16",), []),
    ("thm36", ("P3", "P4"), []), ("thm36", ("C5", "P6"), []), ("thm36", ("P4", "C5"), []),
    ("power", ("P3",), ["--power", "3"]), ("power", ("P4",), ["--power", "2"]),
    ("power", ("C5",), ["--power", "2"]),
]

NEGATIVES_PER_LABELING = 3


def label_qid(method: str, specs: tuple[str, ...], extra: list[str]) -> str:
    return f"label:{method}:{','.join(specs)}" + (f":{extra[1]}" if extra else "")


def label_product(method: str, specs: tuple[str, ...], extra: list[str]) -> list[str]:
    """The product a `label` method labels, as [first factor, second or "^k"]."""
    if method == "prop32":
        return ["K2", specs[0]]
    if method == "prop33":
        return [f"S{extra[1]}", specs[0]]
    if method == "prop34":
        return [f"P{extra[1]}", specs[0]]
    if method == "thm35":
        return [specs[0], "K2"]
    if method == "power":
        return [specs[0], f"^{extra[1]}"]
    return list(specs)


def _witness(spec: str, edges: bool):
    from lexidis import distinguishing_index, distinguishing_number

    g = family(spec)
    return (distinguishing_index(g) if edges else distinguishing_number(g))[1]


def _pinned_path_labeling(n: int) -> list[int]:
    """Two labels on P_n: all 1 but the last vertex, which breaks the flip."""
    return [1] * (n - 1) + [2]


def verify_labelings() -> list[tuple[str, str, str, object]]:
    """(name, first factor, second factor, labeling) of distinguishing
    labelings built by the package's constructions, on 24..402 vertices."""
    import lexidis as lx

    out = []
    for n in (30, 100):
        lg = lx.spider_distinguishing_labeling(n)
        out.append((f"spiderK2_{n}", f"X{n}", "K2",
                    lx.pattern_product_labeling(lx.spider(n), lx.complete(2), lg, [1, 2])))
    for n in (10, 40):
        out.append((f"block_P{n}_C5", f"P{n}", "C5",
                    lx.block_product_labeling(lx.path(n), lx.cycle(5),
                                              _pinned_path_labeling(n), _witness("C5", False))))
    for n in (25, 50):
        out.append((f"pattern_P{n}_C4", f"P{n}", "C4",
                    lx.pattern_product_labeling(lx.path(n), lx.cycle(4),
                                                _pinned_path_labeling(n), _witness("C4", False))))
    out.append(("prop34_P17_P3", "P17", "P3", lx.path_product_edge_labeling(17, lx.path(3))))
    out.append(("prop34_P12_C4", "P12", "C4", lx.path_product_edge_labeling(12, lx.cycle(4))))
    out.append(("thm35_P25_K2", "P25", "K2",
                lx.p2_product_edge_labeling(lx.path(25), _witness("P25", True))))
    out.append(("thm36_C5_P6", "C5", "P6", lx.two_label_edge_labeling(lx.cycle(5), lx.path(6))))
    out.append(("prop32_K2_P12", "K2", "P12", lx.k2_product_edge_labeling(lx.path(12))))
    out.append(("prop33_S16_P3", "S16", "P3",
                lx.star_product_edge_labeling(16, lx.path(3), _witness("P3", True))))
    out.append(("thm31_P17_P3", "P17", "P3",
                lx.inherited_edge_labeling(lx.path(17), lx.path(3), _witness("P17", True),
                                           _witness("P3", True))))
    return out


def flatten_copy(labels, n_h: int, copy: int):
    """Make every labeling feature of one H-copy invariant under Aut(H).

    Vertex labels: the copy gets one label.  Edge labels: the copy's own
    edges get one label, and each edge (copy, x)-(b, y) takes the label of
    (copy, 0)-(b, y).  Any nontrivial automorphism of H applied inside that
    copy, identity elsewhere, is then a label-preserving automorphism of
    G[H] that moves an edge, so the result is never distinguishing.
    """
    lo = copy * n_h
    if isinstance(labels, list):
        out = list(labels)
        out[lo:lo + n_h] = [labels[lo]] * n_h
        return out
    inner = [val for (u, v), val in labels.items() if u // n_h == copy and v // n_h == copy]
    out = dict(labels)
    for (u, v) in labels:
        cu, cv = u // n_h, v // n_h
        if cu == cv == copy:
            out[(u, v)] = inner[0]
        elif cu == copy or cv == copy:
            w = v if cu == copy else u
            e = (lo, w) if lo < w else (w, lo)
            out[(u, v)] = labels[e]
    return out


def certify(seed: int, golden: dict) -> Workload:
    """`product`, `label --certify` and `verify` on products of 24..802 vertices."""
    from lexidis import lex_product

    b = _Builder("certify", seed)
    rng = random.Random(f"certify:{seed}:copies")
    for i, (gs, hs) in enumerate(PRODUCTS):
        g6 = i % 2 == 1
        if hs.startswith("^"):
            argv = ["product", b.graph(f"{gs}.txt", family(gs), g6), "--power", hs[1:]]
        else:
            argv = ["product", b.graph(f"{gs}.txt", family(gs), g6),
                    b.graph(f"{hs}.txt", family(hs), g6)]
        b.ask(f"product:{gs}[{hs}]", argv, factors=[gs, hs])
    for method, specs, extra in LABELS:
        qid = label_qid(method, specs, extra)
        refs = [b.graph(f"{s}.txt", family(s)) for s in specs]
        b.ask(qid, ["--json", "label", "--method", method, *refs, *extra, "--certify"],
              labels_used=golden["certify"]["labels_used"].get(qid),
              product=label_product(method, specs, extra))
    for name, gs, hs, labels in verify_labelings():
        g, h = family(gs), family(hs)
        prod = lex_product(g, h)
        gref = b.graph(f"{gs}[{hs}].txt", prod, graph6=isinstance(labels, list))
        b.ask(f"verify:{name}:+", ["--json", "verify", gref, b.labeling(f"{name}.lab", labels)],
              distinguishing=True)
        copies = rng.sample(range(g.n), min(NEGATIVES_PER_LABELING, g.n))
        for c in copies:
            bad = flatten_copy(labels, h.n, c)
            b.ask(f"verify:{name}:-{c}",
                  ["--json", "verify", gref, b.labeling(f"{name}.{c}.lab", bad)],
                  distinguishing=False)
    return b.done()


BUILDERS = {"oracle": oracle, "groups": groups, "certify": certify}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, golden: dict | None = None) -> Workload:
    return BUILDERS[name](seed, golden if golden is not None else load_golden())
