"""Answer checks, run after the timed passes.

``check`` returns ("ok" | "capped" | "wrong", detail).  "capped" is an
exit-3 answer whose reported lower bound is consistent with the true group
order: a refusal under the fixed cap, not a wrong answer.  Certificates and
generators are re-checked here with naive code of the benchmark's own;
oracle witnesses are also re-certified with the package's
``is_distinguishing`` / ``is_distinguishing_edges``.
"""
from __future__ import annotations

import json
import re

import workloads as wl

EXIT_OK, EXIT_NEGATIVE, EXIT_CAP = 0, 1, 3
_MS = re.compile(r'"ms": [-0-9.e+]+')


class Checker:
    def __init__(self, workload: wl.Workload, cap: int) -> None:
        self.w = workload
        self.cap = cap
        self._cache: dict[tuple, tuple[str, str]] = {}
        self._edges: dict[str, tuple[int, frozenset]] = {}

    def check(self, q: wl.Question, rc: int, out: str) -> tuple[str, str]:
        key = (q.qid, rc, _MS.sub("", out))
        if key not in self._cache:
            verb = q.qid.split(":", 1)[0]
            try:
                self._cache[key] = getattr(self, f"_{verb}")(q, rc, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._cache[key] = ("wrong", f"unreadable answer: {exc!r}")
        return self._cache[key]

    # -- oracle ----------------------------------------------------------------

    def _dnum(self, q, rc, out):
        return self._oracle(q, rc, out, edges=False)

    def _dindex(self, q, rc, out):
        return self._oracle(q, rc, out, edges=True)

    def _oracle(self, q, rc, out, edges: bool):
        from lexidis import is_distinguishing, is_distinguishing_edges

        e = q.expect
        got = json.loads(out.strip().splitlines()[-1])
        if rc == EXIT_CAP:
            return self._capped(got, e.get("aut_order"))
        if rc != EXIT_OK:
            return "wrong", f"exit {rc}"
        if got["value"] != e["value"]:
            return "wrong", f"value {got['value']} != {e['value']}"
        if e["witness"] is not None and got["witness"] != e["witness"]:
            return "wrong", "witness differs from the golden one"
        g = self.w.graphs[f"{e['graph']}.txt"]
        wit = got["witness"]
        if edges:
            labels = {(u, v): val for u, v, val in wit}
            ok = (len(set(labels.values())) <= e["value"]
                  and is_distinguishing_edges(g, labels))
        else:
            ok = max(wit, default=1) <= e["value"] and is_distinguishing(g, wit)
        return ("ok", "") if ok else ("wrong", "witness is not distinguishing")

    def _capped(self, got: dict, true_order):
        at_least = got.get("at_least")
        if at_least is None:
            return "capped", "refused without a bound"
        if at_least <= self.cap or (true_order is not None and at_least > true_order):
            return "wrong", (f"cap bound {at_least} inconsistent"
                             f" (cap {self.cap}, order {true_order})")
        return "capped", f"order >= {at_least}"

    # -- groups ----------------------------------------------------------------

    def _aut(self, q, rc, out):
        got = json.loads(out)
        order = q.expect["order"]
        if rc == EXIT_CAP:
            return self._capped(got, order)
        if rc != EXIT_OK:
            return "wrong", f"exit {rc}"
        if got["order"] != order:
            return "wrong", f"order {got['order']} != {order}"
        g = self.w.graphs[q.argv[-1][1:]]
        for text in got["generators"]:
            if not is_automorphism(g, parse_cycles(text, g.n)):
                return "wrong", f"generator {text} is not an automorphism"
        return "ok", ""

    # -- certify ---------------------------------------------------------------

    def _product(self, q, rc, out):
        if rc != EXIT_OK:
            return "wrong", f"exit {rc}"
        n, edges = read_edge_list(out)
        want_n, want = self._product_of(*q.expect["factors"])
        if n != want_n or edges != want:
            return "wrong", "product differs from the independent construction"
        return "ok", ""

    def _label(self, q, rc, out):
        lines = out.strip().splitlines()
        got = json.loads(lines[-1])
        if rc != EXIT_OK or not got["certified"]:
            return "wrong", f"exit {rc}, certified={got.get('certified')}"
        if got["labels_used"] != q.expect["labels_used"]:
            return "wrong", f"labels_used {got['labels_used']} != {q.expect['labels_used']}"
        n, edges = self._product_of(*q.expect["product"])
        vertex = {int(p[1]): int(p[2]) for p in map(str.split, lines[:-1]) if p[0] == "v"}
        edge = {(int(p[1]), int(p[2])): int(p[3])
                for p in map(str.split, lines[:-1]) if p[0] == "e"}
        labels = vertex or edge
        domain_ok = set(vertex) == set(range(n)) if vertex else set(edge) == edges
        if not domain_ok or len(set(labels.values())) != got["labels_used"]:
            return "wrong", "emitted labeling does not match the product or the count"
        return "ok", ""

    def _verify(self, q, rc, out):
        got = json.loads(out)
        want = q.expect["distinguishing"]
        if got["distinguishing"] != want or rc != (EXIT_OK if want else EXIT_NEGATIVE):
            return "wrong", f"verdict {got['distinguishing']} (exit {rc}), expected {want}"
        if want:
            return "ok", ""
        g = self.w.graphs[q.argv[-2][1:]]
        labels = self.w.labelings[q.argv[-1][1:]]
        p = parse_cycles(got["certificate"], g.n)
        if not is_automorphism(g, p):
            return "wrong", "certificate is not an automorphism"
        if isinstance(labels, list):
            ok = any(p[v] != v for v in range(g.n)) and all(
                labels[p[v]] == labels[v] for v in range(g.n))
        else:
            moved = False
            ok = True
            for (u, v), val in labels.items():
                e = (min(p[u], p[v]), max(p[u], p[v]))
                moved |= e != (u, v)
                ok &= labels[e] == val
            ok &= moved
        return ("ok", "") if ok else ("wrong", "certificate does not preserve the labels")

    def _product_of(self, gs: str, hs: str) -> tuple[int, frozenset]:
        key = f"{gs}[{hs}]"
        if key not in self._edges:
            g = wl.family(gs)
            if hs.startswith("^"):
                n, edges = g.n, frozenset(g.edges)
                for _ in range(int(hs[1:]) - 1):
                    n, edges = lex_edges(g.n, g.edges, n, edges)
            else:
                h = wl.family(hs)
                n, edges = lex_edges(g.n, g.edges, h.n, h.edges)
            self._edges[key] = (n, edges)
        return self._edges[key]


# -- naive helpers -------------------------------------------------------------


def lex_edges(n_g: int, g_edges, n_h: int, h_edges) -> tuple[int, frozenset]:
    """Vertex count and edge set of G[H], vertex (a, x) numbered a*|H| + x."""
    out = set()
    for a in range(n_g):
        out.update((a * n_h + x, a * n_h + y) for x, y in h_edges)
    for a, b in g_edges:
        out.update((a * n_h + x, b * n_h + y) for x in range(n_h) for y in range(n_h))
    return n_g * n_h, frozenset(out)


def read_edge_list(text: str) -> tuple[int, frozenset]:
    lines = text.split("\n")
    head = lines[0].split()
    if head[0] != "p":
        raise ValueError("missing header")
    edges = frozenset((int(p[1]), int(p[2])) for p in map(str.split, lines[1:]) if p)
    if len(edges) != int(head[2]):
        raise ValueError("edge count differs from the header")
    return int(head[1]), edges


def parse_cycles(text: str, n: int) -> list[int]:
    img = list(range(n))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        pts = [int(x) for x in cyc.split()]
        for i, v in enumerate(pts):
            img[v] = pts[(i + 1) % len(pts)]
    if sorted(img) != list(range(n)):
        raise ValueError(f"not a permutation: {text}")
    return img


def is_automorphism(g, p: list[int]) -> bool:
    edges = g.edges
    return all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)
