"""Rebuild golden.json, the expected answers of every workload.

Run from the repository root:

    PYTHONPATH=src:. python3 perfbench/build_golden.py

The answers are taken from the package at the current commit and
cross-checked against independent referees before they are written:

* oracle: for graphs on at most 8 vertices, the brute-force oracles of
  ``tests/util.py`` confirm the witness, the minimality of the value and
  that the witness is the lexicographically least labeling; spider(n) and
  K_n values are compared with their closed forms.
* groups: orders come from sympy on the wreath plus copy-swap generators,
  built here from brute-force factor groups; they are compared with the
  package's enumeration where the group has at most 20000 elements, and
  with (ab)! for complete products.
* certify: ``labels_used`` comes from each construction's closed-form
  budget and must equal what ``label --certify`` reports; every verify
  input must get its designed verdict.

The runtime benchmark needs neither sympy nor ``tests/``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

BRUTE_MAX_N = 8
BRUTE_MAX_LABELINGS = 300_000
ENUM_CROSSCHECK_MAX = 20_000
COMPLETE = ("K1", "K2", "K3", "K4", "K5")


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def automorphisms(g) -> list[tuple[int, ...]]:
    """All automorphisms by backtracking over degree-matched images."""
    n = g.n
    adj = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = [len(a) for a in adj]
    img = [-1] * n
    used = [False] * n
    out = []

    def rec(v: int) -> None:
        if v == n:
            out.append(tuple(img))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all((u in adj[v]) == (img[u] in adj[w]) for u in range(v)):
                img[v] = w
                used[w] = True
                rec(v + 1)
                used[w] = False
        img[v] = -1

    rec(0)
    return out


def _edge_perm(edges, index, p):
    return tuple(index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in edges)


def brute_dnum(g, auts) -> tuple[int, list[int]] | None:
    """Least d and lex-least restricted-growth witness, by enumeration; None
    when the enumeration would exceed BRUTE_MAX_LABELINGS."""
    n = g.n
    moving = [p for p in auts if any(p[v] != v for v in range(n))]
    for d in range(1, n + 1):
        if d ** n > BRUTE_MAX_LABELINGS:
            return None
        for lab in product(range(1, d + 1), repeat=n):
            if max(lab, default=1) != d or not _restricted_growth(lab):
                continue
            if not any(all(lab[p[v]] == lab[v] for v in range(n)) for p in moving):
                return d, list(lab)
    return None


def brute_dindex(g, auts) -> tuple[int, list[int]] | None:
    edges = sorted(g.edges)
    m = len(edges)
    index = {e: i for i, e in enumerate(edges)}
    eperms = {_edge_perm(edges, index, p) for p in auts}
    eperms.discard(tuple(range(m)))
    if not eperms:
        return 1, [1] * m
    for d in range(2, m + 1):
        if d ** m > BRUTE_MAX_LABELINGS:
            return None
        for lab in product(range(1, d + 1), repeat=m):
            if max(lab) != d or not _restricted_growth(lab):
                continue
            if not any(all(lab[q[i]] == lab[i] for i in range(m)) for q in eperms):
                return d, list(lab)
    return None


def _restricted_growth(lab) -> bool:
    top = 0
    for val in lab:
        if val > top + 1:
            return False
        top = max(top, val)
    return True


def k_edge_index(n: int) -> int:
    """D'(K_n): 1 for K_2, 3 for n = 3, 4, 5, else 2 (Kalinowski-Pilsniak)."""
    return 1 if n == 2 else 3 if n <= 5 else 2


# -- groups ------------------------------------------------------------------


def _complement_components(h) -> list[set[int]]:
    comps: list[set[int]] = []
    seen: set[int] = set()
    for s in range(h.n):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for v in range(h.n):
                if v != u and v not in comp and (min(u, v), max(u, v)) not in h.edges:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def wreath_and_swap_generators(g, h) -> list[list[int]]:
    """Aut(G) on the copy coordinate, Aut(H) inside each copy, and for each
    closed-twin pair of G and component C of H's complement, the swap of
    the two copies outside C."""
    n_h = h.n
    gens = []
    for alpha in automorphisms(g):
        gens.append([alpha[a] * n_h + x for a in range(g.n) for x in range(n_h)])
    for beta in automorphisms(h):
        for c in range(g.n):
            gens.append([a * n_h + (beta[x] if a == c else x)
                         for a in range(g.n) for x in range(n_h)])
    closed = [{a} | {b for b in range(g.n) if (min(a, b), max(a, b)) in g.edges}
              for a in range(g.n)]
    comps = _complement_components(h)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if closed[a] != closed[b] or len(comps) < 2:
                continue
            for comp in comps:
                img = list(range(g.n * n_h))
                for x in range(n_h):
                    if x not in comp:
                        img[a * n_h + x], img[b * n_h + x] = b * n_h + x, a * n_h + x
                gens.append(img)
    return gens


def sympy_order(g, h) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(p) for p in wreath_and_swap_generators(g, h)]
    return int(PermutationGroup(gens).order())


# -- CLI ---------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    from lexidis import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def materialize(w: wl.Workload, tmp: str, argv: list[str]) -> list[str]:
    out = []
    for a in argv:
        if a.startswith("@"):
            path = os.path.join(tmp, a[1:])
            if not os.path.exists(path):
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(w.inputs[a[1:]])
            a = path
        out.append(a)
    return out


# -- builders ----------------------------------------------------------------


def build_oracle() -> dict:
    from lexidis import distinguishing_index, distinguishing_number, lex_product
    from tests import util

    graphs = wl.oracle_graphs()
    graphs.update(wl.random_pool())
    cat = wl.catalog()
    require(cat == util.catalog(), "catalog differs from tests/util.py")
    factor_of = {f"{gn}[{hn}]": (g, h) for gn, g in cat.items() for hn, h in cat.items()}
    dnum, dindex = {}, {}
    checked = {"dnum": 0, "dindex": 0}
    for name, g in graphs.items():
        auts = automorphisms(g) if name not in factor_of else None
        if name in factor_of:
            fg, fh = factor_of[name]
            require(lex_product(fg, fh) == g, name)
            order = sympy_order(fg, fh)
        else:
            order = len(auts)
        d, wit = distinguishing_number(g)
        dnum[name] = {"value": d, "witness": wit}
        if name.startswith("spider"):
            n = (g.n - 1) // 2
            require(d == math.isqrt(n - 1) + 1, name)
        if name in COMPLETE:
            require(d == g.n, name)
        if g.n <= BRUTE_MAX_N:
            auts = auts if auts is not None else [tuple(p) for p in util.brute_automorphisms(g)]
            require(len(auts) == order, name)
            require(not util.naive_color_preserver_exists(g, wit), name)
            ref = brute_dnum(g, auts)
            if ref is not None:
                require(ref == (d, wit), (name, ref, d, wit))
                checked["dnum"] += 1
        if g.m == 0:
            continue
        row = {"aut_order": order}
        if name in wl.CAPPED_DINDEX:
            row.update(value=k_edge_index(g.n), witness=None)
        elif order <= wl.CAP:
            d, lab = distinguishing_index(g, aut_cap=wl.CAP)
            row.update(value=d, witness=[[u, v, val] for (u, v), val in sorted(lab.items())])
            if name in COMPLETE:
                require(d == k_edge_index(g.n), name)
            if g.n <= BRUTE_MAX_N:
                require(not util.naive_edge_preserver_exists(g, lab), name)
                ref = brute_dindex(g, auts)
                if ref is not None:
                    require(ref == (d, [lab[e] for e in sorted(g.edges)]), name)
                    checked["dindex"] += 1
        dindex[name] = row
    print(f"oracle: {len(dnum)} graphs; brute-force confirmed {checked}", file=sys.stderr)
    return {"dnum": dnum, "dindex": dindex}


def build_groups() -> dict:
    from lexidis import enumerate_automorphisms, lex_product

    out = {}
    for gn, g, hn, h in wl.group_pairs():
        name = f"{gn}[{hn}]"
        order = sympy_order(g, h)
        if order <= ENUM_CROSSCHECK_MAX:
            require(len(enumerate_automorphisms(lex_product(g, h), cap=order)) == order, name)
        if gn in COMPLETE and hn in COMPLETE:
            require(order == math.factorial(g.n * h.n), name)
        out[name] = order
    capped = sum(v > wl.CAP for v in out.values())
    print(f"groups: {len(out)} pairs, {capped} above the cap {wl.CAP}", file=sys.stderr)
    return out


def _vertex_index(spec: str) -> int:
    kind, n = spec[0], int(spec[1:])
    return {"P": 2, "C": 3 if n <= 5 else 2, "K": n}[kind]


def _edge_index(spec: str) -> int:
    kind, n = spec[0], int(spec[1:])
    if kind == "P":
        return 1 if n == 2 else 2
    if kind == "C":
        return 3 if n <= 5 else 2
    return k_edge_index(n)


def label_budget(method: str, specs: tuple[str, ...], extra: list[str]) -> int:
    """The number of labels each construction is stated to use."""
    from lexidis import bundle_label_budget, min_extra_labels

    if method == "thm21":
        return int(specs[0][1:]) * _vertex_index(specs[1])
    if method == "thm22":
        d_g, d_h = _vertex_index(specs[0]), _vertex_index(specs[1])
        return d_h + min_extra_labels(d_g, d_h)
    if method == "thm31":
        return max(_edge_index(specs[0]), _edge_index(specs[1]))
    if method == "prop33":
        n, m = int(extra[1]), int(specs[0][1:])
        d = 1
        while d ** (m * m) < n:
            d += 1
        return max(_edge_index(specs[0]), d)
    if method == "thm35":
        return bundle_label_budget(_edge_index(specs[0]))
    return 2  # prop32, prop34, thm36, power


def build_certify() -> dict:
    from lexidis import distinguishing_index, distinguishing_number

    for spec in {s for _, specs, _ in wl.LABELS for s in specs}:
        g = wl.family(spec)
        require(distinguishing_number(g)[0] == _vertex_index(spec), spec)
        require(distinguishing_index(g)[0] == _edge_index(spec), spec)
    used = {}
    w0 = wl.certify(0, {"certify": {"labels_used": {}}})
    with tempfile.TemporaryDirectory() as tmp:
        for method, specs, extra in wl.LABELS:
            qid = wl.label_qid(method, specs, extra)
            budget = label_budget(method, specs, extra)
            argv = next(q.argv for q in w0.questions if q.qid == qid)
            rc, out = run_cli(materialize(w0, tmp, argv))
            got = json.loads(out.strip().splitlines()[-1])
            require(rc == 0 and got["certified"] and got["labels_used"] == budget, (qid, got))
            used[qid] = budget
        for q in w0.questions:
            if q.qid.startswith("verify:"):
                rc, out = run_cli(materialize(w0, tmp, q.argv))
                require(json.loads(out)["distinguishing"] == q.expect["distinguishing"], q.qid)
    print(f"certify: {len(used)} label budgets confirmed", file=sys.stderr)
    return {"labels_used": used}


def main() -> int:
    os.environ["LEXIDIS_CAP"] = str(wl.CAP)
    golden = {
        "cap": wl.CAP,
        "oracle": build_oracle(),
        "groups": build_groups(),
        "certify": build_certify(),
    }
    with open(wl.GOLDEN_PATH, "w", encoding="ascii") as fh:
        fh.write(dump(golden) + "\n")
    return 0


def dump(obj, depth: int = 0) -> str:
    """JSON with one line per leaf entry, so a changed answer is a one-line diff."""
    if isinstance(obj, dict) and depth < 3:
        pad = " " * (depth + 1)
        rows = [f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(rows) + "\n" + " " * depth + "}"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
