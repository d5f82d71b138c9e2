"""Command-line interface.

One verb per invocation: gen, product, aut, dnum, dindex, label, verify,
bounds.  Graph files may be edge-list text or graph6 (sniffed by first
byte); '-' means stdin/stdout.  Exit codes: 0 success, 1 negative
verification, 2 usage or parse error, 3 cap exceeded.  The LEXIDIS_CAP
environment variable overrides the default cap on ``aut`` listings; the
``dnum`` and ``dindex`` oracles list no group, so it does not bound them.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import constructions as cons
from .autosearch import (
    ColoredGraph,
    automorphism_group,
    enumerate_automorphisms,
    find_preserving,
    find_preserving_edges,
)
from .distinguishing import (
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_distinguishing_edges,
    validate_edge_labeling,
    validate_vertex_labeling,
)
from .formats import FormatError, dumps, loads
from .graph import Graph, complete, cycle, is_connected, path, spider, star
from .lexprod import lex_power, lex_product
from .permgroup import CapExceededError, sabidussi_equal

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

FAMILIES = {"path": path, "cycle": cycle, "complete": complete, "star": star, "spider": spider}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _default_cap() -> int:
    raw = os.environ.get("LEXIDIS_CAP")
    if raw is None:
        return 1_000_000
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"LEXIDIS_CAP={raw!r} is not an integer") from None
    if cap < 1:
        raise CliError(f"LEXIDIS_CAP={raw!r} must be positive")
    return cap


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        with open(spec, "r", encoding="ascii") as fh:
            return fh.read()
    except FileNotFoundError:
        raise CliError(f"{spec}: no such file") from None
    except OSError as exc:
        raise CliError(f"{spec}: cannot read: {exc.strerror or exc}") from None


def _read_graph(spec: str) -> Graph:
    text = _read_text(spec)
    try:
        return loads(text)
    except FormatError as exc:
        raise CliError(f"{spec}: {exc}") from None


def _write_text(spec: Optional[str], text: str) -> None:
    if spec is None or spec == "-":
        sys.stdout.write(text)
        return
    try:
        with open(spec, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{spec}: cannot write: {exc.strerror or exc}") from None


def _graph_format(out: Optional[str], requested: str) -> str:
    if requested != "auto":
        return requested
    if out and out.endswith(".g6"):
        return "graph6"
    return "edgelist"


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _labeling_text(vertex_labels=None, edge_labels=None) -> str:
    lines = []
    if vertex_labels is not None:
        lines.extend(f"v {v} {val}" for v, val in enumerate(vertex_labels))
    if edge_labels is not None:
        lines.extend(f"e {u} {v} {val}" for (u, v), val in sorted(edge_labels.items()))
    return "\n".join(lines) + "\n"


def _read_labeling(spec: str):
    """Returns ('vertex', list) or ('edge', dict)."""
    text = _read_text(spec)
    vmap: dict[int, int] = {}
    emap: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 3:
                table, key, val = vmap, int(parts[1]), int(parts[2])
            elif parts[0] == "e" and len(parts) == 4:
                u, v, val = int(parts[1]), int(parts[2]), int(parts[3])
                table, key = emap, (u, v) if u < v else (v, u)
            else:
                raise ValueError
        except ValueError:
            raise CliError(f"{spec}: line {lineno}: expected 'v <i> <label>' or 'e <u> <v> <label>'") from None
        if key in table:
            raise CliError(f"{spec}: line {lineno}: duplicate record for {' '.join(parts[:-1])}")
        table[key] = val
    if vmap and emap:
        raise CliError(f"{spec}: mixed vertex and edge records")
    if vmap:
        n = max(vmap) + 1
        if set(vmap) != set(range(n)):
            raise CliError(f"{spec}: vertex labels must cover 0..{n - 1}")
        return "vertex", [vmap[v] for v in range(n)]
    if emap:
        return "edge", emap
    raise CliError(f"{spec}: no labeling records found")


# -- verbs -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    fam = FAMILIES[args.family]
    g = fam(args.n)
    fmt = _graph_format(args.output, args.format)
    _write_text(args.output, dumps(g, fmt))
    return EXIT_OK


def _cmd_product(args) -> int:
    gs = [_read_graph(s) for s in args.graphs]
    if args.power is not None:
        if len(gs) != 1:
            raise CliError("--power takes exactly one input graph")
        result = lex_power(gs[0], args.power)
    else:
        if len(gs) != 2:
            raise CliError("product takes two input graphs (or one with --power)")
        result = lex_product(gs[0], gs[1])
    fmt = _graph_format(args.output, args.format)
    _write_text(args.output, dumps(result, fmt))
    return EXIT_OK


def _cmd_aut(args) -> int:
    g = _read_graph(args.graph)
    cap = _default_cap() if args.cap is None else args.cap
    if cap < 1:
        raise CliError("cap must be positive")
    t0 = time.perf_counter()
    _base, gens, order = automorphism_group(g)
    if order > cap:
        _emit(args, {"command": "aut", "n": g.n, "order": None, "at_least": cap + 1},
              f"order >= {cap + 1} (cap exceeded)")
        return EXIT_CAP
    elems = enumerate_automorphisms(g, cap=cap) if args.elements else None
    ms = (time.perf_counter() - t0) * 1000
    payload = {
        "command": "aut", "n": g.n, "m": g.m, "order": order,
        "generators": [p.cycle_string() for p in gens], "ms": round(ms, 3),
    }
    human = f"order {order}, {len(gens)} generators"
    if elems is not None:
        payload["elements"] = [p.cycle_string() for p in elems]
        human += "\n" + "\n".join(payload["elements"])
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_dnum(args) -> int:
    g = _read_graph(args.graph)
    t0 = time.perf_counter()
    got = distinguishing_number(g, d_max=args.cap)
    ms = (time.perf_counter() - t0) * 1000
    if got is None:
        _emit(args, {"command": "dnum", "n": g.n, "value": None, "cap": args.cap},
              f"no distinguishing labeling with <= {args.cap} labels")
        return EXIT_CAP
    d, witness = got
    _emit(args, {"command": "dnum", "n": g.n, "m": g.m, "value": d,
                 "witness": witness, "ms": round(ms, 3)},
          f"D = {d}\n{_labeling_text(vertex_labels=witness)}".rstrip())
    return EXIT_OK


def _cmd_dindex(args) -> int:
    g = _read_graph(args.graph)
    t0 = time.perf_counter()
    got = distinguishing_index(g, d_max=args.cap)
    ms = (time.perf_counter() - t0) * 1000
    if got is None:
        _emit(args, {"command": "dindex", "n": g.n, "value": None, "cap": args.cap},
              f"no distinguishing edge labeling with <= {args.cap} labels")
        return EXIT_CAP
    d, witness = got
    witness_list = [[u, v, val] for (u, v), val in sorted(witness.items())]
    _emit(args, {"command": "dindex", "n": g.n, "m": g.m, "value": d,
                 "witness": witness_list, "ms": round(ms, 3)},
          f"D' = {d}\n{_labeling_text(edge_labels=witness)}".rstrip())
    return EXIT_OK


def _require_dnum(g: Graph) -> tuple[int, list[int]]:
    got = distinguishing_number(g)
    assert got is not None
    return got


def _require_dindex(g: Graph) -> tuple[int, dict]:
    got = distinguishing_index(g)
    assert got is not None
    return got


# label method -> (graph count, (argument, what to ask for) of the option it
# needs or None, builder).  The builder takes the option's value, if any, then
# the graphs, and returns (vertex labels, edge labels, product to certify).
LABEL_METHODS = {
    "thm21": (2, None, lambda g, h: (
        cons.block_product_labeling(g, h, _require_dnum(g)[1], _require_dnum(h)[1]),
        None, lex_product(g, h))),
    "thm22": (2, None, lambda g, h: (
        cons.pattern_product_labeling(g, h, _require_dnum(g)[1], _require_dnum(h)[1]),
        None, lex_product(g, h))),
    "thm31": (2, None, lambda g, h: (
        None, cons.inherited_edge_labeling(g, h, _require_dindex(g)[1], _require_dindex(h)[1]),
        lex_product(g, h))),
    "prop32": (1, None, lambda h: (
        None, cons.k2_product_edge_labeling(h), lex_product(path(2), h))),
    "prop33": (1, ("n", "--n for the star size"), lambda n, h: (
        None, cons.star_product_edge_labeling(n, h, _require_dindex(h)[1]),
        lex_product(star(n), h))),
    "prop34": (1, ("n", "--n for the path length"), lambda n, h: (
        None, cons.path_product_edge_labeling(n, h), lex_product(path(n), h))),
    "thm35": (1, None, lambda g: (
        None, cons.p2_product_edge_labeling(g, _require_dindex(g)[1]), lex_product(g, path(2)))),
    "thm36": (2, None, lambda g, h: (
        None, cons.two_label_edge_labeling(g, h), lex_product(g, h))),
    "power": (1, ("power", "--power k"), lambda k, g: (
        None, cons.power_edge_labeling(g, k), lex_power(g, k))),
}


def _cmd_label(args) -> int:
    method = args.method
    count, option, build = LABEL_METHODS[method]
    gs = [_read_graph(s) for s in args.graphs]
    if len(gs) != count:
        raise CliError(f"method {method} takes {count} graph input(s), got {len(gs)}")
    if option is not None:
        name, wanted = option
        value = getattr(args, name)
        if value is None:
            raise CliError(f"method {method} needs {wanted}")
        gs.insert(0, value)
    vertex_labels, edge_labels, prod = build(*gs)

    text = _labeling_text(vertex_labels, edge_labels)
    _write_text(args.output, text)
    if args.certify:
        if vertex_labels is not None:
            ok = is_distinguishing(prod, vertex_labels)
        else:
            ok = is_distinguishing_edges(prod, edge_labels)
        count = len(set(vertex_labels)) if vertex_labels is not None else len(set(edge_labels.values()))
        _emit(args, {"command": "label", "method": method, "certified": ok, "labels_used": count},
              f"certified: {'DISTINGUISHING' if ok else 'NOT DISTINGUISHING'} ({count} labels)")
        if not ok:
            return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    kind, labels = _read_labeling(args.labels)
    t0 = time.perf_counter()
    if kind == "vertex":
        validate_vertex_labeling(g, labels)
        cert, _ = find_preserving(ColoredGraph(g, tuple(labels)))
    else:
        validate_edge_labeling(g, labels)
        cert = find_preserving_edges(g, labels)
    ms = (time.perf_counter() - t0) * 1000
    if cert is None:
        _emit(args, {"command": "verify", "kind": kind, "distinguishing": True, "ms": round(ms, 3)},
              "DISTINGUISHING")
        return EXIT_OK
    _emit(args, {"command": "verify", "kind": kind, "distinguishing": False,
                 "certificate": cert.cycle_string(), "ms": round(ms, 3)},
          f"NOT DISTINGUISHING: preserved by {cert.cycle_string()}")
    return EXIT_NEGATIVE


def _bounds_rows(g: Graph, h: Optional[Graph], k: Optional[int]) -> list[dict]:
    rows: list[dict] = []

    def row(name: str, **kw) -> None:
        rows.append({"bound": name, **kw})

    if h is not None:
        conn = is_connected(g) and is_connected(h)
        sab = sabidussi_equal(g, h)
        if conn:
            dg = _require_dnum(g)[0]
            dh = _require_dnum(h)[0]
            row("product-vertex-range", lower=dh, upper=dg * dh,
                note="D(H) <= D(G[H]) <= D(G)*D(H)")
            if sab:
                mval = cons.min_extra_labels(dg, dh)
                row("product-vertex-stepwise", upper=dh + mval, extra_tiers=mval,
                    note="D(G[H]) <= D(H) + M")
            else:
                row("product-vertex-stepwise", skipped="needs the wreath action")
            if h.n == 2 and h.m == 1:
                row("product-edge-max", skipped="second factor is a single edge")
            elif g.m == 0 or h.m == 0:
                row("product-edge-max", skipped="edgeless factor has no edge index")
            elif sab:
                dpg = _require_dindex(g)[0]
                dph = _require_dindex(h)[0]
                row("product-edge-max", upper=max(dpg, dph),
                    note="D'(G[H]) <= max{D'(G), D'(H)}")
            else:
                row("product-edge-max", skipped="needs the wreath action")
            if 2 <= g.n <= h.m + 1 and sab:
                row("product-edge-two-labels", upper=2, note="2 <= |V(G)| <= |E(H)|+1")
            else:
                row("product-edge-two-labels",
                    skipped="needs 2 <= |V(G)| <= |E(H)|+1 and the wreath action")
        else:
            row("product-vertex-range", skipped="factors must be connected")
        if h.n == 2 and h.m == 1:
            if sabidussi_equal(g, h) and g.m > 0:
                dpg = _require_dindex(g)[0]
                row("single-edge-bundles", upper=cons.bundle_label_budget(dpg),
                    note="bundle-pattern budget for G with a single-edge factor")
            else:
                row("single-edge-bundles", skipped="needs no closed twins in G")
        # spider with a single-edge factor has a closed form
        if h.n == 2 and h.m == 1 and g.n >= 7 and g.n % 2 == 1:
            nb = (g.n - 1) // 2
            if nb >= 3 and g == spider(nb):
                row("spider-single-edge-exact", value=cons.spider_k2_distinguishing_number(nb),
                    note=f"exact for the subdivided star with {nb} branches")
    if k is not None:
        if sabidussi_equal(g, g) and is_connected(g):
            lo, up = cons.power_distinguishing_bounds(g, k)
            row("power-vertex-range", lower=lo, upper=up, note="powers of G")
            if k >= 2:
                row("power-edge-two-labels", upper=2, note="all powers take two edge labels")
        else:
            row("power-vertex-range", skipped="needs the wreath action on the square")
    if not rows:
        row("none", skipped="provide a second graph and/or --power")
    return rows


def _cmd_bounds(args) -> int:
    g = _read_graph(args.graphs[0])
    h = _read_graph(args.graphs[1]) if len(args.graphs) > 1 else None
    if h is None and args.power is None:
        raise CliError("bounds needs a second graph and/or --power k")
    if args.power is not None and args.power < 1:
        raise CliError("k must be positive")
    rows = _bounds_rows(g, h, args.power)
    for r in rows:
        if args.json:
            print(json.dumps({"command": "bounds", **r}, sort_keys=True))
        else:
            name = r.pop("bound")
            if "skipped" in r:
                print(f"{name}: n/a ({r['skipped']})")
            else:
                bits = ", ".join(f"{k}={v}" for k, v in r.items() if k != "note")
                note = f"  [{r['note']}]" if "note" in r else ""
                print(f"{name}: {bits}{note}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(prog="lexidis", description=__doc__)
    ap.add_argument("--json", action="store_true", help="one JSON object per output line")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a family graph")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", default="auto", choices=("auto", "edgelist", "graph6"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("product", help="lexicographic product or power")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--power", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", default="auto", choices=("auto", "edgelist", "graph6"))
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("aut", help="automorphism group order and generators")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--elements", action="store_true")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("dnum", help="distinguishing number with witness")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_dnum)

    p = sub.add_parser("dindex", help="distinguishing index with witness")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_dindex)

    p = sub.add_parser("label", help="emit a constructive product labeling")
    p.add_argument("--method", required=True, choices=LABEL_METHODS)
    p.add_argument("graphs", nargs="+")
    p.add_argument("--n", type=int, default=None, help="star size / path length")
    p.add_argument("--power", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("verify", help="check a labeling file against a graph")
    p.add_argument("graph")
    p.add_argument("labels")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="print every applicable bound")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--power", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
