"""Command-line interface.

One verb per invocation: gen, product, aut, dnum, dindex, label, verify,
bounds.  Graph files may be edge-list text or graph6 (sniffed by first
byte); '-' means stdin/stdout.  A vertex labeling is a list and an edge
labeling a dict, as the library returns them; the type alone picks the
records written (``v`` or ``e``), the certifier and the kind ``verify``
reports.  ``dnum`` and ``dindex`` are one handler over the ``ORACLES``
table, and ``bounds`` prints the rows of one table of the paper's bounds
(``_bounds_rows``), each checked against the hypotheses its construction
checks (``constructions.HYPOTHESES``).  Exit codes:
0 success, 1 negative verification, 2 usage or parse error, 3 cap exceeded.
``aut`` always prints the exact order and strong generators; its ``--cap``
bounds only the ``--elements`` listing.  The oracles list no group, so no
cap bounds their work; their ``--cap`` bounds the labels tried.
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
from .autosearch import _elements, automorphism_group, find_preserving, find_preserving_edges
from .distinguishing import (
    _check_edge_values,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_distinguishing_edges,
    validate_vertex_labeling,
)
from .formats import FormatError, _plain_integers, dumps, loads
from .graph import Graph, complete, cycle, path, spider, star
from .lexprod import lex_power, lex_product
from .permgroup import DEFAULT_LISTING_CAP, CapExceededError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

FAMILIES = {"path": path, "cycle": cycle, "complete": complete, "star": star, "spider": spider}


class CliError(Exception):
    """A usage, input or output error: its message goes to stderr, exit 2."""


def _plain_int(text: str) -> int:
    """An integer option's value, held to the plain digits input files take."""
    if not _plain_integers(text):
        raise ValueError(text)
    return int(text)


# argparse names the type in its message: "invalid int value: '1_0'"
_plain_int.__name__ = "int"


def _read_text(spec: str) -> str:
    if spec == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(spec, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise CliError(f"{spec}: no such file") from None
        except OSError as exc:
            raise CliError(f"{spec}: cannot read: {exc.strerror or exc}") from None
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CliError(f"{spec}: line {line}: byte {data[exc.start]:#04x} is not ASCII") from None


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


def _write_graph(args, g: Graph) -> None:
    fmt = args.format
    if fmt == "auto":
        fmt = "graph6" if args.output and args.output.endswith(".g6") else "edgelist"
    _write_text(args.output, dumps(g, fmt))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _labeling_text(labels) -> str:
    if isinstance(labels, list):
        lines = [f"v {v} {val}" for v, val in enumerate(labels)]
    else:
        lines = [f"e {u} {v} {val}" for (u, v), val in sorted(labels.items())]
    return "\n".join(lines) + "\n"


def _read_labeling(spec: str):
    """A vertex labeling as a list, or an edge labeling as a dict."""
    text = _read_text(spec)
    plain = _plain_integers(text)
    vmap: dict[int, int] = {}
    emap: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if not (plain or _plain_integers(line)):
                raise ValueError
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
        return [vmap[v] for v in range(n)]
    if emap:
        return emap
    raise CliError(f"{spec}: no labeling records found")


# -- verbs -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    _write_graph(args, FAMILIES[args.family](args.n))
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
    _write_graph(args, result)
    return EXIT_OK


def _cmd_aut(args) -> int:
    g = _read_graph(args.graph)
    if args.cap < 1:
        raise CliError("cap must be positive")
    t0 = time.perf_counter()
    _, gens, order = automorphism_group(g)
    elems = _elements(g, gens, order, args.cap) if args.elements else None
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


# oracle verb -> (help, value symbol, what a refusal found none of, oracle).  Each oracle
# calls the library through the module global, where perfbench/tracing.py wraps it.
ORACLES = {
    "dnum": ("distinguishing number with witness", "D", "labeling",
             lambda g, cap: distinguishing_number(g, d_max=cap)),
    "dindex": ("distinguishing index with witness", "D'", "edge labeling",
               lambda g, cap: distinguishing_index(g, d_max=cap)),
}


def _cmd_oracle(args) -> int:
    _help, symbol, noun, oracle = ORACLES[args.verb]
    g = _read_graph(args.graph)
    if args.cap is not None and args.cap < 1:
        raise CliError("cap must be positive")
    t0 = time.perf_counter()
    got = oracle(g, args.cap)
    ms = (time.perf_counter() - t0) * 1000
    if got is None:
        _emit(args, {"command": args.verb, "n": g.n, "value": None, "cap": args.cap},
              f"no distinguishing {noun} with <= {args.cap} labels")
        return EXIT_CAP
    d, witness = got
    rows = witness if isinstance(witness, list) else [
        [u, v, val] for (u, v), val in sorted(witness.items())]
    human = "" if args.json else f"{symbol} = {d}\n{_labeling_text(witness)}".rstrip()
    _emit(args, {"command": args.verb, "n": g.n, "m": g.m, "value": d,
                 "witness": rows, "ms": round(ms, 3)}, human)
    return EXIT_OK


def _exact(verb: str, g: Graph):
    """The verb's oracle value and witness for g, with no label cap."""
    got = ORACLES[verb][3](g, None)
    assert got is not None
    return got


# label method -> (graph count, (argument, what to ask for) of the option it
# needs or None, builder).  The builder takes the option's value, if any,
# then the graphs, and returns (labeling, product to certify).  Each
# construction checks its bounds row's hypotheses before any oracle, and
# takes the oracle's witness for each factor labeling it needs.
LABEL_METHODS = {
    "thm21": (2, None, lambda g, h: (cons.block_product_labeling(g, h), lex_product(g, h))),
    "thm22": (2, None, lambda g, h: (cons.pattern_product_labeling(g, h), lex_product(g, h))),
    "thm31": (2, None, lambda g, h: (cons.inherited_edge_labeling(g, h), lex_product(g, h))),
    "prop32": (1, None, lambda h: (cons.k2_product_edge_labeling(h), lex_product(path(2), h))),
    "prop33": (1, ("n", "--n for the star size"), lambda n, h: (
        cons.star_product_edge_labeling(n, h), lex_product(star(n), h))),
    "prop34": (1, ("n", "--n for the path length"), lambda n, h: (
        cons.path_product_edge_labeling(n, h), lex_product(path(n), h))),
    "thm35": (1, None, lambda g: (cons.p2_product_edge_labeling(g), lex_product(g, path(2)))),
    "thm36": (2, None, lambda g, h: (cons.two_label_edge_labeling(g, h), lex_product(g, h))),
    "power": (1, ("power", "--power k"), lambda k, g: (
        cons.power_edge_labeling(g, k), lex_power(g, k))),
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
    labels, prod = build(*gs)
    _write_text(args.output, _labeling_text(labels))
    if args.certify:
        vertex = isinstance(labels, list)
        ok = (is_distinguishing if vertex else is_distinguishing_edges)(prod, labels)
        count = len(set(labels if vertex else labels.values()))
        _emit(args, {"command": "label", "method": method, "certified": ok, "labels_used": count},
              f"certified: {'DISTINGUISHING' if ok else 'NOT DISTINGUISHING'} ({count} labels)")
        if not ok:
            return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    labels = _read_labeling(args.labels)
    t0 = time.perf_counter()
    if isinstance(labels, list):
        kind = "vertex"
        validate_vertex_labeling(g, labels)
        cert, _ = find_preserving(g, labels)
    else:
        kind = "edge"
        _check_edge_values(labels)
        cert = find_preserving_edges(g, labels)
    ms = (time.perf_counter() - t0) * 1000
    payload = {"command": "verify", "kind": kind, "distinguishing": cert is None,
               "ms": round(ms, 3)}
    if cert is None:
        _emit(args, payload, "DISTINGUISHING")
        return EXIT_OK
    payload["certificate"] = cert.cycle_string()
    _emit(args, payload, f"NOT DISTINGUISHING: preserved by {payload['certificate']}")
    return EXIT_NEGATIVE


def _bounds_rows(g: Graph, h: Optional[Graph], k: Optional[int]) -> list[dict]:
    """The rows ``bounds`` prints for G, H and k, from one table of the paper's bounds.

    A row is (when it is printed, value), each called only when needed; its
    hypotheses are ``constructions.HYPOTHESES[name]``, which its construction
    checks.  Facts are computed afresh, and each oracle value once per factor.
    """
    D = functools.cache(lambda x: _exact("dnum", x)[0])
    Dp = functools.cache(lambda x: _exact("dindex", x)[0])
    M = functools.cache(lambda: cons.min_extra_labels(D(g), D(h)))
    k2 = complete(2)
    held = set()
    table = {
        "product-vertex-range": (
            lambda: h is not None,
            lambda: {"lower": D(h), "upper": D(g) * D(h), "note": "D(H) <= D(G[H]) <= D(G)*D(H)"}),
        "product-vertex-stepwise": (
            lambda: "product-vertex-range" in held,
            lambda: {"upper": D(h) + M(), "extra_tiers": M(), "note": "D(G[H]) <= D(H) + M"}),
        "product-edge-max": (
            lambda: "product-vertex-range" in held,
            lambda: {"upper": max(Dp(g), Dp(h)), "note": "D'(G[H]) <= max{D'(G), D'(H)}"}),
        "product-edge-two-labels": (
            lambda: "product-vertex-range" in held,
            lambda: {"upper": 2, "note": "2 <= |V(G)| <= |E(H)|+1"}),
        "single-edge-bundles": (
            lambda: h == k2,
            lambda: {"upper": cons.bundle_label_budget(Dp(g)),
                     "note": "bundle-pattern budget for G with a single-edge factor"}),
        "spider-single-edge-exact": (
            lambda: h == k2 and g.n >= 7 and g.n % 2 == 1 and g == spider(g.n // 2),
            lambda: {"value": cons.spider_k2_distinguishing_number(g.n // 2),
                     "note": f"exact for the subdivided star with {g.n // 2} branches"}),
        "power-vertex-range": (
            lambda: k is not None,
            lambda: dict(zip(("lower", "upper"), cons.power_distinguishing_bounds(D(g), k)),
                         note="powers of G")),
        "power-edge-two-labels": (
            lambda: "power-vertex-range" in held and k >= 2,
            lambda: {"upper": 2, "note": "all powers take two edge labels"}),
    }
    rows = []
    for name, (when, value) in table.items():
        if when():
            hypotheses = cons.HYPOTHESES[name]
            failed = next((reason for test, reason in hypotheses if not test(g, h)), None)
            if failed is None:
                held.add(name)
                rows.append({"bound": name, **value()})
            else:
                rows.append({"bound": name, "skipped": failed})
    return rows


def _cmd_bounds(args) -> int:
    if len(args.graphs) > 2:
        raise CliError(f"bounds takes one or two input graphs, got {len(args.graphs)}")
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
    p.add_argument("--n", type=_plain_int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", default="auto", choices=("auto", "edgelist", "graph6"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("product", help="lexicographic product or power")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--power", type=_plain_int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", default="auto", choices=("auto", "edgelist", "graph6"))
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("aut", help="automorphism group order and generators")
    p.add_argument("graph")
    p.add_argument("--cap", type=_plain_int, default=DEFAULT_LISTING_CAP,
                   help="bound on the --elements listing")
    p.add_argument("--elements", action="store_true")
    p.set_defaults(func=_cmd_aut)

    for verb, (text, *_) in ORACLES.items():
        p = sub.add_parser(verb, help=text)
        p.add_argument("graph")
        p.add_argument("--cap", type=_plain_int, default=None)
        p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("label", help="emit a constructive product labeling")
    p.add_argument("--method", required=True, choices=LABEL_METHODS)
    p.add_argument("graphs", nargs="+")
    p.add_argument("--n", type=_plain_int, default=None, help="star size / path length")
    p.add_argument("--power", type=_plain_int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("verify", help="check a labeling file against a graph")
    p.add_argument("graph")
    p.add_argument("labels")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="print every applicable bound")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--power", type=_plain_int, default=None)
    p.set_defaults(func=_cmd_bounds)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CliError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
