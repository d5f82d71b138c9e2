"""Golden digests of every public construction over a grid of factors.

Each case is one call.  Its line records the arguments and either the
labeling (a list, or the dict's items in sorted order) or the exception's
type and message.  The grid is every ordered pair the constructions take
from nine small connected factors, the inputs of the benchmark's `certify`
workload, and one single-fault variant per precondition: a labeling that
is valid but not distinguishing, one of the wrong length or domain, one
with a label 0, and a disconnected factor.  A failure names the
construction whose lines changed; `case_lines` lists them for a diff.
"""
from __future__ import annotations

import hashlib

import pytest

import lexidis as lx
from lexidis import Graph, complete, cycle, path, spider, star

FACTORS = {
    "K1": complete(1), "K2": complete(2), "P3": path(3), "P4": path(4), "C4": cycle(4),
    "C5": cycle(5), "K3": complete(3), "K4": complete(4), "S3": star(3),
}
# a disconnected factor, for the connectivity preconditions
SPLIT = ("K2+K1", Graph(3, [(0, 1)]))


def _family(spec: str) -> Graph:
    kind, n = spec[0], int(spec[1:])
    return {"P": path, "C": cycle, "K": complete, "S": star, "X": spider}[kind](n)


def _dnum(g: Graph) -> list[int]:
    return lx.distinguishing_number(g)[1]


def _dindex(g: Graph) -> dict:
    return lx.distinguishing_index(g)[1] if g.m else {}


def _vertex_faults(labels: list[int]) -> list[tuple[str, list[int]]]:
    """(tag, labeling) pairs, each with exactly one fault."""
    out = [("long", labels + [1]), ("zero", [0] + labels[1:])]
    if max(labels) > 1:
        out.append(("flat", [1] * len(labels)))
    return out


def _edge_faults(labels: dict) -> list[tuple[str, dict]]:
    if not labels:
        return [("extra", {(0, 1): 1})]
    first = min(labels)
    out = [("short", {e: v for e, v in labels.items() if e != first}),
           ("zero", {**labels, first: 0})]
    if max(labels.values()) > 1:
        out.append(("flat", {e: 1 for e in labels}))
    return out


def _show(result) -> str:
    if isinstance(result, dict):
        return repr(sorted(result.items()))
    return repr(result)


def _line(tag: str, fn, *args) -> str:
    try:
        got = _show(fn(*args))
    except Exception as exc:  # the type and message are the pinned result
        got = f"!{type(exc).__name__}: {exc}"
    return f"{tag} -> {got}"


def _add(lines: list[str], tag: str, fn, args: tuple, faults=()) -> None:
    """The call on args; if it succeeds, the call with each single fault,
    given as (argument position, side name, [(fault tag, bad value)])."""
    lines.append(_line(tag, fn, *args))
    if " -> !" in lines[-1]:
        return
    for pos, side, variants in faults:
        for ftag, bad in variants:
            changed = list(args)
            changed[pos] = bad
            lines.append(_line(f"{tag} {side}:{ftag}", fn, *changed))


def _pairs(*specs: tuple[str, str]) -> list[tuple[str, Graph, str, Graph]]:
    return [(gn, _family(gn), hn, _family(hn)) for gn, hn in specs]


def case_lines() -> dict[str, list[str]]:
    """One line per pinned call, grouped by construction."""
    grid = list(FACTORS.items())
    pairs = [(gn, g, hn, h) for gn, g in grid for hn, h in grid]
    singles = grid + [SPLIT]
    out: dict[str, list[str]] = {}

    # vertex labelings: the factors' witnesses, then one fault on either side
    vertex_pairs = pairs + _pairs(("P10", "C5"), ("P12", "P5"), ("C8", "C4"), ("P25", "C4"),
                                  ("P40", "C5"), ("C20", "P5"))
    for name in ("block_product_labeling", "pattern_product_labeling"):
        fn = getattr(lx, name)
        lines = out[name] = []
        for gn, g, hn, h in vertex_pairs:
            lg, lh = _dnum(g), _dnum(h)
            _add(lines, f"{gn}[{hn}]", fn, (g, h, lg, lh),
                 ((2, "lg", _vertex_faults(lg)), (3, "lh", _vertex_faults(lh))))
    # the benchmark's own vertex inputs: spider and pinned path labelings
    for n in (30, 100):
        _add(out["pattern_product_labeling"], f"X{n}[K2] spider", lx.pattern_product_labeling,
             (spider(n), complete(2), lx.spider_distinguishing_labeling(n), [1, 2]))
    for name, n, hn in (("block_product_labeling", 10, "C5"), ("block_product_labeling", 40, "C5"),
                        ("pattern_product_labeling", 25, "C4"),
                        ("pattern_product_labeling", 50, "C4")):
        h = _family(hn)
        _add(out[name], f"P{n}[{hn}] pinned", getattr(lx, name),
             (path(n), h, [1] * (n - 1) + [2], _dnum(h)))

    lines = out["inherited_edge_labeling"] = []
    for gn, g, hn, h in pairs + _pairs(("P10", "C5"), ("P6", "P4"), ("C8", "P4"), ("P17", "P3")):
        lg, lh = _dindex(g), _dindex(h)
        _add(lines, f"{gn}[{hn}]", lx.inherited_edge_labeling, (g, h, lg, lh),
             ((2, "lg", _edge_faults(lg)), (3, "lh", _edge_faults(lh))))

    out["k2_product_edge_labeling"] = [
        _line(hn, lx.k2_product_edge_labeling, h)
        for hn, h in singles + [(s, _family(s)) for s in ("C6", "P12", "C9")]]

    lines = out["star_product_edge_labeling"] = []
    star_cases = [(n, hn, h) for n in (1, 2, 3, 4, 5) for hn, h in singles]
    star_cases += [(16, "P3", path(3)), (6, "C4", cycle(4)), (10, "P4", path(4)),
                   (16, "K2", complete(2))]
    for n, hn, h in star_cases:
        lh = {(0, 1): 1} if hn == SPLIT[0] else _dindex(h)
        _add(lines, f"S{n}[{hn}]", lx.star_product_edge_labeling, (n, h, lh),
             ((2, "lh", _edge_faults(lh)),))

    path_cases = [(n, hn, h) for n in range(1, 9) for hn, h in singles]
    path_cases += [(10, "C5", cycle(5)), (16, "P3", path(3)), (12, "C4", cycle(4)),
                   (17, "P3", path(3))]
    out["path_product_edge_labeling"] = [
        _line(f"P{n}[{hn}]", lx.path_product_edge_labeling, n, h) for n, hn, h in path_cases]

    lines = out["p2_product_edge_labeling"] = []
    for gn, g in grid + [(s, _family(s)) for s in ("P25", "C12", "P16", "S5")]:
        lg = _dindex(g)
        _add(lines, f"{gn}[K2]", lx.p2_product_edge_labeling, (g, lg),
             ((1, "lg", _edge_faults(lg)),))

    two = pairs + _pairs(("P3", "P4"), ("C5", "P6"), ("P4", "C5"))
    two += [(SPLIT[0], SPLIT[1], "P4", path(4)), ("P3", path(3), SPLIT[0], SPLIT[1])]
    out["two_label_edge_labeling"] = [
        _line(f"{gn}[{hn}]", lx.two_label_edge_labeling, g, h) for gn, g, hn, h in two]

    power_cases = [(gn, g, k) for gn, g in grid for k in (0, 1, 2, 3) if g.n ** k <= 125]
    power_cases += [("P3", path(3), 3), ("P4", path(4), 2), ("C5", cycle(5), 2)]
    out["power_edge_labeling"] = [
        _line(f"{gn}^{k}", lx.power_edge_labeling, g, k) for gn, g, k in power_cases]
    return out


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# construction -> (number of cases, sha256 of their lines)
PINS = {
    "block_product_labeling": (593, "226da2466e899bfeaf9b2aa4718fde2b2d68c2f06e8664bb9b9b952fb35e4f2a"),
    "inherited_edge_labeling": (343, "01901ae4d34e495401302a59458d11745d7ebd54457113d145f7c76dd80aef6a"),
    "k2_product_edge_labeling": (13, "8a217afd2dd1d4ac56e23db4ed64a7dcf6a972a0a8a5a99aff41a4aceaae23c9"),
    "p2_product_edge_labeling": (40, "2648c73f072cf00a37d3bc8e522bf25d7f56ebba639ffdc6087c7756128eb82e"),
    "path_product_edge_labeling": (84, "f0b2c60b28060284956da0f73fab40f1de490a985b0a898c18bf8a77adf364be"),
    "pattern_product_labeling": (487, "2b21a15d3b0a0b7718b3d0d31761f5593760881fc1ca8c75b5cd8ca533317978"),
    "power_edge_labeling": (39, "efc82c978c83734cd6ddf4120865bc085e51229f867b8c4f1de00f3ab4214384"),
    "star_product_edge_labeling": (157, "b67269727963acd8d3f042881e04b6a92b8a5be39a9b49cef78cea3863cdcc8f"),
    "two_label_edge_labeling": (86, "8ff74f5f4ba4adbc83c30d436b7a90bcafad51d388c02c220f2bccf496a453d8"),
}


@pytest.fixture(scope="module")
def lines():
    return case_lines()


def test_pins_cover_every_construction(lines):
    assert set(lines) == set(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_construction_is_pinned(lines, name):
    count, want = PINS[name]
    assert (len(lines[name]), digest(lines[name])) == (count, want)
