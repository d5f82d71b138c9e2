"""Core graph value type, standard families, and neighborhood relations.

Graphs are simple, undirected, and canonically indexed on 0..n-1.  Adjacency
is stored once, as fixed-width bit rows: bit v of row u is set iff uv is an
edge.  The rows feed the refinement search (the hot path); edge sets,
neighbourhoods and degrees are read off them on each call.  The twin
relations come back as plain tuples of sorted vertex classes, ordered by
least vertex.
"""
from __future__ import annotations

from typing import Iterable

Edge = tuple[int, int]
Classes = tuple[tuple[int, ...], ...]


def _members(row: int) -> list[int]:
    """Positions of the set bits of row, ascending."""
    out = []
    while row:
        low = row & -row
        row ^= low
        out.append(low.bit_length() - 1)
    return out


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are unordered pairs {u, v} with u != v, reported as sorted tuples.
    Instances are safe to share across concurrent tasks; nothing mutates
    after construction.
    """

    __slots__ = ("n", "m", "_rows", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        rows = [0] * n
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._init_rows(tuple(rows))

    @classmethod
    def _from_rows(cls, rows: tuple[int, ...]) -> Graph:
        """Graph on len(rows) vertices with the given bit rows, unchecked:
        the rows must be symmetric with a zero diagonal."""
        g = object.__new__(cls)
        g._init_rows(rows)
        return g

    def _init_rows(self, rows: tuple[int, ...]) -> None:
        self.n = len(rows)
        self.m = sum(row.bit_count() for row in rows) // 2
        self._rows = rows
        self._hash = hash(rows)

    # -- basic queries ----------------------------------------------------

    @property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Bit rows: bit v of row u is set iff uv is an edge."""
        return self._rows

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, as sorted pairs."""
        return frozenset(self.edge_list())

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v)."""
        self._check_vertex(v)
        return frozenset(_members(self._rows[v]))

    def closed_neighbors(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v] = N(v) | {v}."""
        self._check_vertex(v)
        return frozenset(_members(self._rows[v] | (1 << v)))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._rows[u] >> v & 1)

    def edge_list(self) -> list[Edge]:
        """Edges as sorted pairs in ascending order; the canonical edge order."""
        # row >> u << u keeps the neighbours above u, so each edge comes once
        return [(u, v) for u, row in enumerate(self._rows) for v in _members(row >> u << u)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _partition_by(keys: Iterable[int]) -> Classes:
    # vertices are added in ascending order, so each class is sorted and the
    # classes come out ordered by their least vertex
    groups: dict[int, list[int]] = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    return tuple(tuple(vs) for vs in groups.values())


def open_twin_partition(g: Graph) -> Classes:
    """Classes of equal open neighborhoods N(v); g.n of them iff no open twins."""
    return _partition_by(g.adjacency_bits)


def closed_twin_partition(g: Graph) -> Classes:
    """Classes of equal closed neighborhoods N[v]; g.n of them iff no closed twins."""
    return _partition_by((row | (1 << v) for v, row in enumerate(g.adjacency_bits)))


def complement(g: Graph) -> Graph:
    """Same vertices; uv is an edge iff u != v and uv is not an edge of g."""
    full = (1 << g.n) - 1
    rows = g.adjacency_bits
    return Graph._from_rows(tuple(full ^ row ^ (1 << v) for v, row in enumerate(rows)))


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    bits = g.adjacency_bits
    unseen = (1 << g.n) - 1
    out: list[list[int]] = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:
                lsb = frontier & -frontier
                frontier ^= lsb
                nxt |= bits[lsb.bit_length() - 1]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(_members(comp))
        unseen &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    """True iff there is at most one connected component (true for n <= 1)."""
    return len(components(g)) <= 1


# -- standard families ----------------------------------------------------
#
# Vertex indexings are frozen so labelings and golden values stay stable.


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1); n >= 1."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; n >= 3."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph K_n; n >= 1."""
    if n < 1:
        raise ValueError("complete needs n >= 1")
    full = (1 << n) - 1
    return Graph._from_rows(tuple(full ^ (1 << v) for v in range(n)))


def star(n: int) -> Graph:
    """Star K_{1,n}: center 0, leaves 1..n; n >= 1."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def spider(n: int) -> Graph:
    """Star K_{1,n} with every edge subdivided once; n >= 3.

    2n+1 vertices: center 0; branch j (1-indexed) has subdivision vertex
    2j-1 (adjacent to the center) and pendant vertex 2j.
    """
    if n < 3:
        raise ValueError("spider needs n >= 3")
    edges = []
    for j in range(1, n + 1):
        edges.append((0, 2 * j - 1))
        edges.append((2 * j - 1, 2 * j))
    return Graph(2 * n + 1, edges)
