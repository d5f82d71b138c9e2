"""Lexicographic product G[H] and its right-nested powers.

Product vertices are indexed by the frozen bijection (g, h) -> g*|V(H)| + h;
every labeling and certificate in this package refers to that indexing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

# Guard against accidentally materializing astronomically large products.
MAX_PRODUCT_VERTICES = 200_000


class ProductSizeError(ValueError):
    """Product vertex count exceeds MAX_PRODUCT_VERTICES."""


@dataclass(frozen=True)
class ProductIndexer:
    """Bijection between pairs (g, h) and vertex indices of G[H]."""

    n_g: int
    n_h: int

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise IndexError(f"pair ({g}, {h}) out of range")
        return g * self.n_h + h

    def decode(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.n_g * self.n_h:
            raise IndexError(f"index {i} out of range")
        return divmod(i, self.n_h)

    def __len__(self) -> int:
        return self.n_g * self.n_h


def lex_product(g: Graph, h: Graph) -> Graph:
    """G[H]: (a,x) ~ (b,y) iff ab is an edge of G, or a == b and xy an edge of H."""
    if g.n * h.n > MAX_PRODUCT_VERTICES:
        raise ProductSizeError(
            f"product would have {g.n * h.n} vertices (limit {MAX_PRODUCT_VERTICES})"
        )
    # the row of (a, x) is H's row of x shifted into block a, plus the whole
    # block of every neighbour of a in G
    block = (1 << h.n) - 1
    rows: list[int] = []
    for a in range(g.n):
        cross = sum(block << (b * h.n) for b in g.neighbors(a))
        shift = a * h.n
        rows.extend(cross | (row << shift) for row in h.adjacency_bits)
    return Graph._from_rows(tuple(rows))


def lex_power(g: Graph, k: int) -> Graph:
    """G^k = G[G^{k-1}], right-nested; k >= 1."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    result = g
    for _ in range(k - 1):
        result = lex_product(g, result)
    return result


def product_degree(g: Graph, h: Graph, gv: int, hv: int) -> int:
    """Degree of the product vertex (gv, hv): deg_H(hv) + |V(H)| * deg_G(gv)."""
    return h.degree(hv) + h.n * g.degree(gv)
