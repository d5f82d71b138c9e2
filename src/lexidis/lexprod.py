"""Lexicographic product G[H] and its right-nested powers.

Product vertices are indexed by the frozen bijection (a, x) -> a*|V(H)| + x:
copy a of H is the block of |V(H)| consecutive indices from a*|V(H)|.  Every
labeling and certificate in this package refers to that indexing, and each
module that builds product positions writes the formula inline.
"""
from __future__ import annotations

from .graph import Graph, _members

# Guard against accidentally materializing astronomically large products.
MAX_PRODUCT_VERTICES = 200_000


class ProductSizeError(ValueError):
    """Product vertex count exceeds MAX_PRODUCT_VERTICES."""


def _check_size(n: int) -> None:
    if n > MAX_PRODUCT_VERTICES:
        raise ProductSizeError(f"product would have {n} vertices (limit {MAX_PRODUCT_VERTICES})")


def lex_product(g: Graph, h: Graph) -> Graph:
    """G[H]: (a,x) ~ (b,y) iff ab is an edge of G, or a == b and xy an edge of H."""
    _check_size(g.n * h.n)
    # the row of (a, x) is H's row of x shifted into block a, plus the whole
    # block of every neighbour of a in G, read off the set bits of a's row
    block = (1 << h.n) - 1
    rows: list[int] = []
    for a, row_a in enumerate(g.adjacency_bits):
        cross = 0
        for b in _members(row_a):
            cross |= block << (b * h.n)
        shift = a * h.n
        rows.extend(cross | (row << shift) for row in h.adjacency_bits)
    return Graph._from_rows(tuple(rows))


def lex_power(g: Graph, k: int) -> Graph:
    """G^k = G[G^{k-1}], right-nested; k >= 1.

    An oversized power is refused before any product is built, naming the
    first power past the limit; G^k is G itself when |V(G)| <= 1.
    """
    if k < 1:
        raise ValueError("power needs k >= 1")
    if g.n <= 1:
        return g
    size = g.n
    for _ in range(k - 1):
        size *= g.n
        _check_size(size)
    result = g
    for _ in range(k - 1):
        result = lex_product(g, result)
    return result


def product_degree(g: Graph, h: Graph, gv: int, hv: int) -> int:
    """Degree of the product vertex (gv, hv): deg_H(hv) + |V(H)| * deg_G(gv)."""
    return h.degree(hv) + h.n * g.degree(gv)
