"""Graph serialization: edge-list text and graph6.

Edge-list format::

    p <n> <m>
    e <u> <v>

with 0-based indices, u < v, and '#'-prefixed comment lines ignored.
Integer fields are ASCII digits with an optional leading '-'.  Parse
errors report 1-based line numbers.

graph6 follows the standard encoding bit-exactly, with the '~' size field
for 63..258047 vertices.  Both directions go through ``binascii``, data
byte chr(63 + x) standing for the base64 digit x.  The reader checks every
data byte in one ``bytes.translate`` and rejects nonzero padding bits.
"""
from __future__ import annotations

import binascii
from itertools import compress

from .graph import Graph

GRAPH6_HEADER = ">>graph6<<"
# the graph6 data bytes chr(63 + x) and the base64 digits of x, both ways
_G6_DATA = bytes(range(63, 127))
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_B64 = bytes.maketrans(_G6_DATA, _B64_DIGITS)
_B64_G6 = bytes.maketrans(_B64_DIGITS, _G6_DATA)
# the digits of bin() to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class FormatError(ValueError):
    """Malformed graph input; the message names the offending line."""


def _plain_integers(text: str) -> bool:
    """Whether every field of text that ``int`` reads is ASCII digits with
    an optional leading '-'.

    ``int`` also takes '_' between digits, a leading '+' and non-ASCII
    digits.  The ASCII strings it takes that hold neither '_' nor '+' are
    exactly the plain ones, so a text passes when it is ASCII and holds
    neither character.  Readers test the whole text once, and one record
    line only when the text fails, since a comment may hold them.
    """
    return text.isascii() and "_" not in text and "+" not in text


def read_edge_list(text: str) -> Graph:
    plain = _plain_integers(text)
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate 'p' header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                if not (plain or _plain_integers(line)):
                    raise ValueError
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header fields") from None
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative header fields")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before 'p' header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                if not (plain or _plain_integers(line)):
                    raise ValueError
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoints") from None
            if not (0 <= u < v < n):
                raise FormatError(f"line {lineno}: need 0 <= u < v < {n}")
            if (u, v) in seen:
                raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add((u, v))
            edges.append((u, v))
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("line 1: missing 'p <n> <m>' header")
    if len(edges) != m:
        raise FormatError(f"line {lineno}: header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    names = [str(v) for v in range(g.n)]
    lines = [f"p {g.n} {g.m}"]
    # one block per vertex u, its prefix built once; the reversed bin() of
    # the row above u flags the names from u + 1 to u's top neighbour
    for u, row in enumerate(g.adjacency_bits):
        above = row >> (u + 1)
        if above:
            flags = bin(above)[:1:-1].encode().translate(_BIT_BYTES)
            prefix = f"e {u} "
            lines.append(prefix + ("\n" + prefix).join(
                compress(names[u + 1:u + 1 + len(flags)], flags)))
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    raise FormatError(f"graph6 writer supports up to 258047 vertices, got {n}")


def write_graph6(g: Graph) -> str:
    # the size field first, so an oversized graph is refused before its
    # n(n-1)/2 bits are built
    head = _g6_encode_n(g.n)
    # column j is bits 0..j-1 of row j, least vertex first: the low j bits
    # in binary, reversed.  Zero-padded to whole base64 groups of 24 bits,
    # the string goes out six bits a byte through binascii, cut back to the
    # ceil(bits / 6) bytes graph6 keeps
    rows = g.adjacency_bits
    bits = "".join([format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)])
    size = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return head + binascii.b2a_base64(raw, newline=False).translate(_B64_G6)[:size].decode()


def read_graph6(line: str, lineno: int = 1) -> Graph:
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise FormatError(f"line {lineno}: empty graph6 record")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise FormatError(f"line {lineno}: graph6 records beyond 258047 vertices unsupported")
        if len(s) < 4:
            raise FormatError(f"line {lineno}: truncated graph6 size field")
        vals = [ord(c) - 63 for c in s[1:4]]
        if any(not 0 <= v <= 63 for v in vals):
            raise FormatError(f"line {lineno}: invalid graph6 size byte")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise FormatError(f"line {lineno}: invalid graph6 size byte")
        body = s[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise FormatError(f"line {lineno}: graph6 body length {len(body)} wrong for n={n}")
    # a non-ASCII body is refused before it is encoded, so a lone surrogate
    # is a FormatError; deleting the data bytes leaves the others
    if not body.isascii() or (data := body.encode()).translate(None, _G6_DATA):
        raise FormatError(f"line {lineno}: invalid graph6 data byte")
    raw = binascii.a2b_base64(data.translate(_G6_B64) + b"A" * (-len(body) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in bits[need:]:
        raise FormatError(f"line {lineno}: nonzero graph6 padding bits")
    # bit k is the pair (i, j) of the upper triangle in column order, with
    # column j starting at bit j(j-1)/2; each one sets a bit of both rows
    rows = [0] * n
    j = 1
    start = 0
    k = bits.find("1", 0, need)
    while k != -1:
        while k >= start + j:
            start += j
            j += 1
        i = k - start
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        k = bits.find("1", k + 1, need)
    return Graph._from_rows(tuple(rows))


def sniff_format(text: str) -> str:
    """Guess 'edgelist' or 'graph6' from the first meaningful line: a
    comment, or a record with inner whitespace, which no graph6 record has.
    Every line break is whitespace, so that line starts the stripped text;
    the lines after it are not split."""
    first = text.lstrip().split("\n", 1)[0].splitlines()
    if not first:
        raise FormatError("line 1: empty input")
    return "edgelist" if first[0].startswith("#") or len(first[0].split()) > 1 else "graph6"


def loads(text: str) -> Graph:
    """Parse either supported format, sniffing by the first byte.

    A graph6 text holds one record; blank lines around it are ignored.
    """
    if sniff_format(text) == "edgelist":
        return read_edge_list(text)
    records = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
               if line.strip()]
    if len(records) > 1:
        raise FormatError(f"line {records[1][0]}: second graph6 record; one graph per input")
    return read_graph6(records[0][1], records[0][0])


def dumps(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return write_edge_list(g)
    if fmt == "graph6":
        return write_graph6(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
