import random

import pytest

from lexidis import Graph, complete, cycle, path, spider
from lexidis.formats import (
    FormatError,
    dumps,
    loads,
    read_edge_list,
    read_graph6,
    sniff_format,
    write_edge_list,
    write_graph6,
)

from .util import (
    random_graph,
    reference_read_graph6,
    reference_write_edge_list,
    reference_write_graph6,
)


def test_edge_list_round_trip():
    for g in (complete(1), path(4), spider(5), cycle(6)):
        assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# a comment\n\np 3 2\ne 0 1\n# another\ne 1 2\n"
    assert read_edge_list(text) == path(3)
    # a comment may hold what an integer field may not
    assert read_edge_list("# P_3, n = +3, caf\u00e9\n" + text) == path(3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 0 1\n", "line 1"),
        ("p 2 1\ne 1 0\n", "line 2"),
        ("p 2 1\ne 0 2\n", "line 2"),
        ("p 3 2\ne 0 1\ne 0 1\n", "line 3"),
        ("p 3 1\ne 0 1\ne 1 2\n", "declares"),
        ("p 3 x\n", "line 1"),
        ("q 3 1\n", "line 1"),
        ("p 2 1\np 2 1\n", "line 2"),
        # integer fields are ASCII digits with an optional leading '-',
        # not every literal int() takes
        ("p 1_0 0\n", "line 1: non-integer header fields"),
        ("p +3 0\n", "line 1: non-integer header fields"),
        ("p -3 0\n", "line 1: negative header fields"),
        ("p 3 1\ne 0 \u0662\n", "line 2: non-integer endpoints"),
        ("p 3 1\ne 0 1_0\n", "line 2: non-integer endpoints"),
        ("p 3 1\ne -1 2\n", "line 2: need 0 <= u < v < 3"),
        ("p 3\n", "line 1: expected 'p <n> <m>'"),
        ("p 3 1\ne 0 1 2\n", "line 2: expected 'e <u> <v>'"),
        ("# only a comment\n", "line 1: missing 'p <n> <m>' header"),
    ],
)
def test_edge_list_errors_name_lines(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        read_edge_list(text)


def test_graph6_known_strings():
    # bit-exact fixtures for tiny graphs
    assert write_graph6(complete(4)) == "C~"
    assert write_graph6(path(4)) == "Ch"
    assert write_graph6(complete(1)) == "@"
    assert read_graph6("C~") == complete(4)
    assert read_graph6("Ch") == path(4)
    assert read_graph6(">>graph6<<C~") == complete(4)


def test_graph6_round_trip_small():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(0, 15))
        assert read_graph6(write_graph6(g)) == g


def test_graph6_round_trip_large_header():
    rng = random.Random(5)
    g = random_graph(rng, 70, 0.05)
    s = write_graph6(g)
    assert s.startswith("~")
    assert read_graph6(s) == g


# body lengths 0, 1, 316, 326, 336, 1231, 3317, 13434 and 53668 chars:
# every residue mod 4, and graphs of a certify-sized product's order
G6_SIZES = [0, 1, 2, 62, 63, 64, 122, 200, 402, 803]


def test_graph6_sizes_cover_every_body_length_mod_4():
    assert {(n * (n - 1) // 2 + 5) // 6 % 4 for n in G6_SIZES} == {0, 1, 2, 3}


@pytest.mark.parametrize("n", G6_SIZES)
def test_graph6_round_trip_sizes(n):
    rng = random.Random(1000 + n)
    for p in (0.0, 0.3, 1.0):
        g = random_graph(rng, n, p)
        s = write_graph6(g)
        assert read_graph6(s) == reference_read_graph6(s) == g


def test_graph6_errors():
    with pytest.raises(FormatError):
        read_graph6("")
    with pytest.raises(FormatError):
        read_graph6("C~~")  # body too long for n=4
    with pytest.raises(FormatError):
        read_graph6("C")  # body missing
    with pytest.raises(FormatError, match="padding"):
        read_graph6("B~")  # n=3 uses 3 of the 6 body bits
    with pytest.raises(FormatError, match="data byte"):
        read_graph6("B" + chr(127))
    assert read_graph6("Bw") == complete(3)


def test_sniff_and_generic_io():
    g = spider(3)
    assert sniff_format(write_edge_list(g)) == "edgelist"
    assert sniff_format(write_graph6(g)) == "graph6"
    # no graph6 record holds whitespace: a headerless edge list is not one
    assert sniff_format("\n e 0 1\n") == "edgelist"
    assert loads(dumps(g, "edgelist")) == g
    assert loads(dumps(g, "graph6")) == g


def test_graph6_text_holds_one_record():
    # a second record is refused, not ignored
    with pytest.raises(FormatError, match="^line 2: second graph6 record"):
        loads("Bw\nDQc\n")
    with pytest.raises(FormatError, match="^line 4: second graph6 record"):
        loads("\nBw\n\n  DQc")
    # one record, with the header, blank lines and surrounding spaces
    assert loads("Bw") == complete(3)
    assert loads(">>graph6<<Bw\n") == complete(3)
    assert loads("\n  Bw  \n\n \n") == complete(3)


def _io_graphs():
    """Sparse, dense and complete graphs of 0 to 300 vertices, on both sides
    of the 62/63 vertex boundary where graph6 takes the '~' size field."""
    rng = random.Random(2024)
    for n in (0, 1, 2, 3, 5, 8, 61, 62, 63, 64, 65, 100, 200, 300):
        for p in (0.02, 0.1, 0.6):
            yield random_graph(rng, n, p)
        if n:
            yield complete(n)


def test_write_edge_list_matches_reference_text():
    for g in _io_graphs():
        assert write_edge_list(g) == reference_write_edge_list(g)


def test_write_graph6_matches_reference_text():
    for g in _io_graphs():
        assert write_graph6(g) == reference_write_graph6(g)


def test_read_graph6_matches_reference_graphs():
    for g in _io_graphs():
        s = write_graph6(g)
        got = read_graph6(s)
        assert got == reference_read_graph6(s) == g
        assert (got.n, got.m, got.adjacency_bits) == (g.n, g.m, g.adjacency_bits)


def _g6_402_with(byte: str, at: int) -> str:
    """The empty 402-vertex graph6 record with body position ``at`` set to ``byte``."""
    return "~?EQ" + "?" * at + byte + "?" * (13433 - at)


@pytest.mark.parametrize(
    "line",
    [
        "", ">>graph6<<", "~~??????", "~?", "~??", "~\x7f???", "~?\x3e?", "\x3e", "\x7f",
        "C", "C~~", "B~", "B" + chr(127), "B" + chr(62), "B\u00e9",
        "~??~" + "?" * 325, "~??~" + "?" * 327, "~??~" + "?" * 325 + "@",
        "~??~" + "?" * 325 + "\x7f", "}" + "?" * 315 + "@",
        # nonzero padding after a '~' size field: n = 122 and n = 402 end in
        # five and three padding bits
        "~?@y" + "?" * 1230 + "O", "~?EQ" + "?" * 13433 + "@",
        # a lone surrogate is refused as a data byte, not as an encode error
        "B\ud800",
        # a bad data byte first, in the middle and last of a 402-vertex body
        *(pytest.param(_g6_402_with(byte, at), id=f"n402-{ord(byte):#x}-at-{at}")
          for byte in "\x7f>\u00e9" for at in (0, 6717, 13433)),
    ],
)
def test_graph6_errors_match_reference_messages(line):
    # each message names the record's line; loads passes the line it sits on
    for lineno in (1, 3):
        with pytest.raises(FormatError) as want:
            reference_read_graph6(line, lineno)
        with pytest.raises(FormatError) as got:
            read_graph6(line, lineno)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"line {lineno}: ")


def test_graph6_reader_refuses_exactly_the_bytes_the_reference_refuses():
    # every byte value in the middle of a 402-vertex body, where each data
    # byte reads as six edge bits and none is padding
    for value in range(256):
        line = _g6_402_with(chr(value), 6717)
        try:
            want = reference_read_graph6(line)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_graph6(line)
            assert str(got.value) == str(exc)
        else:
            assert 63 <= value <= 126
            assert read_graph6(line) == want


def test_graph6_errors_name_the_records_line():
    with pytest.raises(FormatError, match="^line 3: nonzero graph6 padding bits$"):
        loads("\n\nB~\n")
    with pytest.raises(FormatError, match="^line 2: invalid graph6 size byte$"):
        loads("\n" + chr(127) + "\n\n")


def test_empty_input_and_unknown_format_give_exact_messages():
    with pytest.raises(FormatError) as exc:
        loads("\n  \n")
    assert str(exc.value) == "line 1: empty input"
    with pytest.raises(ValueError) as exc:
        dumps(path(2), "dot")
    assert str(exc.value) == "unknown format 'dot'"


def test_graph6_writer_checks_the_size_first(monkeypatch):
    # the n(n-1)/2 bits of 258 048 vertices would be about 3.3e10
    # characters; the size field is refused before any bit is built
    import lexidis.formats as fmt

    def no_format(*_args):
        raise AssertionError("encoded the body of an oversized graph")

    monkeypatch.setattr(fmt, "format", no_format, raising=False)
    with pytest.raises(FormatError) as exc:
        write_graph6(Graph(258048))
    assert str(exc.value) == "graph6 writer supports up to 258047 vertices, got 258048"
