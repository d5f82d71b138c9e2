import random

import pytest

from lexidis import complete, cycle, path, spider
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

from .util import random_graph


def test_edge_list_round_trip():
    for g in (complete(1), path(4), spider(5), cycle(6)):
        assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# a comment\n\np 3 2\ne 0 1\n# another\ne 1 2\n"
    assert read_edge_list(text) == path(3)


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


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 200])
def test_graph6_round_trip_sizes(n):
    rng = random.Random(1000 + n)
    for p in (0.0, 0.3, 1.0):
        g = random_graph(rng, n, p)
        assert read_graph6(write_graph6(g)) == g


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
    assert loads(dumps(g, "edgelist")) == g
    assert loads(dumps(g, "graph6")) == g
