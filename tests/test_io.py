"""Serialization formats."""

from __future__ import annotations

import pytest

from posr import io as pio
from posr.cayley import Digraph
from posr.errors import InvalidParameter, UnsupportedFormat
from posr.groups import group_from_token


def test_edgelist_exact_bytes():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert pio.to_edgelist(d) == "n 3\n0 1\n1 2\n2 0\n"


def test_edgelist_empty_digraph():
    assert pio.to_edgelist(Digraph(2, [])) == "n 2\n"


def test_edgelist_roundtrip_with_comments():
    d = Digraph(4, [(0, 3), (2, 1), (3, 0)])
    text = pio.to_edgelist(d, comments=("a digraph", "second line"))
    assert text.startswith("# a digraph\n# second line\nn 4\n")
    back = pio.parse_edgelist(text)
    assert (back.n, back.arcs()) == (d.n, d.arcs())


def test_parse_errors():
    with pytest.raises(InvalidParameter):
        pio.parse_edgelist("0 1\n")
    with pytest.raises(InvalidParameter):
        pio.parse_edgelist("")
    with pytest.raises(InvalidParameter):
        pio.parse_edgelist("n 3\n0 1 2\n")


def test_dot_output():
    d = Digraph(2, [(0, 1)])
    text = pio.to_dot(d)
    assert text.startswith("digraph")
    assert "0 -> 1;" in text


def test_export_dispatch():
    d = Digraph(2, [(0, 1)])
    assert pio.export(d, "edgelist") == "n 2\n0 1\n"
    assert "->" in pio.export(d, "dot")
    assert '"n": 2' in pio.export(d, "json")
    with pytest.raises(UnsupportedFormat):
        pio.export(d, "xml")


def test_export_deterministic():
    d = Digraph(5, [(4, 0), (0, 4), (2, 3)])
    assert pio.export(d, "json") == pio.export(d, "json")


def test_connection_sets_json_roundtrip():
    from posr.cayley import ConnectionSets

    g = group_from_token("dihedral:8")
    conn = ConnectionSets.from_words(
        g, 2, {(0, 1): ["1", "x", "x*y"], (1, 0): ["x", "y", "x^3*y"]}
    )
    text = pio.connection_sets_to_json(conn, g)
    assert pio.parse_connection_sets(text, g) == conn
