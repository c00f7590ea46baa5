"""Cayley digraph construction, validation, and the translation embedding."""

from __future__ import annotations

import random

import numpy as np
import pytest

from posr.cayley import (
    ConnectionSets,
    Digraph,
    build_cayley,
    is_digraph_automorphism,
    right_translations,
    sets_oriented,
    validate_sets,
)
from posr.errors import IndexOutOfRange, InvalidParameter
from posr.groups import group_from_token

from oracles import degrees, relabel


def z7_lemma_sets():
    g = group_from_token("cyclic:7")
    return g, ConnectionSets.from_words(
        g, 2, {(0, 1): ["1", "x", "x^2"], (1, 0): ["x", "x^3", "x^4"]}
    )


def test_connection_sets_canonicalized():
    conn = ConnectionSets.from_lists(2, [[[], [2, 0, 1]], [[3, 1], []]])
    assert conn.cell(0, 1) == (0, 1, 2)
    assert conn.cell(1, 0) == (1, 3)
    assert conn.size_matrix() == [[0, 3], [2, 0]]


def test_connection_sets_reject_duplicates():
    with pytest.raises(InvalidParameter):
        ConnectionSets.from_lists(2, [[[], [0, 0]], [[], []]])


def test_connection_sets_json_roundtrip():
    g, conn = z7_lemma_sets()
    data = conn.to_json(g)
    assert data["m"] == 2
    back = ConnectionSets.from_json(data, g)
    assert back == conn


def test_vertex_convention():
    g, conn = z7_lemma_sets()
    d = build_cayley(g, conn).digraph
    # vertex (i, h) is i*|G| + h, and the arc rule is h_i -> (t*h)_j for t
    # in T[i][j]
    n = g.order
    assert set(d.arcs()) == {
        (i * n + h, j * n + g.mul(t, h))
        for i in range(2) for j in range(2) for t in conn.cell(i, j) for h in range(n)
    }
    # t = x, h = x^2 gives 2_0 -> 3_1
    assert (2, 7 + 3) in d.arcs()


def test_digraph_basic_invariants():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert d.arcs() == [(0, 1), (1, 2), (2, 0)]
    assert degrees(d) == ([1, 1, 1], [1, 1, 1])
    # repeated arcs count once, in any order
    assert Digraph(3, [(2, 0), (0, 1), (2, 0), (1, 2), (0, 1)]).arcs() == d.arcs()
    with pytest.raises(IndexOutOfRange):
        Digraph(2, [(0, 5)])
    with pytest.raises(IndexOutOfRange):
        Digraph(2, [(-1, 0)])


def test_digraph_sets_of_the_trivial_group():
    # a digraph on m vertices is the Cayley digraph of the trivial group
    # with m parts and T_uv = {e} for each arc u -> v
    g = group_from_token("cyclic:1")
    d = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 2), (3, 0)])
    conn = ConnectionSets.from_digraph(d)
    assert build_cayley(g, conn).digraph.arcs() == d.arcs()
    # the loop is a diagonal cell and the digon 0 <-> 1 meets its reverse
    report = validate_sets(g, conn, 1)
    assert not report.partite and not report.oriented and not report.regular


def test_digraph_relabel_preserves_structure():
    d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    r = relabel(d, [2, 3, 0, 1])
    assert len(r.arcs()) == len(d.arcs())
    assert (2, 3) in r.arcs()


def test_validation_flags():
    g, conn = z7_lemma_sets()
    report = validate_sets(g, conn, 3)
    assert report.oriented and report.partite and report.regular
    assert report.ok_for("POSR") and report.ok_for("PDR")
    # a digon-carrying system: PDR-grade only
    bad = ConnectionSets.from_words(g, 2, {(0, 1): ["1", "x", "x^2"], (1, 0): ["1", "x^3", "x^4"]})
    report = validate_sets(g, bad, 3)
    assert not report.oriented and report.partite and report.regular
    assert not report.ok_for("POSR") and report.ok_for("PDR")
    assert sets_oriented(g, conn) and not sets_oriented(g, bad)


def test_irregular_sets_flagged():
    g = group_from_token("cyclic:7")
    conn = ConnectionSets.from_words(g, 2, {(0, 1): ["1", "x", "x^2"], (1, 0): ["x"]})
    assert not validate_sets(g, conn, 3).regular


def test_right_translations_are_automorphisms():
    random.seed(7)
    for token in ("cyclic:7", "dihedral:8", "quaternion8", "heisenberg27"):
        g = group_from_token(token)
        m = random.choice([2, 3])
        cells = {}
        # arbitrary (not necessarily valid) connection sets: R(G) must STILL
        # be an automorphism of the built digraph
        for i in range(m):
            for j in range(m):
                if i != j:
                    cells[(i, j)] = random.sample(range(g.order), 2)
        conn = ConnectionSets.from_lists(
            m, [[cells.get((i, j), []) for j in range(m)] for i in range(m)]
        )
        pd = build_cayley(g, conn)
        for perm in right_translations(g, m):
            assert is_digraph_automorphism(pd.digraph, perm)


def reference_is_automorphism(d, perm):
    """The per-arc loop that the vectorised check replaced: a bijection maps
    the arc set onto itself iff it maps every arc to an arc."""
    arcs = set(d.arcs())
    return all((int(perm[u]), int(perm[v])) in arcs for u, v in arcs)


def test_is_digraph_automorphism_matches_reference():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(0, 7)
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3])
        perm = np.array(rng.sample(range(n), n), dtype=np.int64)
        got = is_digraph_automorphism(d, perm)
        assert got == reference_is_automorphism(d, perm)
        verdicts.add(got)
    assert verdicts == {False, True}


def reference_csr(n, arcs):
    """The CSR arrays of an arc list, vertex by vertex: sorted out- and
    in-neighbour lists, concatenated, with running offsets."""
    arcs = set(arcs)
    flat, offsets = [], []
    for side in (0, 1):
        lists = [sorted(a[1 - side] for a in arcs if a[side] == v) for v in range(n)]
        flat.append(np.array([w for lst in lists for w in lst], dtype=np.int64))
        offsets.append(np.array([sum(map(len, lists[:v])) for v in range(n + 1)],
                                dtype=np.int64))
    return flat[0], offsets[0], flat[1], offsets[1]


def test_csr_matches_reference():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(0, 12)
        arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3]
        # repeats, in shuffled order, count once
        arcs += rng.sample(arcs, len(arcs) // 3)
        rng.shuffle(arcs)
        d = Digraph(n, arcs)
        for got, want in zip(d.csr(), reference_csr(n, arcs)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert d.arcs() == sorted(set(arcs))


def test_right_translations_form_semiregular_copy():
    g = group_from_token("dihedral:8")
    perms = right_translations(g, 2)
    assert len(perms) == 8
    ident = np.arange(16)
    for p in perms[1:]:
        assert not np.any(p == ident)  # semiregular: no fixed points
