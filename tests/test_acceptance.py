"""Acceptance suite: the twelve headline criteria.

Extended-tier items (order-16/32 nonexistence, the m=8 oriented
exhaustion) only run when POSR_EXTENDED=1; they are reported as skipped
otherwise.  The criterion-8 items assert the recomputed truth: where the
registry's nonexistence claim is refuted (m=6 with digons, oriented m=8),
they expect the witness and re-check it by brute force, independently of
the search kernel and the automorphism solver.  The order-16/32 extended
items still assert their refuted published claims verbatim and therefore
fail with the counterexample in the assertion message.  Every refutation
is still reported as Fail by ``posr verify`` (see README, "Refuted
registry entries").
"""

from __future__ import annotations

import os
import random
import time
from itertools import combinations, product

import pytest

from posr.autgroup import automorphism_group
from posr.catalog import (
    cyclic_posr_sets,
    fixed_digraph,
    pdr_candidates,
    two_gen_2posr_candidates,
    two_gen_mposr_sets,
    classify,
)
from posr.cayley import (
    ConnectionSets,
    Digraph,
    build_cayley,
    is_digraph_automorphism,
    right_translations,
    validate_sets,
)
from posr.groups import group_from_token
from posr.search import exists_antisymmetric_kregular, exists_mposr, verify_witness

from oracles import brute_force_automorphisms, degrees, digons

extended = pytest.mark.skipif(
    os.environ.get("POSR_EXTENDED") != "1",
    reason="extended tier (set POSR_EXTENDED=1)",
)


def aut_order(g, conn):
    return automorphism_group(build_cayley(g, conn).digraph).order


# -- criterion 1: cyclic 2-POSR constructions ------------------------------

def test_c01_cyclic_2posr_sweep():
    t_all = time.monotonic()
    for n in range(7, 25):
        t0 = time.monotonic()
        g = group_from_token(f"cyclic:{n}")
        assert aut_order(g, cyclic_posr_sets(n, 2)) == n
        assert time.monotonic() - t0 < 1.0
    assert time.monotonic() - t_all < 30.0


# -- criterion 2: cyclic m >= 3 sweeps -------------------------------------

def test_c02_cyclic_higher_m_sweep():
    t_all = time.monotonic()
    cells = [(3, n) for n in range(4, 17)]
    cells += [(4, n) for n in range(3, 17)]
    cells += [(m, n) for m in range(5, 9) for n in range(3, 13)]
    for m, n in cells:
        g = group_from_token(f"cyclic:{n}")
        assert aut_order(g, cyclic_posr_sets(n, m)) == n, (m, n)
    assert time.monotonic() - t_all < 300.0


# -- criterion 3: exhaustive nonexistence, small tier ----------------------

def test_c03_cyclic_m2_nonexistence():
    from math import comb

    t0 = time.monotonic()
    for n in range(2, 7):
        out = exists_mposr(group_from_token(f"cyclic:{n}"), 2, 3, "POSR")
        assert out.status == "ExhaustedNone", n
        assert out.candidates_examined <= comb(n, 3) ** 2
    assert time.monotonic() - t0 < 10.0


@pytest.mark.parametrize("token,m,kind", [
    ("cyclic:3", 3, "POSR"),
    ("cyclic:2", 2, "POSR"), ("cyclic:2", 3, "POSR"), ("cyclic:2", 4, "POSR"),
    ("klein4", 2, "POSR"), ("klein4", 2, "PDR"),
    ("dihedral:6", 2, "POSR"),
])
def test_c03_other_nonexistence(token, m, kind):
    out = exists_mposr(group_from_token(token), m, 3, kind)
    assert out.status == "ExhaustedNone"


# -- criterion 4: exceptional groups ---------------------------------------

def test_c04_quaternion8_exhausted():
    t0 = time.monotonic()
    out = exists_mposr(group_from_token("quaternion8"), 2, 3, "POSR")
    assert out.status == "ExhaustedNone"
    assert out.candidates_examined == 3136
    assert time.monotonic() - t0 < 120.0


@extended
@pytest.mark.parametrize("token", ["c4_semidirect_c4", "smallgroup:16:3"])
def test_c04_order16_exhausted(token):
    out = exists_mposr(group_from_token(token), 2, 3, "POSR")
    assert out.candidates_examined <= 313_600
    assert out.status == "ExhaustedNone", (
        f"witness found: {out.witness.to_json(group_from_token(token))}"
    )


@extended
def test_c04_order32_exhausted():
    g = group_from_token("smallgroup:32:2")
    out = exists_mposr(g, 2, 3, "POSR")
    assert out.status == "ExhaustedNone", f"witness found: {out.witness.to_json(g)}"


# -- criterion 5: named 2-POSR witnesses -----------------------------------

@pytest.mark.parametrize("token,order", [
    ("dihedral:8", 8), ("dihedral:10", 10), ("elem_abelian_9", 9),
    ("alternating4", 12), ("heisenberg27", 27),
])
def test_c05_named_witnesses(token, order):
    t0 = time.monotonic()
    g = group_from_token(token)
    conn = next((c for c in two_gen_2posr_candidates(g)
                 if verify_witness(g, c, "POSR", 3).is_representation), None)
    assert conn is not None
    assert aut_order(g, conn) == order
    assert time.monotonic() - t0 < 5.0


# -- criterion 6: the m >= 3 chain construction matrix ---------------------

def test_c06_chain_matrix():
    t0 = time.monotonic()
    groups = ["dihedral:8", "quaternion8", "elem_abelian_9", "alternating4",
              "dihedral:12", "smallgroup:16:3"]
    for token, m in product(groups, (3, 4, 5, 6)):
        g = group_from_token(token)
        assert aut_order(g, two_gen_mposr_sets(g, m)) == g.order, (token, m)
    assert time.monotonic() - t0 < 300.0


# -- criterion 7: fixed digraphs -------------------------------------------

def test_c07_fixed_digraphs():
    t0 = time.monotonic()
    for name in ("fig1_9", "fig1_10", "gamma7", "gamma8"):
        d = fixed_digraph(name)
        assert degrees(d) == ([3] * d.n, [3] * d.n)
        if name.startswith("fig1_"):
            assert digons(d) == []
        assert automorphism_group(d).order == 1, name
    assert time.monotonic() - t0 < 1.0


# -- criterion 8: antisymmetric exhaustion ---------------------------------

@pytest.mark.parametrize("m", range(1, 8))
def test_c08_oriented_exhausted_up_to_7(m):
    assert exists_antisymmetric_kregular(m, 3, True).status == "ExhaustedNone"


def assert_rigid_3regular(d, m, oriented):
    """Re-check a search witness by brute force alone: loop-free (and
    digon-free when oriented), 3-in/3-out regular, only the identity fixes
    its arc set."""
    assert d.n == m
    assert not any(u == v for u, v in d.arcs())
    assert degrees(d) == ([3] * m, [3] * m)
    if oriented:
        assert digons(d) == []
    assert [p.tolist() for p in brute_force_automorphisms(d)] == [list(range(m))]


@pytest.mark.parametrize("m", range(1, 7))
def test_c08_digons_exhausted_up_to_6(m):
    out = exists_antisymmetric_kregular(m, 3, False)
    if m < 6:
        assert out.status == "ExhaustedNone", (
            f"m={m}: witness {out.witness.arcs() if out.witness else None}"
        )
    else:
        # The registry's trivial-m6-pdr-none is refuted: a rigid witness exists.
        assert out.status == "FoundWitness"
        assert_rigid_3regular(out.witness, m, oriented=False)


def test_c08_witnesses_exist():
    assert exists_antisymmetric_kregular(7, 3, False).status == "FoundWitness"
    assert exists_antisymmetric_kregular(9, 3, True).status == "FoundWitness"


@extended
def test_c08_oriented_m8_exhausted():
    # The registry's order-8 oriented nonexistence is refuted: a rigid
    # witness exists.
    out = exists_antisymmetric_kregular(8, 3, True)
    assert out.status == "FoundWitness"
    assert_rigid_3regular(out.witness, 8, oriented=True)


# -- criterion 9: PDR witnesses --------------------------------------------

def test_c09_pdr_witnesses():
    t0 = time.monotonic()
    for token, order in [("dihedral:6", 6), ("quaternion8", 8),
                         ("c4_semidirect_c4", 16), ("smallgroup:16:3", 16),
                         ("smallgroup:32:2", 32)]:
        g = group_from_token(token)
        conn = next((c for c in pdr_candidates(g, 2)
                     if verify_witness(g, c, "PDR", 3).is_representation), None)
        assert conn is not None, token
        assert aut_order(g, conn) == order
    assert time.monotonic() - t0 < 30.0


# -- criterion 10: solver oracle equivalence -------------------------------

def perm_closure(gens, n):
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(int(g[i]) for i in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def check_against_oracle(d):
    res = automorphism_group(d)
    oracle = brute_force_automorphisms(d)
    assert res.order == len(oracle)
    assert perm_closure(res.generators, d.n) == {tuple(p) for p in oracle}


def test_c10_random_corpus():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 6)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < rng.choice((0.2, 0.5, 0.8))]
        check_against_oracle(Digraph(n, arcs))


def test_c10_all_5_tournaments():
    edges = list(combinations(range(5), 2))
    for bits in range(1 << len(edges)):
        arcs = [(u, v) if bits >> i & 1 else (v, u)
                for i, (u, v) in enumerate(edges)]
        check_against_oracle(Digraph(5, arcs))


# -- criterion 11: embedding property --------------------------------------

def test_c11_translation_embedding():
    rng = random.Random(7)
    tokens = ["cyclic:5", "cyclic:8", "klein4", "dihedral:6", "dihedral:8",
              "quaternion8", "elem_abelian_9", "alternating4"]
    for _ in range(100):
        g = group_from_token(rng.choice(tokens))
        m = rng.choice([2, 3])
        # random valid (partite, 3-regular) connection sets
        while True:
            sizes = [[0] * m for _ in range(m)]
            ok = True
            for i in range(m):
                others = [j for j in range(m) if j != i]
                split = sorted(rng.sample(range(4), len(others) - 1)) if len(others) > 1 else []
                vals = [b - a for a, b in zip([0] + split, split + [3])]
                for j, v in zip(others, vals):
                    sizes[i][j] = v
            for j in range(m):
                if sum(sizes[i][j] for i in range(m)) != 3:
                    ok = False
            if ok and all(sizes[i][j] <= g.order for i in range(m) for j in range(m)):
                break
        sets = [[rng.sample(range(g.order), sizes[i][j]) for j in range(m)]
                for i in range(m)]
        conn = ConnectionSets.from_lists(m, sets)
        assert validate_sets(g, conn, 3).regular
        pd = build_cayley(g, conn)
        for perm in right_translations(g, m):
            assert is_digraph_automorphism(pd.digraph, perm)
        assert automorphism_group(pd.digraph).order >= g.order


# -- criterion 12: classification cross-validation -------------------------

def test_c12_classify_matches_search():
    cells = [("cyclic:2", 2, "POSR"), ("cyclic:3", 2, "POSR"),
             ("cyclic:4", 2, "POSR"), ("cyclic:5", 2, "POSR"),
             ("cyclic:6", 2, "POSR"), ("cyclic:7", 2, "POSR"),
             ("cyclic:3", 3, "POSR"),
             ("cyclic:2", 3, "POSR"), ("cyclic:2", 4, "POSR"),
             ("klein4", 2, "POSR"), ("klein4", 2, "PDR"),
             ("dihedral:6", 2, "POSR"), ("quaternion8", 2, "POSR")]
    for token, m, kind in cells:
        g = group_from_token(token)
        verdict = classify(g, m, kind)
        out = exists_mposr(g, m, 3, kind)
        assert (verdict.answer == "Yes") == (out.status == "FoundWitness"), (token, m, kind)
