"""The automorphism solver against its brute-force oracle."""

from __future__ import annotations

import random
from math import factorial

import numpy as np
import pytest

from posr.autgroup import (
    Coloring,
    StabilizerChain,
    aut_is_translations,
    automorphism_group,
    equitable_refine,
    find_nontrivial_automorphism,
    is_semiregular_rep,
)
from posr.cayley import ConnectionSets, Digraph, build_cayley, is_digraph_automorphism
from posr import autgroup
from posr.errors import GroupOrderMismatch, InvalidParameter, TooLarge
from posr.groups import group_from_token

from oracles import (
    brute_force_automorphisms,
    group_order_from_generators,
    is_equitable,
    relabel,
)


def random_digraph(rng, n):
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < 0.35]
    return Digraph(n, arcs)


def perm_closure(gens, n):
    """All permutations generated by ``gens`` (as byte keys)."""
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


def test_directed_cycle():
    d = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert automorphism_group(d).order == 5


def test_bidirected_triangle():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    assert automorphism_group(d).order == 6


def test_cyclic7_lemma_digraph():
    g = group_from_token("cyclic:7")
    conn = ConnectionSets.from_words(
        g, 2, {(0, 1): ["1", "x", "x^2"], (1, 0): ["x", "x^3", "x^4"]}
    )
    assert automorphism_group(build_cayley(g, conn).digraph).order == 7


def test_generators_preserve_arcs():
    rng = random.Random(3)
    for _ in range(50):
        d = random_digraph(rng, rng.randint(2, 8))
        res = automorphism_group(d)
        for gen in res.generators:
            assert is_digraph_automorphism(d, gen)


def test_oracle_equivalence_random():
    rng = random.Random(42)
    for _ in range(300):
        d = random_digraph(rng, rng.randint(1, 6))
        res = automorphism_group(d)
        oracle = brute_force_automorphisms(d)
        assert res.order == len(oracle)
        assert perm_closure(res.generators, d.n) == {tuple(p) for p in oracle}


def test_equitable_refinement_properties():
    rng = random.Random(9)
    for _ in range(40):
        d = random_digraph(rng, rng.randint(1, 9))
        c = equitable_refine(d, Coloring.uniform(d.n))
        assert is_equitable(d, c)
        # refining an equitable coloring is a fixed point
        again = equitable_refine(d, c)
        assert np.array_equal(again.color, c.color)


def test_find_nontrivial_automorphism_seeded_parts():
    d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    p = find_nontrivial_automorphism(d)
    assert p is not None and is_digraph_automorphism(d, p)
    # seeded with H = <(0 1)(2 3)>, orbits {0, 1} and {2, 3}: Aut has order 8
    # and the stabilizer of 0 (swapping 2 and 3) lies outside H
    q = find_nontrivial_automorphism(d, part_size=2)
    assert q is not None and is_digraph_automorphism(d, q)
    assert q.tolist() not in ([0, 1, 2, 3], [1, 0, 3, 2])
    # the directed 4-cycle 0-2-1-3 has H as its index-2 subgroup; every
    # automorphism outside H exchanges the two blocks
    c4 = Digraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    r = find_nontrivial_automorphism(c4, part_size=2)
    assert r is not None and is_digraph_automorphism(c4, r) and int(r[0]) in (2, 3)
    rigid = Digraph(3, [(0, 1), (1, 2)])
    assert find_nontrivial_automorphism(rigid) is None
    for bad in (0, 3):
        with pytest.raises(InvalidParameter):
            find_nontrivial_automorphism(d, part_size=bad)
    # a 2-POSR of Z7: Aut = R(Z7), so nothing lies outside the seeded copy,
    # while the translations themselves are nontrivial automorphisms
    g = group_from_token("cyclic:7")
    conn = ConnectionSets.from_words(
        g, 2, {(0, 1): ["1", "x", "x^2"], (1, 0): ["x", "x^3", "x^4"]}
    )
    cayley = build_cayley(g, conn).digraph
    assert find_nontrivial_automorphism(cayley, part_size=7) is None
    assert find_nontrivial_automorphism(cayley) is not None


def test_empty_digraph_has_trivial_group():
    empty = Digraph(0, [])
    assert find_nontrivial_automorphism(empty) is None
    assert automorphism_group(empty).order == 1


def test_brute_force_limits_and_small_cases():
    assert len(brute_force_automorphisms(Digraph(3, [(0, 1), (1, 2), (2, 0)]))) == 3
    assert len(brute_force_automorphisms(Digraph(2, [(0, 1)]))) == 1
    assert len(brute_force_automorphisms(Digraph(3, []))) == 6
    with pytest.raises(TooLarge):
        brute_force_automorphisms(Digraph(11, []))


def test_stabilizer_chain_examples():
    assert group_order_from_generators([list(range(4))], 4) == 1
    assert group_order_from_generators([[1, 2, 3, 4, 0]], 5) == 5
    assert group_order_from_generators([[1, 2, 0], [1, 0, 2]], 3) == 6


def test_stabilizer_chain_membership():
    chain = StabilizerChain(4)
    chain.add_generator(np.array([1, 0, 2, 3]))
    chain.add_generator(np.array([0, 1, 3, 2]))
    assert chain.order() == 4
    residue, _ = chain.sift(np.array([1, 0, 3, 2]))
    assert np.array_equal(residue, np.arange(4))
    residue, _ = chain.sift(np.array([2, 1, 0, 3]))
    assert not np.array_equal(residue, np.arange(4))


def test_semiregular_rep_shortcut_agreement():
    # the seeded one-pass check against the full unseeded computation, on
    # random candidates with m up to 4 and loops from the diagonal cells
    rng = random.Random(5)
    tokens = ["cyclic:1", "cyclic:2", "cyclic:5", "cyclic:7", "klein4", "dihedral:6",
              "dihedral:8", "quaternion8"]
    outcomes = set()
    for _ in range(300):
        g = group_from_token(rng.choice(tokens))
        m = rng.choice([2, 3, 4])
        sets = [[[] for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                k = rng.randint(0, min(3 if i != j else 1, g.order))
                sets[i][j] = rng.sample(range(g.order), k)
        pd = build_cayley(g, ConnectionSets.from_lists(m, sets))
        full = is_semiregular_rep(pd, g)
        assert aut_is_translations(pd) == full.is_representation
        if not full.is_representation:
            assert full.aut_order != g.order
        outcomes.add((g.order == 1, full.is_representation))
    # both verdicts occur, for the trivial group and for the others
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_rep_verdict_reports_extra_automorphism():
    g = group_from_token("cyclic:4")
    conn = ConnectionSets.from_lists(2, [[[], [0, 1, 2]], [[0, 1, 2], []]])
    pd = build_cayley(g, conn)
    res = is_semiregular_rep(pd, g)
    assert not res.is_representation
    assert res.aut_order > g.order
    assert res.witness_extra_automorphism is not None
    assert is_digraph_automorphism(pd.digraph, res.witness_extra_automorphism)


def test_uniform_initial_coloring_no_part_seed():
    # a digraph whose only automorphisms EXCHANGE the parts: the solver must
    # find them, which it cannot if parts were seeded as distinct colors
    d = Digraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])  # directed 4-cycle 0-2-1-3
    assert automorphism_group(d).order == 4


def disjoint_triangles(k):
    return Digraph(3 * k, [(3 * i + j, 3 * i + (j + 1) % 3)
                           for i in range(k) for j in range(3)])


@pytest.mark.parametrize("n", [24, 40])
def test_empty_digraph_pruned_at_every_level(n):
    # orbit pruning on the whole first path: one generator per level, and
    # about n - d nodes to find it at depth d
    res = automorphism_group(Digraph(n, []), node_budget=n * (n + 1) // 2)
    assert len(res.generators) == n - 1
    assert res.order == factorial(n)


@pytest.mark.parametrize("n", [24, 40])
def test_empty_digraph_candidate_at_each_sibling(n):
    # the second child of each first-path node is certified by its own
    # candidate, a transposition, so the whole search takes about 2n nodes
    res = automorphism_group(Digraph(n, []), node_budget=2 * n)
    assert res.order == factorial(n)


@pytest.mark.parametrize("k", [5, 10, 20])
def test_disjoint_triangles_linear_nodes(k):
    # k - 1 first-path nodes whose second child is certified at once, and
    # the last triangle's rotations at the leaves
    d = disjoint_triangles(k)
    for seed in range(20):
        perm = list(range(3 * k))
        random.Random(f"triangles:{seed}").shuffle(perm)
        res = automorphism_group(relabel(d, perm), node_budget=3 * k + 3)
        assert res.order == 3 ** k * factorial(k)


def test_candidate_is_the_leaf_map_at_leaves():
    # at a discrete node the candidate maps the vertex of color c in the
    # first leaf to the vertex of color c here
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 30):
        first, here = rng.permutation(n), rng.permutation(n)
        pos_here = np.empty(n, dtype=np.int64)
        pos_here[here] = np.arange(n)
        assert np.array_equal(autgroup._candidate(first, here), pos_here[first])


def test_candidate_maps_cells_and_fixes_agreeing_vertices():
    first = np.array([0, 1, 1, 2, 2, 2, 0])
    here = np.array([1, 0, 1, 2, 2, 2, 0])
    perm = autgroup._candidate(first, here)
    assert np.array_equal(here[perm], first)
    assert perm.tolist() == [1, 0, 2, 3, 4, 5, 6]
    # two moved vertices of one color keep their label order
    first, here = np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])
    assert autgroup._candidate(first, here).tolist() == [2, 3, 0, 1]


def test_semiregular_rep_shortcut_agreement_with_inner_candidates(monkeypatch):
    # sparse connection sets give large groups, where the candidate of a
    # node that is not a leaf is an automorphism; ``_search`` tests each
    # candidate right after building it, which pairs the two wrappers
    inner, accepts = [], [0]
    candidate, test = autgroup._candidate, autgroup.is_digraph_automorphism

    def logged_candidate(first, colors):
        inner.append(int(colors.max()) + 1 < len(colors))
        return candidate(first, colors)

    def logged_test(d, perm):
        result = test(d, perm)
        accepts[0] += inner.pop() and result
        return result

    monkeypatch.setattr(autgroup, "_candidate", logged_candidate)
    monkeypatch.setattr(autgroup, "is_digraph_automorphism", logged_test)
    rng = random.Random(19)
    tokens = ["cyclic:2", "cyclic:5", "cyclic:7", "klein4", "dihedral:6", "quaternion8"]
    verdicts = set()
    for _ in range(60):
        g = group_from_token(rng.choice(tokens))
        m = rng.choice([2, 3, 4])
        sets = [[rng.sample(range(g.order), rng.choice([0, 0, 0, 1, 2]) if i != j else
                            rng.choice([0, 1])) for j in range(m)] for i in range(m)]
        pd = build_cayley(g, ConnectionSets.from_lists(m, sets))
        before = accepts[0]
        full = is_semiregular_rep(pd, g)
        assert aut_is_translations(pd) == full.is_representation
        if accepts[0] > before:
            verdicts.add(full.is_representation)
    assert verdicts == {False}  # fired, on digraphs whose group is larger


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_disjoint_triangles_few_generators(k):
    d = disjoint_triangles(k)
    for seed in range(3):
        perm = list(range(3 * k))
        random.Random(seed).shuffle(perm)
        res = automorphism_group(relabel(d, perm))
        assert res.order == 3 ** k * factorial(k)
        assert len(res.generators) <= 2 * k


@pytest.mark.parametrize("name", ["empty12", "triangles6"])
def test_schreier_generators_sifted_once(monkeypatch, name):
    # the block sifter gets one row per generator added and at most one per
    # (level, orbit point, level generator) triple: a Schreier generator is
    # never formed twice
    if name == "empty12":
        d, order = Digraph(12, []), factorial(12)
    else:
        perm = list(range(18))
        random.Random(name).shuffle(perm)
        d, order = relabel(disjoint_triangles(6), perm), 3 ** 6 * factorial(6)
    chains, counts = [], {"generators": 0, "rows": 0}
    add_generator, sift = StabilizerChain.add_generator, StabilizerChain.sift

    def counted_add_generator(self, *perms):
        counts["generators"] += len(perms)
        if self not in chains:
            chains.append(self)
        return add_generator(self, *perms)

    def counted_sift(self, perms, start=0):
        counts["rows"] += len(np.atleast_2d(perms))
        return sift(self, perms, start)

    monkeypatch.setattr(StabilizerChain, "add_generator", counted_add_generator)
    monkeypatch.setattr(StabilizerChain, "sift", counted_sift)
    assert automorphism_group(d).order == order
    (chain,) = chains
    pairs = sum(len(lv.points) * len(lv.gens) for lv in chain.levels if lv is not None)
    assert counts["rows"] <= counts["generators"] + pairs


def test_one_add_generator_call_per_group(monkeypatch):
    # automorphism_group hands the chain every generator at once, so the
    # chain is closed once, for a rigid digraph too
    calls = []
    add_generator = StabilizerChain.add_generator

    def counted(self, *perms):
        calls.append(len(perms))
        return add_generator(self, *perms)

    monkeypatch.setattr(StabilizerChain, "add_generator", counted)
    for d in (Digraph(12, []), disjoint_triangles(4), Digraph(3, [(0, 1), (1, 2)])):
        calls.clear()
        res = automorphism_group(d)
        assert calls == [len(res.generators)]


def test_order_mismatch_raises(monkeypatch):
    # the Schreier-Sims order is checked against the first-path orbit product
    monkeypatch.setattr(autgroup.StabilizerChain, "order", lambda self: 5)
    with pytest.raises(GroupOrderMismatch, match="orbit product 6"):
        automorphism_group(Digraph(3, []))
