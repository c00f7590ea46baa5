"""The automorphism solver against networkx VF2 and sympy, beyond the reach
of the brute-force oracle."""

from __future__ import annotations

import os
import random
from math import factorial

import numpy as np
import pytest

from posr.autgroup import StabilizerChain, automorphism_group
from posr.cayley import Digraph

nx = pytest.importorskip("networkx")
combinatorics = pytest.importorskip("sympy.combinatorics")
isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")

COUNT_LIMIT = 500  # VF2 enumerates groups up to this order


def symmetric_inputs():
    """Highly symmetric digraphs with |Aut| in closed form."""
    # a 2-POSR of C_80 (Theorem 1.1): T01 = {1, x, x^2}, T10 = {x, x^2, x^4}
    posr80 = ([(h, 80 + (h + t) % 80) for h in range(80) for t in (0, 1, 2)]
              + [(80 + h, (h + t) % 80) for h in range(80) for t in (1, 2, 4)])
    return [
        ("empty24", 24, [], factorial(24)),
        ("triangles10", 30, [(3 * i + j, 3 * i + (j + 1) % 3)
                             for i in range(10) for j in range(3)], 3 ** 10 * factorial(10)),
        ("cycle150", 150, [(v, (v + 1) % 150) for v in range(150)], 150),
        ("cyclic80_2posr", 160, posr80, 80),
    ]


def relabelled(n, arcs, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in arcs]


def vf2_count(n, arcs, limit):
    """Number of automorphisms by VF2, counting at most ``limit + 1``."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    count = 0
    for _ in isomorphism.DiGraphMatcher(g, g).isomorphisms_iter():
        count += 1
        if count > limit:
            break
    return count


def check_against_oracles(n, arcs, count_limit=COUNT_LIMIT):
    res = automorphism_group(Digraph(n, arcs))
    arc_set = set(arcs)
    for gen in res.generators:
        g = gen.tolist()
        assert sorted(g) == list(range(n))
        assert {(g[u], g[v]) for u, v in arc_set} == arc_set
    perms = [combinatorics.Permutation(g.tolist()) for g in res.generators]
    group = combinatorics.PermutationGroup(perms or [combinatorics.Permutation(n - 1)])
    assert group.order() == res.order
    if res.order <= count_limit:
        assert vf2_count(n, arcs, count_limit) == res.order
    return res.order


@pytest.mark.parametrize("name,n,arcs,order", symmetric_inputs(),
                         ids=[x[0] for x in symmetric_inputs()])
def test_symmetric_inputs_match_oracles(name, n, arcs, order):
    # sympy and the closed form; VF2 could enumerate only the groups of
    # cycle150 and cyclic80_2posr, at about 5 s each, so that is extended
    rng = random.Random(f"oracle:{name}")
    assert check_against_oracles(n, relabelled(n, arcs, rng), count_limit=0) == order


def candidate_inputs():
    """Inputs for the candidate at off-path nodes: the four above, where it
    certifies inner nodes, and three whose candidates often fail, so the
    search descends below them."""
    q7 = [(v, v ^ (1 << b)) for v in range(128) for b in range(7)]
    squares = {x * x % 43 for x in range(1, 43)}
    paley43 = [(u, v) for u in range(43) for v in range(43) if (v - u) % 43 in squares]
    torus6 = [(6 * r + c, 6 * ((r + dr) % 6) + (c + dc) % 6) for r in range(6)
              for c in range(6) for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))]
    return symmetric_inputs() + [
        ("q7", 128, q7, 2 ** 7 * factorial(7)),
        ("paley43", 43, paley43, 43 * 21),
        ("torus6x6", 36, torus6, (2 * 6) ** 2 * 2),
    ]


@pytest.mark.parametrize("name,n,arcs,order", candidate_inputs(),
                         ids=[x[0] for x in candidate_inputs()])
def test_candidate_inputs_match_sympy(name, n, arcs, order):
    # every generator is an automorphism and sympy's order of the group
    # they generate is |Aut|, so they generate Aut, under every relabelling
    rng = random.Random(f"candidate:{name}")
    for _ in range(3):
        assert check_against_oracles(n, relabelled(n, arcs, rng), count_limit=0) == order


@pytest.mark.skipif(os.environ.get("POSR_EXTENDED") != "1",
                    reason="extended tier (set POSR_EXTENDED=1)")
@pytest.mark.parametrize("name,n,arcs,order", symmetric_inputs()[2:],
                         ids=[x[0] for x in symmetric_inputs()[2:]])
def test_symmetric_inputs_match_vf2(name, n, arcs, order):
    rng = random.Random(f"oracle:{name}")
    assert check_against_oracles(n, relabelled(n, arcs, rng), count_limit=order) == order


def random_symmetric_digraph(rng):
    """A digraph on at most 60 vertices from one of three families: random
    (mostly rigid), circulant (at most 40 vertices, so that VF2 enumerates
    its group quickly), or up to 12 copies of one small random digraph."""
    family = rng.choice(["random", "circulant", "copies"])
    if family == "random":
        n = rng.randint(1, 60)
        p = rng.choice([0.03, 0.1, 0.3])
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    elif family == "circulant":
        n = rng.randint(2, 40)
        conn = rng.sample(range(1, n), min(n - 1, rng.randint(1, 4)))
        arcs = [(v, (v + s) % n) for v in range(n) for s in conn]
    else:
        size = rng.randint(2, 5)
        copies = rng.randint(2, 12)
        piece = [(u, v) for u in range(size) for v in range(size)
                 if u != v and rng.random() < 0.4]
        n = size * copies
        arcs = [(c * size + u, c * size + v) for c in range(copies) for u, v in piece]
    return n, relabelled(n, arcs, rng)


def test_random_digraphs_match_oracles():
    rng = random.Random(2014)
    orders = set()
    for _ in range(40):
        n, arcs = random_symmetric_digraph(rng)
        orders.add(check_against_oracles(n, arcs))
    # rigid, small and huge groups all occur
    assert 1 in orders and any(1 < o <= COUNT_LIMIT for o in orders)
    assert any(o > COUNT_LIMIT for o in orders)


def random_generator_set(rng, n):
    """Permutations of degree ``n`` from one of four families (random, sparse
    short cycles, block-preserving, powers of one permutation), mixed with
    identities and repeats and shuffled."""
    family = rng.choice(["random", "sparse", "blocks", "powers"])
    gens = []
    if family == "random":
        for _ in range(rng.randint(1, 3)):
            gens.append(rng.sample(range(n), n))
    elif family == "sparse":
        for _ in range(rng.randint(1, 4)):
            p = list(range(n))
            cycle = rng.sample(range(n), min(n, rng.choice([2, 3])))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p[a] = b
            gens.append(p)
    elif family == "blocks":
        size = rng.choice([b for b in range(1, n + 1) if n % b == 0])
        for _ in range(rng.randint(1, 3)):
            blocks = rng.sample(range(n // size), n // size)
            shift = [rng.randrange(size) for _ in range(n // size)]
            gens.append([blocks[v // size] * size + (v + shift[v // size]) % size
                         for v in range(n)])
    else:
        base = rng.sample(range(n), n)
        p = base
        for _ in range(rng.randint(1, 3)):
            gens.append(p)
            p = [base[v] for v in p]
    gens += [list(range(n))] * rng.randint(0, 2)
    gens += rng.sample(gens, rng.randint(0, len(gens)))
    rng.shuffle(gens)
    return gens


def test_stabilizer_chain_matches_sympy():
    # the chain against an independent Schreier-Sims: order and membership
    rng = random.Random(1970)
    members = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 14)
        gens = random_generator_set(rng, n)
        chain = StabilizerChain(n)
        for g in gens:
            chain.add_generator(np.array(g, dtype=np.int64))
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(g) for g in gens])
        assert chain.order() == group.order()
        for _ in range(6):
            if rng.random() < 0.5:
                # a product of generators, always a member
                x = list(range(n))
                for g in rng.choices(gens, k=rng.randint(1, 5)):
                    x = [g[v] for v in x]
            else:
                x = rng.sample(range(n), n)
            residue, _ = chain.sift(np.array(x, dtype=np.int64))
            member = group.contains(combinatorics.Permutation(x))
            assert np.array_equal(residue, np.arange(n)) == member
            members[member] += 1
    assert members[True] and members[False]


def test_block_chain_matches_sympy_on_failing_sets():
    # degree 15-30: many Schreier generators fail to sift, so the first
    # failing residue of a block is added and closing restarts at its level;
    # generators given in one call and one at a time build the same group
    rng = random.Random(2003)
    grew = 0
    for _ in range(100):
        n = rng.randint(15, 30)
        gens = [np.array(g, dtype=np.int64) for g in random_generator_set(rng, n)]
        group = combinatorics.PermutationGroup([combinatorics.Permutation(g) for g in gens])
        at_once, one_by_one = StabilizerChain(n), StabilizerChain(n)
        at_once.add_generator(*gens)
        for g in gens:
            one_by_one.add_generator(g)
        moved = sum(bool((g != np.arange(n)).any()) for g in gens)
        grew += len(at_once.perms) > moved
        for chain in (at_once, one_by_one):
            assert chain.order() == group.order()
            for _ in range(3):
                x = rng.sample(range(n), n)
                if rng.random() < 0.5:
                    x = list(np.arange(n))
                    for g in rng.choices(gens, k=rng.randint(1, 5)):
                        x = [int(g[v]) for v in x]
                residue, level = chain.sift(np.array(x, dtype=np.int64))
                member = group.contains(combinatorics.Permutation(x))
                assert np.array_equal(residue, np.arange(n)) == member
                assert (level == n) == member
    # the residues of failing Schreier generators were added
    assert grew
