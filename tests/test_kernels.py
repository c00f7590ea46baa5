"""Kernels: the splitter-queue refinement must give its reference loop's
partition, numbered independently of vertex labels, the rigidity test must
agree with the brute-force automorphism oracle, and the
regular-digraph search keeps its pinned node counts and witnesses."""

from __future__ import annotations

import random

import numpy as np
import pytest

from posr import kernels
from posr.autgroup import Coloring
from posr.cayley import Digraph

from oracles import brute_force_automorphisms, is_equitable, relabel


def random_digraph(rng, n, density):
    arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
    return Digraph(n, arcs)


def reference_refine_partition(n, out_flat, out_off, in_flat, in_off, colors0):
    """An interpreted refinement loop that recounts every vertex against
    every color on each pass, kept as the oracle of ``refine_partition``."""
    colors = colors0.astype(np.int64).copy()
    order = np.empty(n, dtype=np.int64)
    new_colors = np.empty(n, dtype=np.int64)
    while True:
        k = 0
        for v in range(n):
            if colors[v] + 1 > k:
                k = colors[v] + 1
        sig = np.zeros((n, 2 * k), dtype=np.int64)
        for v in range(n):
            for p in range(out_off[v], out_off[v + 1]):
                sig[v, colors[out_flat[p]]] += 1
            for p in range(in_off[v], in_off[v + 1]):
                sig[v, k + colors[in_flat[p]]] += 1
        # stable counting sort by color, then insertion sort each class by row
        counts = np.zeros(k + 1, dtype=np.int64)
        for v in range(n):
            counts[colors[v] + 1] += 1
        for c in range(k):
            counts[c + 1] += counts[c]
        pos = counts.copy()
        for v in range(n):
            order[pos[colors[v]]] = v
            pos[colors[v]] += 1
        for c in range(k):
            lo, hi = counts[c], counts[c + 1]
            for i in range(lo + 1, hi):
                v = order[i]
                j = i - 1
                while j >= lo:
                    u = order[j]
                    greater = False
                    for col in range(2 * k):
                        if sig[u, col] != sig[v, col]:
                            greater = sig[u, col] > sig[v, col]
                            break
                    if not greater:
                        break
                    order[j + 1] = u
                    j -= 1
                order[j + 1] = v
        # dense rank over the sorted sequence
        rank = 0
        new_colors[order[0]] = 0
        for i in range(1, n):
            u, v = order[i - 1], order[i]
            differs = colors[u] != colors[v]
            if not differs:
                for col in range(2 * k):
                    if sig[u, col] != sig[v, col]:
                        differs = True
                        break
            if differs:
                rank += 1
            new_colors[v] = rank
        if rank + 1 == k:
            return new_colors.copy()
        colors[:] = new_colors


def random_coloring(rng, n):
    """A coloring of n vertices with classes numbered densely from 0."""
    classes = rng.randint(1, 5)
    raw = np.array([rng.randrange(classes) for _ in range(n)])
    return np.unique(raw, return_inverse=True)[1].reshape(-1).astype(np.int64)


def same_partition(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def refine(d, colors, splitters=None):
    got = kernels.refine_partition(d.n, *d.csr(), colors, splitters)
    assert got.dtype == np.int64
    assert is_equitable(d, Coloring(got, int(got.max()) + 1))
    return got


def assert_relabelling_invariant(rng, d, colors, splitters, got):
    # refine(pi(d), pi(c)) == pi(refine(d, c)), where vertex u becomes perm[u]
    perm = list(range(d.n))
    rng.shuffle(perm)
    moved = np.empty_like(colors)
    moved[perm] = colors
    want = np.empty_like(got)
    want[perm] = got
    assert np.array_equal(refine(relabel(d, perm), moved, splitters), want)


def assert_refines_like_reference(rng, d, colors):
    """The reference's partition, relabelling-invariant numbering, and from
    the result with one vertex individualized, a call that refines from the
    new color only gives the full call's partition."""
    got = refine(d, colors)
    assert same_partition(got, reference_refine_partition(d.n, *d.csr(), colors))
    assert_relabelling_invariant(rng, d, colors, None, got)
    k = int(got.max()) + 1
    shared = [v for v in range(d.n) if np.count_nonzero(got == got[v]) > 1]
    if not shared:
        return
    individualized = got.copy()
    individualized[rng.choice(shared)] = k
    one = refine(d, individualized, [k])
    assert same_partition(one, refine(d, individualized))
    assert same_partition(one, reference_refine_partition(d.n, *d.csr(), individualized))
    assert_relabelling_invariant(rng, d, individualized, [k], one)


def test_refine_matches_reference_on_random_digraphs():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 40)
        d = random_digraph(rng, n, 0.4 * rng.random())
        assert_refines_like_reference(rng, d, np.zeros(n, dtype=np.int64))
        assert_refines_like_reference(rng, d, random_coloring(rng, n))


def test_refine_matches_reference_on_directed_cycles():
    rng = random.Random(13)
    for n in (1, 2, 7, 40, 150):
        d = Digraph(n, [(v, (v + 1) % n) for v in range(n)])
        assert_refines_like_reference(rng, d, np.zeros(n, dtype=np.int64))
        individualized = np.zeros(n, dtype=np.int64)
        individualized[n // 2] = 1 if n > 1 else 0
        assert_refines_like_reference(rng, d, individualized)


def test_refine_skipped_colors():
    # an unused color number must not end refinement early: [2, 2, 2, 2]
    # refines like the uniform coloring to an equitable coloring
    d = Digraph(4, [(0, 3), (1, 2), (2, 0), (3, 2)])
    for colors in ([2, 2, 2, 2], [0, 5, 5, 0]):
        colors = np.array(colors, dtype=np.int64)
        dense = np.unique(colors, return_inverse=True)[1].reshape(-1)
        got = kernels.refine_partition(4, *d.csr(), colors)
        assert np.array_equal(got, kernels.refine_partition(4, *d.csr(), dense))
        assert is_equitable(d, Coloring(got, int(got.max()) + 1))


def test_refine_empty_digraph():
    d = Digraph(0, [])
    out = kernels.refine_partition(0, *d.csr(), np.zeros(0, dtype=np.int64))
    assert out.shape == (0,)


def test_rigidity_matches_brute_force():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 7)
        masks = np.zeros(n, dtype=np.int64)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    masks[u] |= np.int64(1) << v
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if (int(masks[u]) >> v) & 1])
        assert kernels.has_nontrivial_automorphism(n, masks) == \
            (len(brute_force_automorphisms(d)) > 1)


def test_count_combinations():
    assert kernels.count_combinations(6, 3) == 20
    assert kernels.count_combinations(5, 0) == 1
    assert kernels.count_combinations(3, 5) == 0


def test_chunked_search_covers_everything():
    # the union of single-rank chunks must examine exactly the full count
    m, k = 6, 3
    total = kernels.count_combinations(m - 1, k)
    full = kernels.regular_digraph_search(m, k, 1, 0, total, 10**9)
    parts = sum(
        int(kernels.regular_digraph_search(m, k, 1, c, c + 1, 10**9)[1])
        for c in range(total)
    )
    assert full[0] == 0
    assert parts == int(full[1])


@pytest.mark.parametrize("m, k, oriented, budget, aborted, status, examined, witness", [
    (5, 2, 1, 27, 4, 0, 4, None),
    (6, 3, 0, 33, 8, 1, 9, [14, 13, 49, 52, 35, 26]),
    (7, 3, 1, 981, 132, 0, 132, None),
    (8, 3, 1, 59, 2, 1, 3, [14, 28, 56, 208, 224, 67, 131, 37]),
    (7, 3, 0, 34, 6, 1, 7, [14, 13, 19, 97, 98, 84, 56]),
])
def test_regular_search_pinned(m, k, oriented, budget, aborted, status, examined, witness):
    # ``budget`` is the smallest node budget that does not abort: one less
    # aborts with the examined count so far, and neither run's node count or
    # witness may move
    total = kernels.count_combinations(m - 1, k)
    got = kernels.regular_digraph_search(m, k, oriented, 0, total, budget - 1)
    assert (got[0], got[1]) == (-1, aborted)
    assert got[2].dtype == np.int64 and not got[2].any()
    got = kernels.regular_digraph_search(m, k, oriented, 0, total, budget)
    assert (got[0], got[1]) == (status, examined)
    assert got[2].dtype == np.int64
    assert got[2].tolist() == (witness or [0] * m)
