"""Reference implementations the tests check posr against.

Each one decides its question the slow, obvious way, independently of the
solver it checks: all n! permutations, the equitable predicate vertex by
vertex, a group order from a stabilizer chain, relations word by word.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from posr.autgroup import Coloring, StabilizerChain
from posr.cayley import Digraph
from posr.errors import TooLarge
from posr.groups import GroupTable


def arc_set(d: Digraph) -> set[tuple[int, int]]:
    return set(d.arcs())


def relabel(d: Digraph, perm: Sequence[int]) -> Digraph:
    """New digraph with vertex u renamed to perm[u]."""
    p = list(perm)
    return Digraph(d.n, [(p[u], p[v]) for u, v in d.arcs()])


def brute_force_automorphisms(d: Digraph) -> list[np.ndarray]:
    """All automorphisms by filtering the n! permutations; oracle, n <= 10."""
    if d.n > 10:
        raise TooLarge("brute force limited to 10 vertices")
    arcs = arc_set(d)
    out = []
    for p in permutations(range(d.n)):
        if all((p[u], p[v]) in arcs for u, v in arcs):
            # arc count is preserved by bijections, so one direction suffices
            out.append(np.array(p, dtype=np.int64))
    return out


def is_equitable(d: Digraph, coloring: Coloring) -> bool:
    """Direct check of the equitable predicate (test oracle)."""
    k = coloring.num_colors
    sig = {}
    for v in range(d.n):
        out_counts = tuple(np.bincount(coloring.color[d.out_adj[v]], minlength=k))
        in_counts = tuple(np.bincount(coloring.color[d.in_adj[v]], minlength=k))
        c = int(coloring.color[v])
        if c in sig and sig[c] != (out_counts, in_counts):
            return False
        sig[c] = (out_counts, in_counts)
    return True


def group_order_from_generators(gens, degree: int) -> int:
    """Exact order of the permutation group generated by ``gens``."""
    chain = StabilizerChain(degree)
    for g in gens:
        chain.add_generator(np.asarray(g, dtype=np.int64))
    return chain.order()


def check_relations(g: GroupTable, relations: Iterable[tuple]) -> bool:
    """True iff every (word, word) pair evaluates to the same element."""
    return all(
        g.evaluate_word(lhs) == g.evaluate_word(rhs)
        for lhs, rhs in relations
    )
