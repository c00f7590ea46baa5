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


def degrees(d: Digraph) -> tuple[list[int], list[int]]:
    """Out- and in-degree of every vertex, counted arc by arc."""
    out, inn = [0] * d.n, [0] * d.n
    for u, v in d.arcs():
        out[u] += 1
        inn[v] += 1
    return out, inn


def digons(d: Digraph) -> list[tuple[int, int]]:
    """The vertex pairs u < v joined by arcs both ways."""
    arcs = arc_set(d)
    return sorted((u, v) for u, v in arcs if u < v and (v, u) in arcs)


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
    color = coloring.color.tolist()
    # each vertex's out- and in-neighbour colors; sorted, they are its
    # color counts as a multiset
    out_colors: list[list[int]] = [[] for _ in range(d.n)]
    in_colors: list[list[int]] = [[] for _ in range(d.n)]
    for u, w in d.arcs():
        out_colors[u].append(color[w])
        in_colors[w].append(color[u])
    sig = {}
    for v in range(d.n):
        out_counts, in_counts = sorted(out_colors[v]), sorted(in_colors[v])
        c = color[v]
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
