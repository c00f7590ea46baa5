"""Independent re-checks of posr's outputs.

Witnesses and counterexamples are rebuilt here from the group's
multiplication table and their automorphisms counted with networkx's VF2
`DiGraphMatcher`; generated groups are ordered with sympy.  posr supplies
only data (group tables, registry entries, fixed digraphs), never a verdict.
Results are memoised, because every pass of a workload repeats most of them.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import DiGraphMatcher
from sympy.combinatorics import Permutation, PermutationGroup


def automorphism_count(n: int, arcs, limit: int) -> int:
    """Number of automorphisms of the digraph, counting at most limit + 1."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    count = 0
    for _ in DiGraphMatcher(g, g).isomorphisms_iter():
        count += 1
        if count > limit:
            break
    return count


def _orbit_length(point: int, arrays) -> int:
    orbit, frontier = {point}, [point]
    while frontier:
        p = frontier.pop()
        for a in arrays:
            if a[p] not in orbit:
                orbit.add(a[p])
                frontier.append(a[p])
    return len(orbit)


def generated_order(perms, bound: int) -> int:
    """Order of the group G the permutations generate, when every one of them
    lies in a group of order ``bound``.  Randomised Schreier-Sims only ever
    finds elements of G, so the product of the orbit lengths of its base
    under its strong generators is a lower bound on |G|: when that reaches
    ``bound`` it is exact.  Otherwise the deterministic ``order()`` decides.
    The shortcut matters on S_24: ``order()`` takes about 1.25 s per call
    there against 0.1 s (2-vCPU Xeon VM, sympy 1.14), and the check runs once
    per pass."""
    group = PermutationGroup(perms)
    try:
        base, strong = group.schreier_sims_random(consec_succ=10)
    except IndexError:  # sympy's randomised version fails on some one-point bases
        return group.order()
    arrays = [g.array_form for g in strong]
    lower = 1
    for i, point in enumerate(base):
        lower *= _orbit_length(point, [a for a in arrays
                                       if all(a[b] == b for b in base[:i])])
    return bound if lower == bound else group.order()


def _degree_problem(n: int, arcs, k: int, oriented: bool) -> str | None:
    arc_set = set(arcs)
    if len(arc_set) != len(arcs):
        return "repeated arc"
    if any(u == v for u, v in arcs):
        return "loop"
    out_deg, in_deg = [0] * n, [0] * n
    for u, v in arcs:
        out_deg[u] += 1
        in_deg[v] += 1
    if out_deg != [k] * n or in_deg != [k] * n:
        return f"not {k}-regular"
    if oriented and any((v, u) in arc_set for u, v in arcs):
        return "digon in an oriented witness"
    return None


class Oracle:
    def __init__(self):
        self._memo: dict = {}

    def _memoised(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def rigid_digraph(self, n: int, arcs, k: int, oriented: bool) -> str | None:
        """Problem with a claimed k-regular digraph with trivial Aut, or None."""
        arcs = sorted((int(u), int(v)) for u, v in arcs)

        def compute():
            problem = _degree_problem(n, arcs, k, oriented)
            if problem:
                return problem
            count = automorphism_count(n, arcs, 1)
            return None if count == 1 else f"{count} automorphisms, expected 1"

        return self._memoised(("rigid", n, tuple(arcs), k, oriented), compute)

    def representation(self, mult: np.ndarray, sets, kind: str) -> str | None:
        """Problem with a claimed valency-3 m-POSR / m-PDR, or None.

        ``sets`` is the m x m array of element indices; vertex (i, h) is
        i * |G| + h and T[i][j] gives the arcs (i, h) -> (j, t h).
        """
        order = len(mult)
        cells = tuple(tuple(tuple(sorted(int(e) for e in cell)) for cell in row)
                      for row in sets)

        def compute():
            m = len(cells)
            if any(len(row) != m for row in cells):
                return "sets are not an m x m array"
            if any(cells[i][i] for i in range(m)):
                return "not partite"
            sizes = [[len(c) for c in row] for row in cells]
            if any(sum(row) != 3 for row in sizes) or any(
                sum(sizes[i][j] for i in range(m)) != 3 for j in range(m)
            ):
                return "size matrix is not 3-regular"
            identity = next(e for e in range(order)
                            if np.array_equal(mult[e], np.arange(order)))
            inverse = [int(np.nonzero(mult[a] == identity)[0][0]) for a in range(order)]
            if kind == "POSR" and any(
                inverse[t] in cells[i][j]
                for i in range(m) for j in range(m) for t in cells[j][i]
            ):
                return "not oriented"
            arcs = [(i * order + h, j * order + int(mult[t, h]))
                    for i in range(m) for j in range(m)
                    for t in cells[i][j] for h in range(order)]
            count = automorphism_count(m * order, arcs, order)
            return None if count == order else f"{count} automorphisms, expected {order}"

        return self._memoised(("rep", mult.tobytes(), cells, kind), compute)

    @staticmethod
    def automorphism_group(n: int, arcs, generators, order: int, expected: int) -> str | None:
        """Problem with a reported Aut(d), or None: the order must equal the
        closed form, every generator must preserve the arcs, and the
        generators must generate a group of exactly that order."""
        if order != expected:
            return f"order {order}, expected {expected}"
        arc_set = set(arcs)
        perms = []
        for gen in generators:
            if sorted(gen) != list(range(n)):
                return "generator is not a permutation"
            if any((gen[u], gen[v]) not in arc_set for u, v in arcs):
                return "generator is not an automorphism"
            perms.append(Permutation(gen))
        generated = generated_order(perms, expected) if perms else 1
        if generated != expected:
            return f"generators give order {generated}, expected {expected}"
        return None
