"""Digraph automorphism groups from scratch.

The solver is classic individualization-refinement: refine a uniform
coloring to its coarsest equitable refinement, branch on the first smallest
non-singleton color class, and compare each discrete leaf against the first
one.  The initial coloring is always uniform: part information is never
seeded, the solver has to rediscover that automorphisms preserve parts.

Exact group orders come from a deterministic Schreier-Sims stabilizer
chain over the returned generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import kernels
from .cayley import Digraph, PartitionedDigraph, is_digraph_automorphism, right_translations
from .errors import BudgetExceeded, TooLarge
from .groups import GroupTable

DEFAULT_NODE_BUDGET = 100_000_000


@dataclass
class Coloring:
    color: np.ndarray
    num_colors: int
    equitable: bool = False

    @staticmethod
    def uniform(n: int) -> "Coloring":
        return Coloring(np.zeros(n, dtype=np.int64), 1, False)


def equitable_refine(d: Digraph, initial: Coloring) -> Coloring:
    """Coarsest equitable refinement of ``initial`` w.r.t. out- and
    in-color-degrees, with deterministic color numbering."""
    of, oo, inf_, io_ = d.csr()
    colors = kernels.refine_partition(d.n, of, oo, inf_, io_, initial.color)
    return Coloring(colors, int(colors.max()) + 1 if d.n else 0, True)


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


@dataclass
class AutGroupResult:
    generators: list
    order: int
    base: list

    def contains_permutation(self, perm) -> bool:
        chain = StabilizerChain(len(perm))
        for g in self.generators:
            chain.add_generator(np.asarray(g, dtype=np.int64))
        residue, _ = chain.sift(np.asarray(perm, dtype=np.int64))
        return bool(np.array_equal(residue, np.arange(len(perm))))


@dataclass
class RepVerdict:
    is_representation: bool
    aut_order: int
    witness_extra_automorphism: np.ndarray | None = None


class _SearchState:
    __slots__ = ("d", "n", "first_leaf", "trace", "gens", "parent", "nodes",
                 "budget", "stop_after_first", "trace_cb")

    def __init__(self, d: Digraph, budget: int, stop_after_first: bool, trace_cb=None):
        self.d = d
        self.n = d.n
        self.first_leaf = None
        self.trace: dict[int, tuple] = {}
        self.gens: list[np.ndarray] = []
        self.parent = np.arange(d.n)
        self.nodes = 0
        self.budget = budget
        self.stop_after_first = stop_after_first
        self.trace_cb = trace_cb

    # union-find over vertex orbits of found generators
    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return int(v)

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def _record(self, perm: np.ndarray) -> None:
        self.gens.append(perm)
        for v in range(self.n):
            self._union(v, int(perm[v]))


def _class_sizes(colors: np.ndarray, num_colors: int) -> tuple:
    return tuple(np.bincount(colors, minlength=num_colors).tolist())


def _target_cell(colors: np.ndarray, num_colors: int) -> int:
    sizes = np.bincount(colors, minlength=num_colors)
    best = -1
    for c in range(num_colors):
        if sizes[c] >= 2 and (best < 0 or sizes[c] < sizes[best]):
            best = c
    return best


def _individualize(colors: np.ndarray, num_colors: int, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = num_colors
    return out


def _search(state: _SearchState, colors: np.ndarray, num_colors: int, depth: int) -> bool:
    """Returns True when the search should stop early."""
    state.nodes += 1
    if state.nodes > state.budget:
        raise BudgetExceeded(f"automorphism search exceeded {state.budget} nodes")
    inv = (num_colors, _class_sizes(colors, num_colors))
    if state.trace_cb is not None:
        state.trace_cb(depth, inv)
    if state.first_leaf is None:
        state.trace[depth] = inv
    elif state.trace.get(depth) != inv:
        return False  # node invariant mismatch with the first path
    if num_colors == state.n:
        if state.first_leaf is None:
            state.first_leaf = colors.copy()
            return False
        # candidate: map vertex with color c in the first leaf to the vertex
        # with color c here
        perm = np.empty(state.n, dtype=np.int64)
        pos_here = np.empty(state.n, dtype=np.int64)
        pos_here[colors] = np.arange(state.n)
        perm[:] = pos_here[state.first_leaf]
        if not np.array_equal(perm, np.arange(state.n)) and is_digraph_automorphism(state.d, perm):
            state._record(perm)
            if state.stop_after_first:
                return True
        return False
    cell = _target_cell(colors, num_colors)
    members = np.nonzero(colors == cell)[0]
    processed: list[int] = []
    on_first_path = state.first_leaf is None
    gens_before = len(state.gens)
    for v in members:
        v = int(v)
        if depth == 0 and any(state._find(v) == state._find(u) for u in processed):
            continue
        child = kernels.refine_partition(
            state.d.n, *state.d.csr(), _individualize(colors, num_colors, v)
        )
        if _search(state, child, int(child.max()) + 1, depth + 1):
            return True
        if not on_first_path and len(state.gens) > gens_before:
            # off the first path an automorphism maps this subtree onto an
            # explored one, so backjump to the deepest first-path ancestor
            return False
        processed.append(v)
    return False


def automorphism_group(
    d: Digraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    trace_cb=None,
) -> AutGroupResult:
    """Generators and exact order of Aut(d), starting from a uniform coloring."""
    if d.n == 0:
        return AutGroupResult([], 1, [])
    state = _SearchState(d, node_budget, stop_after_first=False, trace_cb=trace_cb)
    root = equitable_refine(d, Coloring.uniform(d.n))
    _search(state, root.color, root.num_colors, 0)
    chain = StabilizerChain(d.n)
    for g in state.gens:
        chain.add_generator(g)
    return AutGroupResult(state.gens, chain.order(), chain.base())


def find_nontrivial_automorphism(
    d: Digraph,
    fix: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> np.ndarray | None:
    """First non-identity automorphism found (optionally one fixing ``fix``),
    or None if the group (resp. the stabilizer of ``fix``) is trivial."""
    if d.n == 0:
        return None
    state = _SearchState(d, node_budget, stop_after_first=True)
    colors = Coloring.uniform(d.n).color
    num = 1
    if fix is not None:
        colors = _individualize(colors, num, fix)
        num += 1
    colors = kernels.refine_partition(d.n, *d.csr(), colors)
    _search(state, colors, int(colors.max()) + 1, 0)
    return state.gens[0] if state.gens else None


def brute_force_automorphisms(d: Digraph) -> list[np.ndarray]:
    """All automorphisms by filtering the n! permutations; oracle, n <= 10."""
    if d.n > 10:
        raise TooLarge("brute force limited to 10 vertices")
    arcs = d.arc_set()
    out = []
    for p in permutations(range(d.n)):
        if all((p[u], p[v]) in arcs for u, v in arcs):
            # arc count is preserved by bijections, so one direction suffices
            out.append(np.array(p, dtype=np.int64))
    return out


def is_semiregular_rep(pd: PartitionedDigraph, g: GroupTable,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> RepVerdict:
    """Does Aut of the built digraph equal the right-translation copy of G?"""
    res = automorphism_group(pd.digraph, node_budget=node_budget)
    if res.order == g.order:
        return RepVerdict(True, res.order)
    witness = None
    translations = {t.tobytes() for t in right_translations(g, pd.m)}
    for gen in res.generators:
        if gen.astype(np.int64).tobytes() not in translations:
            witness = gen
            break
    return RepVerdict(False, res.order, witness)


def is_semiregular_rep_shortcut(pd: PartitionedDigraph, g: GroupTable,
                                node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Equivalent check: trivial stabilizer of vertex 0 and orbit = part 0."""
    d = pd.digraph
    if find_nontrivial_automorphism(d, fix=0, node_budget=node_budget) is not None:
        return False
    res = automorphism_group(d, node_budget=node_budget)
    orbit = _orbit_of(res.generators, 0, d.n)
    return orbit == set(range(g.order))


def _orbit_of(gens, v: int, n: int) -> set[int]:
    orbit = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for p in gens:
            w = int(p[u])
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def are_isomorphic(d1: Digraph, d2: Digraph,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Arc-preserving bijection existence, by backtracking over images with
    refinement-based invariant prechecks."""
    if d1.n != d2.n or d1.n_arcs != d2.n_arcs:
        return False
    n = d1.n
    if n == 0:
        return True
    c1 = equitable_refine(d1, Coloring.uniform(n))
    c2 = equitable_refine(d2, Coloring.uniform(n))
    if c1.num_colors != c2.num_colors:
        return False
    if _class_sizes(c1.color, c1.num_colors) != _class_sizes(c2.color, c2.num_colors):
        return False
    # order d1's vertices most-constrained first: by color class size, then color
    sizes = np.bincount(c1.color, minlength=c1.num_colors)
    verts = sorted(range(n), key=lambda v: (sizes[c1.color[v]], c1.color[v], v))
    arcs1 = d1.arc_set()
    arcs2 = d2.arc_set()
    img = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    nodes = 0

    def backtrack(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded("isomorphism search exceeded node budget")
        if i == n:
            return True
        v = verts[i]
        for w in range(n):
            if used[w] or c2.color[w] != c1.color[v]:
                continue
            ok = True
            for j in range(i):
                u = verts[j]
                if ((u, v) in arcs1) != ((int(img[u]), w) in arcs2):
                    ok = False
                    break
                if ((v, u) in arcs1) != ((w, int(img[u])) in arcs2):
                    ok = False
                    break
            if ok:
                img[v] = w
                used[w] = True
                if backtrack(i + 1):
                    return True
                used[w] = False
                img[v] = -1
        return False

    return backtrack(0)


# ---------------------------------------------------------------------------
# Schreier-Sims
# ---------------------------------------------------------------------------

class StabilizerChain:
    """Deterministic incremental Schreier-Sims with base points in ascending
    vertex order restricted to non-fixed points."""

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int64)
        # base is the full ascending vertex sequence 0..degree-1; levels whose
        # stabilizer fixes the point keep a singleton transversal and are
        # omitted from base()
        self.gens: list[list[np.ndarray]] = [[] for _ in range(degree)]
        self.transversals: list[dict[int, np.ndarray]] = [
            {b: self.identity} for b in range(degree)
        ]

    def base(self) -> list[int]:
        return [b for b in range(self.degree) if len(self.transversals[b]) > 1]

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def sift(self, perm: np.ndarray, start: int = 0):
        """Reduce ``perm`` through the chain; returns (residue, level)."""
        p = perm
        for b in range(start, self.degree):
            img = int(p[b])
            rep = self.transversals[b].get(img)
            if rep is None:
                return p, b
            # compose: rep_inv applied after p
            rep_inv = np.empty(self.degree, dtype=np.int64)
            rep_inv[rep] = self.identity
            p = rep_inv[p]
        return p, self.degree

    def add_generator(self, perm: np.ndarray) -> None:
        perm = np.asarray(perm, dtype=np.int64)
        residue, level = self.sift(perm)
        if level == self.degree:
            return  # residue fixes every base point, hence is the identity
        # the residue fixes 0..level-1, so it generates at every level <= level
        for b in range(level + 1):
            self.gens[b].append(residue)
        self._close(level)

    def _close(self, start: int) -> None:
        """Restore the chain invariant from ``start`` back up to level 0:
        at each level the transversal spans the orbit of the base point under
        that level's generators, and every Schreier generator sifts to the
        identity through the deeper levels."""
        level = start
        while level >= 0:
            transversal = self.transversals[level]
            frontier = sorted(transversal)
            dirty = False
            while frontier and not dirty:
                pt = frontier.pop(0)
                rep = transversal[pt]
                for g in self.gens[level]:
                    img = int(g[pt])
                    comp = g[rep]  # apply rep, then g
                    if img not in transversal:
                        transversal[img] = comp
                        frontier.append(img)
                        continue
                    # Schreier generator: transversal[img]^-1 after comp
                    t_inv = np.empty(self.degree, dtype=np.int64)
                    t_inv[transversal[img]] = self.identity
                    s = t_inv[comp]
                    residue, lev = self.sift(s, start=level)
                    if lev < self.degree:
                        for b in range(level + 1, lev + 1):
                            self.gens[b].append(residue)
                        dirty = True
                        level = lev
                        break
            if not dirty:
                level -= 1


def group_order_from_generators(gens, degree: int) -> int:
    """Exact order of the permutation group generated by ``gens``."""
    chain = StabilizerChain(degree)
    for g in gens:
        chain.add_generator(np.asarray(g, dtype=np.int64))
    return chain.order()
