"""Digraph automorphism groups from scratch.

The solver is classic individualization-refinement: refine a uniform
coloring to its coarsest equitable refinement, branch on the first smallest
non-singleton color class, and compare each discrete leaf against the first
one.  A node's coloring is equitable, so a child, the node's coloring with
one vertex moved to the new color ``num_colors``, is refined from that
singleton only (``kernels.refine_partition`` with ``splitters``); the
numbering is still a function of the digraph and the coloring, so leaves
and node invariants compare across branches.  The initial coloring is
always uniform: part information is never seeded as colors, the solver has
to rediscover that automorphisms preserve parts.

Every node of the first path prunes its children by known orbits (McKay
1981): a child in the orbit of an explored sibling is skipped.  Search is
depth first, so each automorphism found before a first-path node finishes
comes from that node's subtree and fixes its individualized prefix; their
orbits are valid there.  At depth 0 the prefix is empty, so orbits of a
known subgroup may be seeded too.

``automorphism_group`` searches from scratch and takes exact group orders
from a deterministic Schreier-Sims stabilizer chain over the generators it
returns, which tests each Schreier generator once.  It checks that order
against a second one, the product over the first path of each individualized
vertex's orbit size under the generators that fix the vertices before it.
``aut_is_translations`` decides whether a Cayley digraph is a representation
with one pass instead: it seeds the known orbits of the right translations
R(G) (the parts) into the depth-0 orbit pruning and stops at the first
automorphism found, which necessarily lies outside R(G).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import kernels
from .cayley import Digraph, PartitionedDigraph, is_digraph_automorphism, right_translations
from .errors import BudgetExceeded, GroupOrderMismatch, InvalidParameter
from .groups import GroupTable

DEFAULT_NODE_BUDGET = 100_000_000


@dataclass
class Coloring:
    color: np.ndarray
    num_colors: int

    @staticmethod
    def uniform(n: int) -> "Coloring":
        return Coloring(np.zeros(n, dtype=np.int64), 1)


def equitable_refine(d: Digraph, initial: Coloring) -> Coloring:
    """Coarsest equitable refinement of ``initial`` w.r.t. out- and
    in-color-degrees, with deterministic color numbering."""
    of, oo, inf_, io_ = d.csr()
    colors = kernels.refine_partition(d.n, of, oo, inf_, io_, initial.color)
    return Coloring(colors, int(colors.max()) + 1 if d.n else 0)


@dataclass
class AutGroupResult:
    generators: list
    order: int
    base: list


@dataclass
class RepVerdict:
    is_representation: bool
    aut_order: int
    witness_extra_automorphism: np.ndarray | None = None


class _Orbits:
    """Union-find over vertices; the root of each orbit is its least vertex
    and holds the orbit's size.  Starts with each block
    ``[i*block, (i+1)*block)`` as one orbit."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int, block: int = 1):
        self.parent = (np.arange(n) // block * block).tolist()
        self.size = [block] * n  # read at roots only

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(self, perm: np.ndarray) -> None:
        """Join the orbits that ``perm`` maps onto each other."""
        for v, w in enumerate(perm.tolist()):
            a, b = self.find(v), self.find(w)
            if a != b:
                lo, hi = min(a, b), max(a, b)
                self.parent[hi] = lo
                self.size[lo] += self.size[hi]


class _SearchState:
    __slots__ = ("d", "n", "first_leaf", "trace", "gens", "orbits", "seeded",
                 "orbit_sizes", "nodes", "budget", "stop_after_first")

    def __init__(self, d: Digraph, budget: int, stop_after_first: bool, part_size: int = 1):
        self.d = d
        self.n = d.n
        self.first_leaf = None
        self.trace: dict[int, tuple] = {}
        self.gens: list[np.ndarray] = []
        # orbits of the found generators, which fix every first-path prefix
        # still being explored
        self.orbits = _Orbits(d.n)
        # depth 0 only: the same joined with the seeded group's orbits
        self.seeded = self.orbits if part_size == 1 else _Orbits(d.n, part_size)
        # per finished first-path node, the orbit size of its first child
        self.orbit_sizes: list[int] = []
        self.nodes = 0
        self.budget = budget
        self.stop_after_first = stop_after_first

    def _record(self, perm: np.ndarray) -> None:
        self.gens.append(perm)
        self.orbits.merge(perm)
        if self.seeded is not self.orbits:
            self.seeded.merge(perm)


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
    """Explore the node with coloring ``colors``; returns True when the search
    should stop early.

    A first-path node skips every child in the orbit of an explored sibling:
    under the seeded orbits at depth 0, deeper under the orbits of the
    generators found so far, which all fix this node's prefix.  When it
    finishes, those generators generate the prefix's pointwise stabilizer,
    and the orbit size of its first child is recorded."""
    state.nodes += 1
    if state.nodes > state.budget:
        raise BudgetExceeded(f"automorphism search exceeded {state.budget} nodes")
    inv = (num_colors, _class_sizes(colors, num_colors))
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
            if state.stop_after_first:
                state.gens.append(perm)
                return True
            state._record(perm)
        return False
    cell = _target_cell(colors, num_colors)
    members = np.nonzero(colors == cell)[0].tolist()
    on_first_path = state.first_leaf is None
    gens_before = len(state.gens)
    orbits = state.seeded if depth == 0 else state.orbits
    processed: list[int] = []
    roots: set[int] = set()  # orbit roots of ``processed``
    roots_gens = -1  # generator count when ``roots`` was last rebuilt
    for v in members:
        # deeper than the root only found generators can prune, so a search
        # that has found none does no orbit work there
        if on_first_path and (depth == 0 or state.gens):
            if roots_gens != len(state.gens):
                roots = {orbits.find(u) for u in processed}
                roots_gens = len(state.gens)
            if orbits.find(v) in roots:
                continue
        child = kernels.refine_partition(
            state.d.n, *state.d.csr(), _individualize(colors, num_colors, v), [num_colors]
        )
        if _search(state, child, int(child.max()) + 1, depth + 1):
            return True
        if on_first_path:
            processed.append(v)
            roots.add(orbits.find(v))
        elif len(state.gens) > gens_before:
            # off the first path an automorphism maps this subtree onto an
            # explored one, so backjump to the deepest first-path ancestor
            return False
    if on_first_path:
        # the generators found so far generate the stabilizer of this node's
        # prefix, so this is the index of the next stabilizer in it
        state.orbit_sizes.append(state.orbits.size[state.orbits.find(members[0])])
    return False


def automorphism_group(
    d: Digraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> AutGroupResult:
    """Generators and exact order of Aut(d), starting from a uniform coloring."""
    if d.n == 0:
        return AutGroupResult([], 1, [])
    state = _SearchState(d, node_budget, stop_after_first=False)
    root = equitable_refine(d, Coloring.uniform(d.n))
    _search(state, root.color, root.num_colors, 0)
    chain = StabilizerChain(d.n)
    for g in state.gens:
        chain.add_generator(g)
    order = chain.order()
    if prod(state.orbit_sizes) != order:
        raise GroupOrderMismatch(
            f"Schreier-Sims order {order} != first-path orbit product "
            f"{prod(state.orbit_sizes)} on {d.n} vertices")
    return AutGroupResult(state.gens, order, chain.base())


def find_nontrivial_automorphism(
    d: Digraph,
    part_size: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> np.ndarray | None:
    """First automorphism found outside a known semiregular subgroup H of
    Aut(d), or None if Aut(d) = H.

    H is given by its orbits, the blocks ``[i*part_size, (i+1)*part_size)``:
    it must act regularly on each block (as R(G) does on the parts of a
    built Cayley digraph, with ``part_size = |G|``).  The default
    ``part_size = 1`` is the trivial group, so the result is any non-identity
    automorphism, or None if Aut(d) is trivial.

    One search suffices.  Let v be the first-path vertex at depth 0.  Only H
    is known, so depth 0 explores one vertex per block of v's cell (each cell
    is Aut-invariant, hence a union of blocks).  An automorphism found under
    v fixes v; one found under another block's vertex moves v to another
    block; H contains neither.  Conversely, if Aut(d) != H then either the
    stabilizer of v is nontrivial (the first-path subtree finds it), or some
    automorphism moves v to another block, and composing it with an element
    of H makes that block's explored vertex the image of v."""
    if part_size < 1 or d.n % part_size:
        raise InvalidParameter(f"part size {part_size} does not divide {d.n} vertices")
    if d.n == 0:
        return None
    state = _SearchState(d, node_budget, stop_after_first=True, part_size=part_size)
    root = equitable_refine(d, Coloring.uniform(d.n))
    _search(state, root.color, root.num_colors, 0)
    return state.gens[0] if state.gens else None


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


def aut_is_translations(pd: PartitionedDigraph,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Same verdict as ``is_semiregular_rep(pd, g).is_representation`` for a
    digraph built by ``build_cayley``, from one seeded search pass: R(G)'s
    orbits are the parts, so Aut = R(G) iff no automorphism lies outside it."""
    return find_nontrivial_automorphism(
        pd.digraph, part_size=pd.group_order, node_budget=node_budget) is None


# ---------------------------------------------------------------------------
# Schreier-Sims
# ---------------------------------------------------------------------------

class StabilizerChain:
    """Deterministic incremental Schreier-Sims (Sims 1970) with base points
    in ascending vertex order restricted to non-fixed points.

    Each Schreier generator is sifted once.  Transversal representatives are
    never replaced and generator lists only grow, so a (level, point,
    generator) triple always names the same Schreier generator; once it has
    sifted through the deeper levels it stays in their group, which only
    grows.  Each level therefore counts, per orbit point, how many of its
    generators that point has been tested against, and a return to the level
    tests only the new pairs."""

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
        # the inverse of each transversal representative, stored on entry
        self.inverses: list[dict[int, np.ndarray]] = [
            {b: self.identity} for b in range(degree)
        ]
        # per level, the orbit points in the order they entered the
        # transversal, and how many of the level's generators each has met
        self.points: list[list[int]] = [[b] for b in range(degree)]
        self.tested: list[list[int]] = [[0] for _ in range(degree)]

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
        b = start
        identity = self.identity
        while b < self.degree:
            # a level whose point p fixes has the identity as representative;
            # argmax is the first moved point, or 0 when p fixes all of b..
            b += int((p[b:] != identity[b:]).argmax())
            img = int(p[b])
            if img == b:
                break
            rep_inv = self.inverses[b].get(img)
            if rep_inv is None:
                return p, b
            p = rep_inv[p]  # rep^-1 applied after p
            b += 1
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
        identity through the deeper levels.  A pair (point, generator) is
        tested once, when the generator is new to the point."""
        level = start
        while level >= 0:
            transversal = self.transversals[level]
            inverses = self.inverses[level]
            points = self.points[level]
            tested = self.tested[level]
            gens = self.gens[level]
            deeper = -1  # the level a residue was added down to
            i = 0
            while i < len(points) and deeper < 0:
                pt = points[i]
                rep = transversal[pt]
                while tested[i] < len(gens) and deeper < 0:
                    g = gens[tested[i]]
                    tested[i] += 1
                    img = int(g[pt])
                    comp = g[rep]  # apply rep, then g
                    if img not in transversal:
                        transversal[img] = comp
                        inverses[img] = np.empty_like(comp)
                        inverses[img][comp] = self.identity
                        points.append(img)
                        tested.append(0)
                        continue
                    # Schreier generator: transversal[img]^-1 after comp
                    s = comp if img == level else inverses[img][comp]
                    residue, lev = self.sift(s, start=level)
                    if lev < self.degree:
                        for b in range(level + 1, lev + 1):
                            self.gens[b].append(residue)
                        deeper = lev
                i += 1
            level = deeper if deeper >= 0 else level - 1
