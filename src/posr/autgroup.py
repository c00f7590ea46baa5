"""Digraph automorphism groups from scratch.

The solver is classic individualization-refinement: refine a uniform
coloring to its coarsest equitable refinement, branch on the first smallest
non-singleton color class, and follow the first child down to a discrete
leaf, the first path.  A node's coloring is equitable, so a child, the
node's coloring with one vertex moved to the new color ``num_colors``, is
refined from that singleton only (``kernels.refine_partition`` with
``splitters``); the numbering is still a function of the digraph and the
coloring, so colorings and node invariants compare across branches.  The
initial coloring is always uniform: part information is never seeded as
colors, the solver has to rediscover that automorphisms preserve parts.

Every node off the first path whose invariant matches the first path's at
its depth, a leaf or not, tries one candidate permutation (the sparse
candidate of Darga, Liffiton, Sakallah and Markov 2008): it maps each cell
of the first path's coloring at that depth onto the node's cell of the same
color, fixes the vertices whose color agrees, and matches the rest in
(color, label) order.  At a leaf it is the map from the first leaf.  An
individualized vertex is a singleton whose color is fixed by its depth, so
the candidate maps the first path's prefix onto the node's prefix; an
automorphism found at a node therefore does what one found at a leaf below
it would, and the search backjumps.  If it is not an automorphism, an inner
node descends.  On S_n-like groups the second child of each first-path node
is certified at once, so the search takes about 2n nodes instead of n²/2.

Every node of the first path prunes its children by known orbits (McKay
1981): a child in the orbit of an explored sibling is skipped.  Search is
depth first, so each automorphism found before a first-path node finishes
comes from that node's subtree and fixes its individualized prefix; their
orbits are valid there.  At depth 0 the prefix is empty, so orbits of a
known subgroup may be seeded too.

``automorphism_group`` searches from scratch and takes exact group orders
from a deterministic Schreier-Sims stabilizer chain, built from all the
generators it returns in one call: each level's Schreier generators are
formed and sifted as numpy blocks, and each is tested once.  It checks that
order against a second one, the product over the first path of each
individualized vertex's orbit size under the generators that fix the
vertices before it; that product never stops or shortens the chain.
``aut_is_translations`` decides whether a Cayley digraph is a representation
with one pass instead: it seeds the known orbits of the right translations
R(G) (the parts) into the depth-0 orbit pruning and stops at the first
automorphism found, which necessarily lies outside R(G).
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    __slots__ = ("d", "n", "first_done", "trace", "first_path", "gens", "orbits", "seeded",
                 "orbit_sizes", "nodes", "budget", "stop_after_first")

    def __init__(self, d: Digraph, budget: int, stop_after_first: bool, part_size: int = 1):
        self.d = d
        self.n = d.n
        self.first_done = False  # the first leaf has been reached
        # per depth of the first path, its node invariant and its coloring
        self.trace: list[tuple] = []
        self.first_path: list[np.ndarray] = []
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


def _target_cell(sizes: tuple) -> int:
    """The first smallest class of size >= 2: ties go to the lowest color."""
    return min((size, c) for c, size in enumerate(sizes) if size >= 2)[1]


def _individualize(colors: np.ndarray, num_colors: int, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = num_colors
    return out


def _candidate(first: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The one permutation tried at a node: it maps each cell of the first
    path's coloring ``first`` at this depth onto the cell of the same color
    in ``colors``, fixes every vertex whose color is the same in both, and
    matches the other vertices in (color, label) order.  Both colorings
    have the same class sizes, so each color has as many of those vertices
    in one coloring as in the other."""
    perm = np.arange(len(colors))
    moved = (first != colors).nonzero()[0]
    perm[moved[np.argsort(first[moved], kind="stable")]] = \
        moved[np.argsort(colors[moved], kind="stable")]
    return perm


def _search(state: _SearchState, colors: np.ndarray, num_colors: int, depth: int) -> bool:
    """Explore the node with coloring ``colors``; returns True when the search
    should stop early.

    A first-path node skips every child in the orbit of an explored sibling:
    under the seeded orbits at depth 0, deeper under the orbits of the
    generators found so far, which all fix this node's prefix.  When it
    finishes, those generators generate the prefix's pointwise stabilizer,
    and the orbit size of its first child is recorded.

    Every other node whose invariant matches the first path's at its depth
    tries one candidate (``_candidate``); if it is an automorphism it is
    recorded and the search backjumps, as from a leaf."""
    state.nodes += 1
    if state.nodes > state.budget:
        raise BudgetExceeded(f"automorphism search exceeded {state.budget} nodes")
    sizes = _class_sizes(colors, num_colors)
    inv = (num_colors, sizes)
    on_first_path = not state.first_done
    if on_first_path:
        state.trace.append(inv)
        state.first_path.append(colors)
        if num_colors == state.n:
            state.first_done = True
            return False
    elif state.trace[depth] != inv:
        return False  # node invariant mismatch with the first path
    else:
        # the node's prefix differs from the first path's, and individualized
        # vertices are singletons of equal colors, so the candidate maps one
        # prefix onto the other and is never the identity
        perm = _candidate(state.first_path[depth], colors)
        if is_digraph_automorphism(state.d, perm):
            if state.stop_after_first:
                state.gens.append(perm)
                return True
            state._record(perm)
            return False
        if num_colors == state.n:
            return False
    cell = _target_cell(sizes)
    members = np.nonzero(colors == cell)[0].tolist()
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
    chain.add_generator(*state.gens)
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

# the most entries in one block of Schreier generators, which bounds the
# temporaries of forming and sifting it
_BLOCK_ENTRIES = 1 << 14


def _after(table: np.ndarray, which: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Row r is ``perms[r]``, then ``table[which[r]]``: one flat take.
    ``perms``, a temporary of the caller's, becomes the flat index."""
    perms += (which * table.shape[1])[:, None]
    return table.reshape(-1).take(perms)


class _Level:
    """One level b of the chain: the generators of the pointwise stabilizer
    of 0..b-1 known so far, the orbit of b under them and its transversal.
    The position row and the representatives exist only once the orbit is
    nontrivial."""

    __slots__ = ("gens", "stack", "points", "index", "closed", "pending", "pos", "reps",
                 "invs")

    def __init__(self, b: int):
        self.gens: list[int] = []  # indices into the chain's generator store
        # the generators, one per row, stacked once the level has pending pairs
        self.stack: np.ndarray = np.empty((0, 0))
        self.points = [b]  # the orbit, in the order its points entered
        self.index = {b: 0}  # point -> its position in ``points``
        self.closed = 0  # the orbit is closed under gens[:closed]
        # the untested pairs whose Schreier generator is still to be formed,
        # in the order they were met: (positions in ``points``, positions in
        # ``gens``)
        self.pending: tuple[list[int], list[int]] = ([], [])
        self.pos: np.ndarray | None = None  # point -> position, -1 outside the orbit
        self.reps: np.ndarray | None = None  # representative of each point, one per row
        self.invs: np.ndarray | None = None  # and its inverse


class StabilizerChain:
    """Deterministic Schreier-Sims (Sims 1970) with base points in ascending
    vertex order restricted to non-fixed points.

    ``add_generator(*perms)`` sifts the permutations as one block, adds
    every residue that is not the identity, then closes the chain once, a
    level at a time from the deepest level it touched up to level 0.  A
    visit to a level does three things (Seress 2003, §4.2):

    1. It extends the orbit breadth first over the new (point, generator)
       pairs, in Python ints.  A new point's representative is its tree
       generator after its parent's.
    2. Every new pair that is not a tree edge becomes one row of a block,
       the Schreier generator ``inv[img][g[rep[pt]]]``.  A tree edge gives
       the identity, and so does the base point under a generator that
       fixes it (that generator is one of the next level's), so neither is
       formed.
    3. The rows are sifted together through the deeper levels, one
       vectorised step per level, in blocks of at most ``_BLOCK_ENTRIES``
       entries.

    When rows fail, only the first failing residue in row order is added,
    to the levels below this one down to its first moved point; the pairs
    up to that row count as tested, the rest stay pending, and closing
    restarts at that point's level.  Adding every failing residue instead
    adds many redundant generators.  Representatives are never replaced and
    generator lists only grow, so a pair always names the same Schreier
    generator; one that sifted to the identity lies in the deeper levels'
    group, which only grows, so it stays tested and is never formed again.
    """

    def __init__(self, degree: int):
        self.degree = degree
        # int32, the width of the stored inverses (see ``_extend_orbit``)
        self.identity = np.arange(degree, dtype=np.int32)
        self.perms: list[np.ndarray] = []  # the generator store
        self.lists: list[list[int]] = []  # the same as Python lists
        self.levels: list[_Level | None] = [None] * degree
        self.bases: list[int] = []  # the levels with a nontrivial orbit, ascending

    def base(self) -> list[int]:
        return list(self.bases)

    def order(self) -> int:
        return prod(len(lv.points) for lv in self.levels if lv is not None)

    def sift(self, perms: np.ndarray, start: int = 0):
        """Reduce a permutation, or a block of them one per row, that fixes
        0..start-1 through the levels from ``start`` on; returns (residue,
        level) of the same shape: the level is the residue's first moved
        point, or the degree when the residue is the identity, i.e. the
        permutation is in the group.

        One step per nontrivial level b reduces, together, the rows that
        move b to a point of its orbit.  A row that moves b outside the
        orbit, or moves a point whose level is trivial, is not in the group:
        it keeps that point moved through the later steps, which fix every
        point before theirs, so its residue is outside the group too."""
        rows = np.array(perms, dtype=np.int64, ndmin=2)  # a copy, reduced in place
        bases = self.bases
        for b in bases[bisect_left(bases, start):]:
            img = rows[:, b]
            moving = (img != b).nonzero()[0]
            if not len(moving):
                continue
            lv = self.levels[b]
            pos = lv.pos[img[moving]]
            inside = pos >= 0
            if not inside.all():
                moving, pos = moving[inside], pos[inside]
            rows[moving] = _after(lv.invs, pos, rows[moving])
        # the first moved point of each row; a last column of True stands for
        # the degree, which argmax finds in an identity row
        moved = np.ones((len(rows), self.degree + 1), dtype=bool)
        np.not_equal(rows, self.identity, out=moved[:, :-1])
        levels = moved.argmax(axis=1)
        if isinstance(perms, np.ndarray) and perms.ndim == 1:
            return rows[0], int(levels[0])
        return rows, levels

    def add_generator(self, *perms: np.ndarray) -> None:
        """Add generators, then close the chain once."""
        if not perms:
            return
        # the residues against the chain as the call found it: with the chain
        # they generate what the permutations do
        residues, levels = self.sift(perms)
        deepest = -1
        for residue, level in zip(residues, levels.tolist()):
            if level < self.degree:
                self._add(residue, 0, level)
                deepest = max(deepest, level)
        level = deepest
        while level >= 0:
            failed = self._visit(level)
            level = failed if failed >= 0 else level - 1

    def _add(self, perm: np.ndarray, lo: int, hi: int) -> None:
        """Store ``perm``, which fixes 0..hi-1, as a generator of levels
        lo..hi."""
        k = len(self.perms)
        self.perms.append(perm)
        self.lists.append(perm.tolist())
        for b in range(lo, hi + 1):
            if self.levels[b] is None:
                self.levels[b] = _Level(b)
            self.levels[b].gens.append(k)

    def _visit(self, level: int) -> int:
        """Test the pending Schreier generators of ``level``; returns the
        level the first failing one's residue was added down to, or -1."""
        lv = self.levels[level]
        if lv is None:
            return -1
        if lv.closed < len(lv.gens):
            self._extend_orbit(lv)
        points, gens = lv.pending
        if points and len(lv.stack) < len(lv.gens):
            lv.stack = np.array([self.perms[g] for g in lv.gens])
        chunk = max(1, _BLOCK_ENTRIES // self.degree)
        for s in range(0, len(points), chunk):
            p, j = np.array(points[s:s + chunk]), np.array(gens[s:s + chunk])
            comp = _after(lv.stack, j, lv.reps[p])  # rep, then the generator
            block = _after(lv.invs, lv.pos[comp[:, level]], comp)
            del comp  # an index now; freed before the block is sifted
            residues, levels = self.sift(block, level + 1)
            failed = levels < self.degree
            if failed.any():
                # only the first failing row's residue is added; the pairs
                # after it stay pending
                r = int(failed.argmax())
                del points[:s + r + 1], gens[:s + r + 1]
                at = int(levels[r])
                self._add(residues[r].copy(), level + 1, at)
                return at
        points.clear()
        gens.clear()
        return -1

    def _extend_orbit(self, lv: _Level) -> None:
        """Close the orbit under every generator of the level, breadth first,
        and queue each new (point, generator) pair that is not a tree edge.
        Each new point's representative is its tree generator after its
        parent's."""
        ng = len(lv.gens)
        lists = [self.lists[g] for g in lv.gens]
        points, index = lv.points, lv.index
        pending_points, pending_gens = lv.pending
        k0 = len(points)
        base = points[0]
        parent, via = [], []  # the tree edge that reached each new point
        i = 0
        while i < len(points):
            pt = points[i]
            for j in range(lv.closed if i < k0 else 0, ng):
                img = lists[j][pt]
                if img not in index:
                    index[img] = len(points)
                    points.append(img)
                    parent.append(i)
                    via.append(j)
                elif i or img != base:
                    # the base point under a generator that fixes it gives
                    # that generator, one of the next level's
                    pending_points.append(i)
                    pending_gens.append(j)
            i += 1
        lv.closed = ng
        k = len(points)
        if k == k0:
            return
        n = self.degree
        # sized once the new points are known; the inverses are only ever
        # looked up, never used as an index, so they are kept at half width
        reps = np.empty((k, n), dtype=np.int64)
        invs = np.empty((k, n), dtype=np.int32)
        if lv.reps is None:
            reps[0] = invs[0] = self.identity
            lv.pos = np.full(n, -1, dtype=np.int64)
            lv.pos[base] = 0
            insort(self.bases, base)
        else:
            reps[:k0], invs[:k0] = lv.reps, lv.invs
        lv.pos[points[k0:]] = np.arange(k0, k)
        gens = [self.perms[g] for g in lv.gens]
        for q, (i, j) in enumerate(zip(parent, via), k0):
            reps[q] = gens[j][reps[i]]
            invs[q][reps[q]] = self.identity
        lv.reps, lv.invs = reps, invs
