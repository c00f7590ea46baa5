"""The hot kernels, all interpreted.

``refine_partition`` is the equitable refinement of the automorphism
solver: a splitter-queue refinement (McKay 1981; Paige & Tarjan 1987) in
plain Python, which recounts only the arcs at the cell it refines from, so
refining an individualized vertex costs about the arcs it reaches.
``has_nontrivial_automorphism`` and ``regular_digraph_search`` decide the
rigid k-regular digraph claims: plain recursive Python over int bitmasks,
one per vertex's out-set.
"""

import math
import time
from collections import deque
from itertools import combinations, islice

import numpy as np

# name of the kernel implementation, recorded with benchmark numbers; the
# interpreted code here is the only one
BACKEND = "fallback"


def refine_partition(n, out_flat, out_off, in_flat, in_off, colors0, splitters=None):
    """Coarsest equitable refinement of a coloring, canonically numbered.

    The input colors are first renumbered densely, keeping their order.  A
    FIFO queue of splitter colors starts with
    ``splitters``, or with every color when it is None.  Refining from a
    splitter S gives each vertex with an arc to or from S the key
    out-count + (n+1) * in-count (its out-neighbors in S, its in-neighbors
    in S); every other vertex has key 0.  Each touched cell of two or more
    vertices is split, in increasing color order, into its fragments of
    equal key: the fragment with the smallest key keeps the cell's color,
    and the others take the next free colors in increasing key order.  If
    the cell was queued, every new fragment is queued; if not, every
    fragment but the largest (the first in key order among equals), since
    counts into it follow from those into the others.  Refinement stops when
    the queue is empty or every cell is a singleton.

    The numbering therefore depends only on the digraph and the input
    colors, never on vertex labels: relabelling the digraph and the coloring
    by a permutation relabels the result by the same permutation.

    Precondition on ``splitters``: every cell not listed must already have
    equal counts into it from each cell's vertices, or be what remains of
    such a cell once listed cells were taken out of it.  An equitable
    coloring with one vertex moved to the new color k meets it with
    ``splitters=[k]``, and then gives the same partition as a full call.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    color = np.asarray(colors0).tolist()
    cells = [set() for _ in range(max(color) + 1)]
    for v, c in enumerate(color):
        cells[c].add(v)
    if not all(cells):
        # unused color numbers: close the gaps, keeping the colors' order
        renumber = {}
        for c, cell in enumerate(cells):
            if cell:
                renumber[c] = len(renumber)
        color = [renumber[c] for c in color]
        cells = [cell for cell in cells if cell]
        if splitters is not None:
            splitters = [renumber[c] for c in splitters]
    outs, ins = out_flat.tolist(), in_flat.tolist()
    out_off, in_off = out_off.tolist(), in_off.tolist()
    queue = deque(range(len(cells)) if splitters is None else splitters)
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
    key = [0] * n
    n1 = n + 1
    while queue and len(cells) < n:
        s = queue.popleft()
        queued[s] = False
        touched = []
        for v in cells[s]:
            # v in S is an out-neighbor of each w in its in-list
            for w in ins[in_off[v]:in_off[v + 1]]:
                if not key[w]:
                    touched.append(w)
                key[w] += 1
            for w in outs[out_off[v]:out_off[v + 1]]:
                if not key[w]:
                    touched.append(w)
                key[w] += n1
        by_cell = {}
        for w in touched:
            by_cell.setdefault(color[w], []).append(w)
        for c in sorted(by_cell):
            cell, hit = cells[c], by_cell[c]
            if len(cell) == 1:
                continue
            fragments = {}
            for w in hit:
                fragments.setdefault(key[w], []).append(w)
            keys = sorted(fragments)
            if len(hit) < len(cell):
                # the untouched vertices have the smallest key, 0; taking the
                # others out costs only what the splitter touched
                cell.difference_update(hit)
            elif len(keys) == 1:
                continue
            else:
                cells[c] = set(fragments[keys.pop(0)])
            parts = [fragments[k] for k in keys]
            ids = [c, *range(len(cells), len(cells) + len(parts))]
            sizes = [len(cells[c]), *map(len, parts)]
            for f, part in zip(ids[1:], parts):
                for v in part:
                    color[v] = f
                cells.append(set(part))
                queued.append(False)
            if not queued[c]:
                # counts into the largest fragment follow from those into the others
                del ids[sizes.index(max(sizes))]
            for f in ids:
                if not queued[f]:
                    queue.append(f)
                    queued[f] = True
        for w in touched:
            key[w] = 0
    return np.array(color, dtype=np.int64)


def has_nontrivial_automorphism(n, out_mask):
    """True iff a loop-free digraph on n <= 63 vertices, given as int64
    out-neighbor bitmasks, has an automorphism other than the identity.

    Images are assigned to vertices 0, 1, ... in turn, each checked against
    the arcs to and from every vertex assigned before it.
    """
    masks = [int(x) for x in out_mask]
    img = []

    def extend(v, used):
        if v == n:
            return img != list(range(n))
        for w in range(n):
            if not used >> w & 1 and all(
                    masks[v] >> u & 1 == masks[w] >> iu & 1
                    and masks[u] >> v & 1 == masks[iu] >> w & 1
                    for u, iu in enumerate(img)):
                img.append(w)
                if extend(v + 1, used | 1 << w):
                    return True
                img.pop()
        return False

    return extend(0, 0)


def count_combinations(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def regular_digraph_search(m, k, oriented, chunk_lo, chunk_hi, node_budget, deadline=None):
    """Search k-regular digraphs on m vertices (loop-free; digon-free when
    oriented) for one with trivial automorphism group.

    Vertex 0's out-set is fixed to {1..k} (sound up to isomorphism).  Each
    later vertex takes its out-set from the k-combinations of its allowed
    targets in lexicographic order; ``chunk_lo..chunk_hi`` restricts the
    rank of vertex 1's combination, which gives a deterministic, resumable
    split of the tree.  A node is counted when a vertex's level is entered
    and again after each of its valid choices returns; the search aborts
    once the count exceeds ``node_budget`` or, at a counted node, once
    ``time.monotonic()`` passes ``deadline``.

    Returns (status, examined, witness_masks):
      status 1 = witness found, 0 = range exhausted, -1 = budget exceeded.
    """
    witness = np.zeros(m, dtype=np.int64)
    if m - 1 < k:
        return 0, 0, witness
    out_mask = [0] * m
    out_mask[0] = ((1 << k) - 1) << 1
    indeg = [0] + [1] * k + [0] * (m - 1 - k)
    examined = nodes = 0

    def feasible(v):
        # every vertex must still be able to reach in-degree k from v+1..m-1
        later = (1 << m) - (2 << v)
        for w in range(m):
            need = k - indeg[w]
            if need > 0:
                avail = later & ~(1 << w)
                if oriented:
                    avail &= ~out_mask[w]
                if avail.bit_count() < need:
                    return False
        return True

    def spent():
        nonlocal nodes
        nodes += 1
        return nodes > node_budget or deadline is not None and time.monotonic() > deadline

    def level(v):
        nonlocal examined
        if spent():
            return -1
        targets = [w for w in range(m) if w != v and not (oriented and out_mask[w] >> v & 1)]
        combos = combinations(targets, k)
        if v == 1:
            combos = islice(combos, chunk_lo, chunk_hi)
        for combo in combos:
            if any(indeg[w] >= k for w in combo):
                continue
            for w in combo:
                indeg[w] += 1
            out_mask[v] = sum(1 << w for w in combo)
            if feasible(v):
                # feasible at the last vertex means every in-degree is k
                if v < m - 1:
                    status = level(v + 1)
                    if status:
                        return status
                else:
                    examined += 1
                    if not has_nontrivial_automorphism(m, out_mask):
                        return 1
                if spent():
                    return -1
            out_mask[v] = 0
            for w in combo:
                indeg[w] -= 1
        return 0

    status = level(1)
    if status == 1:
        witness[:] = out_mask
    return status, examined, witness
