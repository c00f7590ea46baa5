"""The hot kernels, all interpreted.

``refine_partition`` is the equitable refinement of the automorphism
solver, vectorised with numpy.  ``has_nontrivial_automorphism`` and
``regular_digraph_search`` decide the rigid k-regular digraph claims: plain
recursive Python over int bitmasks, one per vertex's out-set.
"""

import math
import time
from itertools import combinations, islice

import numpy as np

# name of the kernel implementation, recorded with benchmark numbers; the
# interpreted code here is the only one
BACKEND = "fallback"


def refine_partition(n, out_flat, out_off, in_flat, in_off, colors0):
    """Coarsest equitable refinement of a coloring, canonically numbered.

    Each pass ranks the vertices by (current color, out-neighbor counts per
    color, in-neighbor counts per color) and renumbers densely; the loop
    stops when the class count is stable.  The numbering therefore depends
    only on the digraph and the order of the input colors.

    A vertex's count vector has 2k entries but at most deg(v) nonzero ones,
    so it is held as the multiset of its arc-ends' slots: slot c for an
    out-neighbor of color c, k + c for an in-neighbor.  Slot s is stored as
    2k - s and each row is sorted ascending, with 0s padding the rows of
    low-degree vertices.  Read from the right, two rows then compare exactly
    like the count vectors, because the first slot where two count vectors
    differ is the smallest slot that one vertex holds more often.  The
    int32 table is n x (max degree + 1), with the color in the last column.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    colors = np.asarray(colors0, dtype=np.int64)
    classes = np.count_nonzero(np.bincount(colors))
    out_deg, in_deg = np.diff(out_off), np.diff(in_off)
    length = int((out_deg + in_deg).max())
    # arc-end j of vertex v fills row v, column j: out-neighbors, then in-neighbors
    out_src = np.repeat(np.arange(n), out_deg)
    in_src = np.repeat(np.arange(n), in_deg)
    rows = np.concatenate((out_src, in_src))
    cols = np.concatenate((np.arange(len(out_flat)) - out_off[out_src],
                           out_deg[in_src] + np.arange(len(in_flat)) - in_off[in_src]))
    while True:
        k = int(colors.max()) + 1
        sig = np.zeros((n, length + 1), dtype=np.int32)
        sig[rows, cols] = np.concatenate((2 * k - colors[out_flat], k - colors[in_flat]))
        sig[:, :length].sort(axis=1)
        sig[:, length] = colors
        order = np.lexsort(sig.T)  # last column is the primary key
        ranked = sig[order]
        new_colors = np.empty(n, dtype=np.int64)
        new_colors[order[0]] = 0
        new_colors[order[1:]] = np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1))
        new_classes = int(new_colors[order[-1]]) + 1
        if new_classes == classes:
            return new_colors
        colors, classes = new_colors, new_classes


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
