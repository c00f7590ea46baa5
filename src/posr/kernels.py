"""Hot numeric kernels, all interpreted: equitable refinement (numpy) and
the loop kernels over int64 bitmasks, the rigidity test and the regular
digraph search.
"""

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
    """True (1) iff a digraph on n <= 63 vertices, given as out-neighbor
    bitmasks, has an automorphism other than the identity.

    Vertex-by-vertex image assignment with full consistency checks against
    all previously assigned vertices.
    """
    img = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=np.int64)
    v = 0
    img[0] = -1
    while v >= 0:
        w = img[v] + 1
        if img[v] >= 0:
            used[img[v]] = 0
        advanced = False
        while w < n:
            if used[w] == 0:
                ok = True
                for u in range(v):
                    iu = img[u]
                    if ((out_mask[v] >> u) & 1) != ((out_mask[w] >> iu) & 1):
                        ok = False
                        break
                    if ((out_mask[u] >> v) & 1) != ((out_mask[iu] >> w) & 1):
                        ok = False
                        break
                if ok:
                    img[v] = w
                    used[w] = 1
                    advanced = True
                    break
            w += 1
        if not advanced:
            img[v] = -1
            v -= 1
            continue
        if v == n - 1:
            identity = True
            for u in range(n):
                if img[u] != u:
                    identity = False
                    break
            if not identity:
                return 1
            # keep searching siblings of the identity leaf
            continue
        v += 1
        img[v] = -1
    return 0


def count_combinations(n, k):
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


def regular_digraph_search(m, k, oriented, chunk_lo, chunk_hi, node_budget):
    """Search k-regular digraphs on m vertices (loop-free; digon-free when
    oriented) for one with trivial automorphism group.

    Vertex 0's out-set is fixed to {1..k} (sound up to isomorphism).  The
    remaining vertices are assigned lexicographically; ``chunk_lo..chunk_hi``
    restricts the index of vertex 1's out-set combination, which gives a
    deterministic, resumable split of the tree.

    Returns (status, examined, witness_masks):
      status 1 = witness found, 0 = range exhausted, -1 = budget exceeded.
    """
    out_mask = np.zeros(m, dtype=np.int64)
    witness = np.zeros(m, dtype=np.int64)
    examined = np.int64(0)
    nodes = np.int64(0)
    if m - 1 < k:
        return 0, examined, witness
    for t in range(1, k + 1):
        out_mask[0] |= np.int64(1) << t
    indeg = np.zeros(m, dtype=np.int64)
    for t in range(1, k + 1):
        indeg[t] = 1

    # per-level combination state: chosen targets as sorted candidate indices
    cand = np.zeros((m, m), dtype=np.int64)   # candidate targets per level
    ncand = np.zeros(m, dtype=np.int64)
    choice = np.zeros((m, k), dtype=np.int64)  # indices into cand row
    started = np.zeros(m, dtype=np.int64)

    def build_candidates(v):
        cnt = 0
        for w in range(m):
            if w == v:
                continue
            if oriented == 1 and ((out_mask[w] >> v) & 1) == 1:
                continue
            cand[v, cnt] = w
            cnt += 1
        ncand[v] = cnt
        return cnt

    def apply_choice(v, sign):
        for i in range(k):
            w = cand[v, choice[v, i]]
            if sign == 1:
                out_mask[v] |= np.int64(1) << w
                indeg[w] += 1
            else:
                out_mask[v] &= ~(np.int64(1) << w)
                indeg[w] -= 1

    def choice_valid(v):
        # in-degree cap
        for i in range(k):
            w = cand[v, choice[v, i]]
            if indeg[w] >= k:
                return False
        return True

    def feasible(v):
        # every vertex must still be able to reach in-degree k
        for w in range(m):
            need = k - indeg[w]
            if need <= 0:
                continue
            avail = 0
            for u in range(v + 1, m):
                if u == w:
                    continue
                if oriented == 1 and ((out_mask[w] >> u) & 1) == 1:
                    continue
                avail += 1
            if avail < need:
                return False
        return True

    def first_choice(v):
        for i in range(k):
            choice[v, i] = i
        return ncand[v] >= k

    def next_choice(v):
        # next k-combination of ncand[v] items in lexicographic order
        i = k - 1
        while i >= 0:
            if choice[v, i] < ncand[v] - (k - i):
                choice[v, i] += 1
                for j in range(i + 1, k):
                    choice[v, j] = choice[v, j - 1] + 1
                return True
            i -= 1
        return False

    v = 1
    while v >= 1:
        nodes += 1
        if nodes > node_budget:
            return -1, examined, witness
        if started[v] == 0:
            build_candidates(v)
            started[v] = 1
            if not first_choice(v):
                started[v] = 0
                v -= 1
                if v >= 1:
                    apply_choice(v, -1)
                continue
            has = True
        else:
            has = next_choice(v)
        moved = False
        while has:
            if v == 1:
                combo_index = _combination_rank(choice[v], ncand[v], k)
                if combo_index >= chunk_hi:
                    has = False
                    break
                if combo_index < chunk_lo:
                    has = next_choice(v)
                    continue
            if choice_valid(v):
                apply_choice(v, 1)
                if feasible(v):
                    moved = True
                    break
                apply_choice(v, -1)
            has = next_choice(v)
        if not moved:
            started[v] = 0
            v -= 1
            if v >= 1:
                apply_choice(v, -1)
            continue
        if v == m - 1:
            complete = True
            for w in range(m):
                if indeg[w] != k:
                    complete = False
                    break
            if complete:
                examined += 1
                if has_nontrivial_automorphism(m, out_mask) == 0:
                    for w in range(m):
                        witness[w] = out_mask[w]
                    return 1, examined, witness
            apply_choice(v, -1)
            continue
        v += 1
    return 0, examined, witness


def _combination_rank(choice_row, n, k):
    # rank of a k-combination (by candidate positions) in lex order
    rank = 0
    prev = -1
    for i in range(k):
        c = choice_row[i]
        for t in range(prev + 1, c):
            rank += count_combinations(n - t - 1, k - i - 1)
        prev = c
    return rank
