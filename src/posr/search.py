"""Exhaustive searches: connection-set systems for a given (G, m) and
k-regular digraphs of small order.

Candidate order is fixed and lexicographic (size matrix, then the cells in
row-major order, each a sorted tuple), so nonexistence verdicts are
reproducible and long runs can resume from an enumeration cursor.  A
candidate's rank (its cursor) is its position in this full order, and the
enumerator seeks a start rank by arithmetic instead of replaying.

Every candidate is m-partite: its diagonal cells T_ii are empty.

Oriented pruning.  A POSR search (without ``naive``) enumerates only
oriented candidates: a choice for a lower cell (i, j), i > j, that meets
inv(T_ji) is skipped with its whole subtree, so a non-oriented candidate is
never built.  Ranks stay those of the full order,
and ``candidates_examined`` is counted from them, so the skipped ranks count
as examined and the witness, the count and the cursors are those of the
full search.

Orbit pruning.  For sigma in Aut(G) and h = (e, h_1, ..., h_{m-1}), the
vertex map (i, x) -> (i, h_i sigma(x)) is an isomorphism from Cay(T) onto
Cay(T'), T'_ij = h_j sigma(T_ij) h_i^-1: the arc (i, x) -> (j, t x) goes to
(i, y) -> (j, h_j sigma(t) h_i^-1 y) with y = h_i sigma(x).  It conjugates
the right translation by g to the one by sigma(g), so it maps R(G) onto
R(G), and T' has the same size matrix and is oriented, partite and regular
iff T is; so T' is a representation iff T is.  The search sends a candidate
to the solver only if no map of S = Aut(G) x {h with at most one h_j != e}
gives a lexicographically smaller candidate (``OrbitFilter``).  A smaller
image has the same size matrix, so it comes earlier in the enumeration, and
the first representation in enumeration order is never skipped: the
witness, ``candidates_examined`` (skipped candidates count) and the cursors
are those of the full search.  The least candidate in the orbit of a
representation under the group S generates is one that no map of S makes
smaller, so ExhaustedNone over cursor windows that cover every rank proves
nonexistence.  A window from cursor 0 is exact; ExhaustedNone of a window
that starts later says only that none of its orbit-minimal candidates is a
representation.  ``naive`` mode skips nothing.

Each remaining candidate is decided with one Cayley build and one seeded
search pass (``autgroup.aut_is_translations``); ``naive`` mode decides it
with ``verify_witness`` instead.  ``verify_witness`` is the one check of
every witness in the package: it validates the sets and computes the full
automorphism group from scratch.  A search witness passes it before it is
returned, and so does a rigid digraph from the kernel, as connection sets
of the trivial group (``ConnectionSets.from_digraph``).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, prod
from typing import Callable, Iterator

import numpy as np

from . import kernels
from .autgroup import DEFAULT_NODE_BUDGET, RepVerdict, aut_is_translations, is_semiregular_rep
from .cayley import (
    ConnectionSets,
    Digraph,
    build_cayley,
    validate_sets,
)
from .errors import InvalidParameter, TooLarge, WitnessRejected
from .groups import GroupTable, group_automorphisms, group_from_token


@dataclass
class SearchOutcome:
    status: str  # FoundWitness | ExhaustedNone | Aborted
    witness: object | None  # ConnectionSets | Digraph | None
    candidates_examined: int
    elapsed: float
    resume_cursor: int | None = None

    def to_json(self) -> dict:
        payload = {
            "candidates_examined": self.candidates_examined,
            "elapsed_s": round(self.elapsed, 3),
            "status": self.status,
        }
        if self.resume_cursor is not None:
            payload["resume_cursor"] = self.resume_cursor
        if isinstance(self.witness, ConnectionSets):
            payload["witness"] = self.witness.to_json()
        elif isinstance(self.witness, Digraph):
            payload["witness"] = {"arcs": self.witness.arcs(), "n": self.witness.n}
        return payload


def _compositions(m: int, total: int, cap: int) -> list[tuple]:
    """The length-m tuples of integers in [0, cap] that sum to ``total``, in
    lexicographic order."""
    if m == 0:
        return [()] if total == 0 else []
    return [(v, *rest) for v in range(min(cap, total) + 1)
            for rest in _compositions(m - 1, total - v, cap)]


@lru_cache(maxsize=16)
def _size_layout(n: int, m: int, valency: int):
    """The size matrices over a group of order n, shared by the count and the
    enumeration of one (n, m, valency): per row index i, the rows it may take
    (zero at i, entries <= n, sum ``valency``) with the number of cell choices
    of each, and ``count(i, room)``, the number of candidates whose rows from
    i on have the column sums ``room``."""
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    every = [(r, prod(comb(n, k) for k in r)) for r in _compositions(m, valency, min(n, valency))]
    rows = [[(r, w) for r, w in every if not r[i]] for i in range(m)]

    @lru_cache(maxsize=None)
    def count(i: int, room: tuple) -> int:
        if i == m:
            # every row sums to valency, so the room left is all zero
            return 1
        return sum(w * count(i + 1, rest) for r, w, rest in _fits(rows[i], room))

    return rows, count


def _fits(rows: list[tuple], room: tuple) -> Iterator[tuple]:
    """(row, choices, room left) for each row that fits in ``room``."""
    for r, w in rows:
        rest = tuple(b - a for a, b in zip(r, room))
        if min(rest) >= 0:
            yield r, w, rest


def _size_matrices(n: int, m: int, valency: int, start: int = 0) -> Iterator[tuple]:
    """(sizes, offset) for each m x m nonnegative integer matrix with zero
    diagonal, entries <= n and every row and column sum equal to `valency`,
    lexicographic over the flattened matrix; offset is the rank of the
    matrix's first candidate.  Matrices whose candidates all rank below
    ``start`` are skipped by arithmetic, whole row prefixes at a time."""
    rows, count = _size_layout(n, m, valency)

    def rec(i: int, room: tuple, prefix: tuple, offset: int, scale: int):
        """The matrices below the rows ``prefix``, whose cells have ``scale``
        choices, from rank ``offset`` on."""
        if i == m:
            yield prefix, offset
            return
        for r, w, rest in _fits(rows[i], room):
            size = scale * w * count(i + 1, rest)
            if size and offset + size > start:
                yield from rec(i + 1, rest, prefix + r, offset, scale * w)
            offset += size

    yield from rec(0, (valency,) * m, (), 0, 1)


def enumerate_connection_sets(
    g: GroupTable,
    m: int,
    valency: int,
    require_oriented: bool = False,
    start: int = 0,
) -> Iterator[tuple[int, ConnectionSets]]:
    """(rank, conn) for the m-partite connection-set systems (every T_ii
    empty) with row and column |T| sums = valency, in a fixed lexicographic
    order: size matrix, then the cells in row-major order, each cell's
    k-subsets in ``combinations`` order, the last cell varying fastest.
    ``rank`` is the position in that full order: the size matrix's offset
    plus the mixed-radix index of the cells' subset indices.

    With ``require_oriented``, a choice for a lower cell (i, j), i > j, that
    meets inv(T_ji) is skipped with its whole subtree: only oriented
    candidates are built, and their ranks are those of the full order.  Ranks below ``start`` are
    skipped by arithmetic, whole size matrices and subtrees at a time."""
    if valency < 1:
        raise InvalidParameter("valency must be >= 1")
    n = g.order
    subsets: dict[int, list[tuple]] = {}
    # per k: bitmask of each k-subset and of its inverses; built only when
    # pruning
    masks: dict[int, list[int]] = {}
    inv_masks: dict[int, list[int]] = {}
    bits = [1 << e for e in range(n)]
    inv_bits = [1 << int(g.inv[e]) for e in range(n)]
    for k in range(min(valency, n) + 1):
        subsets[k] = list(combinations(range(n), k))
        if require_oriented:
            masks[k] = list(map(sum, combinations(bits, k)))
            inv_masks[k] = list(map(sum, combinations(inv_bits, k)))
    cells = m * m

    def walk(sizes: tuple, weight: list[int], offset: int):
        """The candidates of one size matrix from rank ``start`` on, depth
        first over its nonempty cells."""
        active = [c for c, k in enumerate(sizes) if k]
        # per active cell: the cell whose choice it must avoid the inverse
        # of, None for no constraint
        against = []
        for c in active:
            i, j = divmod(c, m)
            t = j * m + i
            against.append(None if not require_oriented or i < j or not sizes[t] else t)
        # the active cells from `free` on are unconstrained
        free = len(active)
        while free and against[free - 1] is None:
            free -= 1
        cur: list[tuple] = [()] * cells
        chosen = [0] * cells
        # per depth, the last (forbidden mask, allowed choices): a lower cell
        # meets the same transposed choice for every choice of the cells
        # between them
        memo: list[tuple] = [(None, None)] * len(active)

        def suffix(base: int):
            """The subtree below the choices made so far, from the first
            free cell on: one product over the remaining cells, in
            consecutive ranks.  A start inside it is split into one digit
            per cell, and the product resumes from those digits."""
            c0 = active[free]
            options = [(cell,) for cell in cur[:c0]] + [subsets[k] for k in sizes[c0:]]
            skip = max(start - base, 0)
            if skip:
                digits = [skip // weight[c] % len(options[c]) for c in range(cells)]
                pieces = chain.from_iterable(
                    product(*[(o[x],) for o, x in zip(options, digits[:p])],
                            options[p][digits[p] + (p < cells - 1):], *options[p + 1:])
                    for p in range(cells - 1, c0 - 1, -1))
            else:
                pieces = product(*options)
            for rank, flat in enumerate(pieces, base + skip):
                yield rank, ConnectionSets(m, tuple(flat[r:r + m] for r in range(0, cells, m)))

        def level(depth: int, base: int):
            if depth == free:
                yield from suffix(base)
                return
            c = active[depth]
            k = sizes[c]
            w = weight[c]
            first = (start - base) // w if start > base else 0
            t = against[depth]
            if t is None:
                choices = range(first, len(subsets[k]))
            else:
                forbid = inv_masks[sizes[t]][chosen[t]]
                if memo[depth][0] != forbid:
                    mk = masks[k]
                    memo[depth] = (forbid, [x for x in range(len(mk)) if not mk[x] & forbid])
                allowed = memo[depth][1]
                choices = allowed[bisect_left(allowed, first):] if first else allowed
            options = subsets[k]
            if depth == len(active) - 1:
                for x in choices:
                    cur[c] = options[x]
                    yield base + x * w, ConnectionSets(
                        m, tuple(tuple(cur[r:r + m]) for r in range(0, cells, m)))
            else:
                for x in choices:
                    cur[c] = options[x]
                    chosen[c] = x
                    yield from level(depth + 1, base + x * w)

        # valency >= 1, so every size matrix has a nonempty cell
        yield from level(0, offset)

    for sizes, offset in _size_matrices(n, m, valency, start):
        weight = [1] * cells
        for c in range(cells - 1, 0, -1):
            weight[c - 1] = weight[c] * len(subsets[sizes[c]])
        yield from walk(sizes, weight, offset)


def count_connection_sets(g: GroupTable, m: int, valency: int) -> int:
    """The number of candidates ``enumerate_connection_sets`` ranks."""
    _, count = _size_layout(g.order, m, valency)
    return count(0, (valency,) * m)


def _candidate_is_rep(g: GroupTable, conn: ConnectionSets, kind: str, valency: int,
                      node_budget: int, naive: bool) -> bool:
    """One build and one solver pass.  An enumerated candidate is partite and
    regular by construction, and oriented when the search prunes (POSR, not
    ``naive``); ``naive`` mode decides every candidate with the full check."""
    if naive:
        verdict = verify_witness(g, conn, kind, valency, node_budget)
        return verdict is not None and verdict.is_representation
    return aut_is_translations(build_cayley(g, conn), node_budget=node_budget)


class OrbitFilter:
    """Orbit-minimality test for the candidates of one (G, m).

    The maps tested, S, are sigma in Aut(G) with h = (e, h_1, ..., h_{m-1})
    having at most one h_j != e; each sends T to T'_ij = h_j sigma(T_ij)
    h_i^-1.  ``keeps(conn)`` is True iff no map in S sends conn to a
    lexicographically smaller candidate (cells in row-major order, each a
    sorted tuple).  S is kept as index arrays and each cell's images are
    temporaries.
    """

    def __init__(self, g: GroupTable, m: int, auts: list[np.ndarray]):
        self.g = g
        self.auts = np.array(auts, dtype=np.int64).reshape(len(auts), g.order)
        shifts = [(0, g.identity), *((j, h) for j in range(1, m) for h in range(g.order)
                                     if h != g.identity)]
        part, h = np.array(shifts, dtype=np.int64).T
        sigma = np.repeat(np.arange(len(auts)), len(shifts))
        maps = np.stack([sigma, np.tile(part, len(auts)), np.tile(h, len(auts))])
        # the identity map never gives a smaller image
        identity = (self.auts == np.arange(g.order)).all(axis=1)
        self._maps = maps[:, ~(identity[sigma] & (maps[1] == 0))]
        # ((i, j, cell), maps that tie up to that cell, or None if one is
        # smaller) for the nonempty leading cells of the last candidate:
        # consecutive candidates share their leading cells
        self._prefix: list[tuple] = []

    def _ties(self, i: int, j: int, cell: tuple, maps: np.ndarray) -> np.ndarray | None:
        """The maps whose image of cell (i, j) equals it, or None if some
        map's image is smaller."""
        g = self.g
        sigma, part, h = maps
        key = np.array(cell, dtype=np.int64)
        left = np.where(part == j, h, g.identity)
        right = g.inv[np.where(part == i, h, g.identity)]
        image = g.mult[g.mult[left[:, None], self.auts[sigma[:, None], key]], right[:, None]]
        image.sort(axis=1)
        differ = image != key
        first = differ.argmax(axis=1)
        # a row equal to the key has first = 0 and is not smaller
        if (image[np.arange(len(image)), first] < key[first]).any():
            return None
        return maps[:, ~differ.any(axis=1)]

    def keeps(self, conn: ConnectionSets) -> bool:
        """Compare the images cell by cell: the first nonempty cell under all
        of S, the next under the maps that fix the first, and so on."""
        maps = self._maps
        level = 0
        for i, row in enumerate(conn.sets):
            for j, cell in enumerate(row):
                if not cell:
                    continue
                if not maps.shape[1]:
                    return True
                if level < len(self._prefix) and self._prefix[level][0] == (i, j, cell):
                    maps = self._prefix[level][1]
                else:
                    del self._prefix[level:]
                    maps = self._ties(i, j, cell, maps)
                    self._prefix.append(((i, j, cell), maps))
                if maps is None:
                    return False
                level += 1
        return True


def exists_mposr(
    g: GroupTable,
    m: int,
    valency: int,
    kind: str = "POSR",
    node_budget: int = DEFAULT_NODE_BUDGET,
    naive: bool = False,
    cursor_start: int = 0,
    cursor_stop: int | None = None,
    time_budget: float | None = None,
    progress_every: int | None = None,
    progress_cb: Callable[[dict], None] | None = None,
) -> SearchOutcome:
    """Decide whether (g, m) admits an m-POSR / m-PDR of the given valency
    by exhausting every partite candidate.

    candidates_examined counts the ranks of the full partite order in the
    cursor window, up to the witness if one is found (including the
    non-oriented ones, which a POSR search never builds, and the ones skipped
    as not orbit-minimal).  ``naive`` mode enumerates and solves every
    candidate.

    Without ``naive``, a candidate reaches the solver only if it is oriented
    (POSR) and minimal under Aut(g) x {h with at most one h_j != e} (see the
    module docstring).  The skipped candidates are isomorphic to earlier
    ones by maps that keep R(g), so the first witness and an ExhaustedNone
    over the whole enumeration, or over a window that starts at cursor 0,
    are those of the naive search.  An ExhaustedNone of a window that
    starts later says only that none of its orbit-minimal candidates is a
    representation; windows that together cover every cursor still prove
    nonexistence.
    """
    kind = kind.upper()
    if kind not in ("POSR", "PDR"):
        raise InvalidParameter(f"unknown kind {kind!r}")
    t0 = time.monotonic()
    total = count_connection_sets(g, m, valency)
    minimal = None if naive else OrbitFilter(g, m, group_automorphisms(g))
    # candidates_examined counts ranks, so the non-oriented subtrees the
    # enumerator skips count as examined
    prune = kind == "POSR" and not naive
    start = max(cursor_start, 0)
    stop = total if cursor_stop is None else max(start, min(total, cursor_stop))
    examined = 0

    def advance(to: int) -> None:
        """Set examined to ``to``, reporting each multiple of
        progress_every passed on the way."""
        nonlocal examined
        if progress_every and progress_cb:
            step = abs(progress_every)
            for mark in range(examined // step + 1, to // step + 1):
                progress_cb({
                    "elapsed_ms": int((time.monotonic() - t0) * 1000),
                    "examined": mark * step,
                    "total": total,
                })
        examined = to

    for rank, conn in enumerate_connection_sets(g, m, valency, require_oriented=prune,
                                                 start=start):
        if rank >= stop:
            break
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            # resume from the first rank not yet counted as examined
            return SearchOutcome("Aborted", None, examined, time.monotonic() - t0,
                                 resume_cursor=start + examined)
        advance(rank - start + 1)
        if minimal is not None and not minimal.keeps(conn):
            continue
        if _candidate_is_rep(g, conn, kind, valency, node_budget, naive):
            verdict = verify_witness(g, conn, kind, valency, node_budget)
            if verdict is None or not verdict.is_representation:
                raise WitnessRejected(f"witness {conn.sets} fails the independent re-check")
            return SearchOutcome("FoundWitness", conn, examined, time.monotonic() - t0)
    advance(stop - start)
    return SearchOutcome("ExhaustedNone", None, examined, time.monotonic() - t0)


def verify_witness(g: GroupTable, conn: ConnectionSets, kind: str, valency: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> RepVerdict | None:
    """The one from-scratch check of a witness: the set conditions, then the
    full automorphism group of the built digraph.  None when the sets fail
    the conditions of ``kind`` at this valency."""
    if not validate_sets(g, conn, valency).ok_for(kind):
        return None
    return is_semiregular_rep(build_cayley(g, conn), g, node_budget)


def exists_antisymmetric_kregular(
    m: int,
    k: int,
    oriented: bool,
    node_budget: int = 10_000_000_000,
    time_budget: float | None = None,
) -> SearchOutcome:
    """Search all loop-free (digon-free when oriented) k-regular digraphs on
    m vertices for one with trivial automorphism group.

    Any k-regular digraph is isomorphic to one with N+(0) = {1..k} (relabel
    by any bijection sending the out-neighbors of any fixed vertex to 1..k),
    so the kernel fixes vertex 0's out-set and walks the rest of the tree in
    one deterministic pass, ordered by the rank of vertex 1's out-set
    combination.  ``node_budget`` counts the kernel's descents, and both
    budgets are checked at each of them.  A witness is a representation of
    the trivial group with m parts (an m-POSR when oriented, else an m-PDR)
    and is decided again by ``verify_witness`` before it is returned.
    """
    if m < 1 or k < 1:
        raise InvalidParameter("m and k must be >= 1")
    if m >= 64:
        # the kernel packs each out-set into an int64 bitmask
        raise TooLarge(f"rigid-digraph search limited to 63 vertices, got {m}")
    t0 = time.monotonic()
    if m - 1 < k:
        return SearchOutcome("ExhaustedNone", None, 0, time.monotonic() - t0)
    total_chunks = kernels.count_combinations(m - 1, k)  # upper bound on ranks
    deadline = None if time_budget is None else t0 + time_budget
    status, count, masks = kernels.regular_digraph_search(
        m, k, 1 if oriented else 0, 0, total_chunks, node_budget, deadline)
    examined = int(count)
    if status == -1:
        return SearchOutcome("Aborted", None, examined, time.monotonic() - t0)
    if status == 1:
        d = Digraph(m, [(u, v) for u in range(m) for v in range(m) if int(masks[u]) >> v & 1])
        verdict = verify_witness(group_from_token("cyclic:1"), ConnectionSets.from_digraph(d),
                                 "POSR" if oriented else "PDR", k)
        if verdict is None or not verdict.is_representation:
            raise WitnessRejected(f"kernel witness {d.arcs()} fails the independent re-check")
        return SearchOutcome("FoundWitness", d, examined, time.monotonic() - t0)
    return SearchOutcome("ExhaustedNone", None, examined, time.monotonic() - t0)
