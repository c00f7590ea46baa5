"""Exhaustive searches: connection-set systems for a given (G, m) and
k-regular digraphs of small order.

Candidate order is fixed and lexicographic (size matrix, then the cells in
row-major order, each a sorted tuple), so nonexistence verdicts are
reproducible and long runs can resume from an enumeration cursor.  A
candidate's rank (its cursor) is its position in this full order, and the
enumerator seeks a start rank by arithmetic instead of replaying.

Every candidate is m-partite: its diagonal cells T_ii are empty.

Pruning.  Without ``naive``, the enumerator skips a choice with its whole
subtree when it makes the candidate non-oriented (POSR: a lower cell (i, j),
i > j, meets inv(T_ji)) or not orbit-minimal, so a skipped candidate is
never built.  Ranks stay those of the full order and ``candidates_examined``
is counted from them: the skipped ranks count as examined.

Whole size matrices are skipped as well, by their offset, when they hold
no representation.  Under POSR, one with |T_ij| + |T_ji| > |G| for some
i < j holds no oriented candidate; such matrices go by arithmetic, a whole
row prefix at a time, as the size matrices are walked.  When |G| >= 2, one
whose support (i - j when T_ij or T_ji is nonempty) is disconnected holds
none either: the parts of each component of the support are a union of
components of the digraph, so a nontrivial right translation on one of
them, the identity elsewhere, is an automorphism outside R(G).

Orbit pruning.  For sigma in Aut(G) and h = (e, h_1, ..., h_{m-1}), the
vertex map (i, x) -> (i, h_i sigma(x)) is an isomorphism from Cay(T) onto
Cay(T'), T'_ij = h_j sigma(T_ij) h_i^-1: the arc (i, x) -> (j, t x) goes to
(i, y) -> (j, h_j sigma(t) h_i^-1 y) with y = h_i sigma(x).  It conjugates
the right translation by g to the one by sigma(g), so it maps R(G) onto
R(G), and T' has the same size matrix and is oriented, partite and regular
iff T is; so T' is a representation iff T is.  The walk compares each
chosen cell with its images under the maps of S = Aut(G) x {h with at most
one h_j != e} (``OrbitFilter``) that tie on the cells chosen before it, and
skips the choice when an image is smaller (skip-if-not-minimal, as in
McKay's orderly generation, 1998).  So a candidate is built only if no map
of S gives a lexicographically smaller one.  A smaller image has the same
size matrix, so it comes earlier in the enumeration, and the first
representation in enumeration order is never skipped: the witness, the
count and the cursors are those of the full search.  The least candidate
in the orbit of a representation under the group S generates is one that
no map of S makes smaller, so ExhaustedNone over cursor windows that cover
every rank proves nonexistence (see ``exists_mposr`` for one window).

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
from itertools import combinations
from math import comb, inf, prod
from operator import sub
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
    i on have the column sums ``room``, memoised on the sorted room of the
    columns < i and of the columns >= i: permuting the former, or the latter
    together with their rows, does not change it.

    The third value is a one-element list, the ``time.monotonic`` deadline of
    the count under way: past it, read at each value not yet memoised,
    ``count`` raises ``_Stop``.  What was memoised stays, so a later count
    picks up where this one stopped."""
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    every = [(r, prod(comb(n, k) for k in r)) for r in _compositions(m, valency, min(n, valency))]
    rows = [[(r, w) for r, w in every if not r[i]] for i in range(m)]
    deadline = [inf]

    @lru_cache(maxsize=None)
    def sorted_count(i: int, room: tuple) -> int:
        if i == m:
            # every row sums to valency, so the room left is all zero
            return 1
        if deadline[0] < inf and time.monotonic() > deadline[0]:
            raise _Stop(0)
        return sum(w * count(i + 1, rest) for r, w, rest in _fits(rows[i], room))

    def count(i: int, room: tuple) -> int:
        return sorted_count(i, (*sorted(room[:i]), *sorted(room[i:])))

    return rows, count, deadline


def _fits(rows: list[tuple], room: tuple) -> Iterator[tuple]:
    """(row, choices, room left) for each row that fits in ``room``."""
    for r, w in rows:
        rest = tuple(map(sub, room, r))
        if min(rest) >= 0:
            yield r, w, rest


def _size_matrices(n: int, m: int, valency: int, start: int = 0,
                   oriented: bool = False) -> Iterator[tuple]:
    """(sizes, offset) for each m x m nonnegative integer matrix with zero
    diagonal, entries <= n and every row and column sum equal to `valency`,
    lexicographic over the flattened matrix; offset is the rank of the
    matrix's first candidate.  Matrices whose candidates all rank below
    ``start`` are skipped by arithmetic, whole row prefixes at a time; with
    ``oriented``, so are those with |T_ij| + |T_ji| > n for some i < j, which
    hold no oriented candidate, as soon as row j is placed."""
    rows, count, _ = _size_layout(n, m, valency)

    def rec(i: int, room: tuple, prefix: tuple, offset: int, scale: int):
        """The matrices below the rows ``prefix``, whose cells have ``scale``
        choices, from rank ``offset`` on."""
        if i == m:
            yield prefix, offset
            return
        for r, w, rest in _fits(rows[i], room):
            size = scale * w * count(i + 1, rest)
            if (size and offset + size > start
                    and not (oriented and any(prefix[j * m + i] + r[j] > n for j in range(i)))):
                yield from rec(i + 1, rest, prefix + r, offset, scale * w)
            offset += size

    yield from rec(0, (valency,) * m, (), 0, 1)


def _connected(sizes: tuple, m: int) -> bool:
    """Whether the support of a size matrix, i - j when |T_ij| + |T_ji| > 0,
    is connected."""
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(m):
            if j not in seen and (sizes[i * m + j] or sizes[j * m + i]):
                seen.add(j)
                stack.append(j)
    return len(seen) == m


class _Stop(Exception):
    """Ends the walk; args[0] is the first rank not passed."""


def enumerate_connection_sets(
    g: GroupTable,
    m: int,
    valency: int,
    require_oriented: bool = False,
    start: int = 0,
    auts: list[np.ndarray] | None = None,
    require_connected: bool = False,
    stop: int | None = None,
    deadline: float | None = None,
) -> Iterator[tuple[int, ConnectionSets | None]]:
    """(rank, conn) for the m-partite connection-set systems (every T_ii
    empty) with row and column |T| sums = valency, in a fixed lexicographic
    order: size matrix, then the cells in row-major order, each cell's
    k-subsets in ``combinations`` order, the last cell varying fastest.
    ``rank`` is the position in that full order: the size matrix's offset
    plus the mixed-radix index of the cells' subset indices.

    A choice is skipped with its subtree, the candidates built keeping their
    ranks, when: with ``require_oriented``, a lower cell (i, j), i > j,
    meets inv(T_ji); with ``auts`` (Aut(g)), a map of ``OrbitFilter`` tied
    on the cells before it makes the cell smaller.  A whole size matrix is
    skipped by its offset when it holds no candidate the search wants: with
    ``require_oriented``, one with |T_ij| + |T_ji| > |G| for some i < j
    (with every matrix that shares the row prefix that shows it); with
    ``require_connected``, one whose support is disconnected.  Ranks below
    ``start`` are skipped by arithmetic, and the walk ends before rank
    ``stop``.  Past ``deadline``, a ``time.monotonic`` reading checked once
    per choice and once per disconnected size matrix, it yields (r, None), r
    the first rank not passed, and ends."""
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
    orbit = OrbitFilter(g, m, [] if auts is None else auts)
    end = inf if stop is None else stop

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
        cur: list[tuple] = [()] * cells
        chosen = [0] * cells
        # per depth, the last (forbidden mask, allowed choices): a lower cell
        # meets the same transposed choice for every choice of the cells
        # between them
        memo: list[tuple] = [(None, None)] * len(active)

        # tied[d]: the maps of ``orbit`` that tie on the cells of depths < d,
        # held for the current choices in tied[:known + 1]; None when the
        # choice at depth d - 1 is not minimal.  A cell is tested only once
        # a leaf below it is reached
        tied = [orbit.maps] * (len(active) + 1)
        known = 0

        def level(depth: int, base: int):
            """The choices for the depth-th nonempty cell, from rank ``base``."""
            nonlocal known
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
            for x in choices:
                known = min(known, depth)
                if tied[known] is None:
                    return
                rank = base + x * w
                if rank >= end or deadline is not None and time.monotonic() > deadline:
                    raise _Stop(max(rank, start))
                cur[c] = options[x]
                if depth < len(active) - 1:
                    chosen[c] = x
                    yield from level(depth + 1, rank)
                    continue
                while known <= depth and tied[known].shape[1]:
                    d = active[known]
                    known += 1
                    tied[known] = orbit.ties(*divmod(d, m), cur[d], tied[known - 1])
                    if tied[known] is None:
                        break
                else:
                    yield rank, ConnectionSets(
                        m, tuple(tuple(cur[r:r + m]) for r in range(0, cells, m)))

        # valency >= 1, so every size matrix has a nonempty cell
        yield from level(0, offset)

    try:
        for sizes, offset in _size_matrices(n, m, valency, start, require_oriented):
            if offset >= end:
                return
            if require_connected and not _connected(sizes, m):
                if deadline is not None and time.monotonic() > deadline:
                    raise _Stop(max(offset, start))
                continue
            weight = [1] * cells
            for c in range(cells - 1, 0, -1):
                weight[c - 1] = weight[c] * len(subsets[sizes[c]])
            yield from walk(sizes, weight, offset)
    except _Stop as halt:
        if halt.args[0] < end:
            yield halt.args[0], None


def count_connection_sets(g: GroupTable, m: int, valency: int,
                          deadline: float | None = None) -> int | None:
    """The number of candidates ``enumerate_connection_sets`` ranks, or None
    past ``deadline``, a ``time.monotonic`` reading."""
    _, count, limit = _size_layout(g.order, m, valency)
    limit[0] = inf if deadline is None else deadline
    try:
        return count(0, (valency,) * m)
    except _Stop:
        return None
    finally:
        limit[0] = inf


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
    """The maps S of the orbit-minimality test for one (G, m): sigma in
    Aut(G) with h = (e, h_1, ..., h_{m-1}) having at most one h_j != e, each
    sending T to T'_ij = h_j sigma(T_ij) h_i^-1.  ``maps`` holds S without
    the identity as index arrays (sigma, part, h)."""

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
        self.maps = maps[:, ~(identity[sigma] & (maps[1] == 0))]

    def ties(self, i: int, j: int, cell: tuple, maps: np.ndarray) -> np.ndarray | None:
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
    cursor window, up to the witness if one is found, the ranks the
    enumerator skips included.  ``naive`` mode enumerates and solves every
    candidate.  Without it, only the oriented (POSR) and orbit-minimal
    candidates are built and solved (see the module docstring): the first
    witness and an ExhaustedNone over a window from cursor 0 are those of
    the naive search; ExhaustedNone of a later window says only that none
    of its orbit-minimal candidates is a representation, and windows that
    together cover every cursor prove nonexistence.  Past ``time_budget``
    seconds the search returns Aborted, with ``resume_cursor`` the first
    rank not passed.
    """
    kind = kind.upper()
    if kind not in ("POSR", "PDR"):
        raise InvalidParameter(f"unknown kind {kind!r}")
    t0 = time.monotonic()
    deadline = None if time_budget is None else t0 + time_budget
    start = max(cursor_start, 0)
    total = count_connection_sets(g, m, valency, deadline)
    if total is None:
        return SearchOutcome("Aborted", None, 0, time.monotonic() - t0, resume_cursor=start)
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

    # candidates_examined counts ranks, so the subtrees the enumerator skips
    # count as examined
    for rank, conn in enumerate_connection_sets(
            g, m, valency, require_oriented=kind == "POSR" and not naive, start=start,
            auts=None if naive else group_automorphisms(g), stop=stop,
            require_connected=not naive and g.order >= 2, deadline=deadline):
        if conn is None:
            advance(rank - start)
            return SearchOutcome("Aborted", None, examined, time.monotonic() - t0,
                                 resume_cursor=rank)
        advance(rank - start + 1)
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
