"""Partitioned Cayley digraphs built from connection-set systems.

Vertex convention: vertex (i, g) is ``i * |G| + g``; part i is the contiguous
index range ``[i*|G|, (i+1)*|G|)``.  The arc rule multiplies the connection
element on the LEFT of the source's group coordinate (arc g_i -> (t g)_j for
t in T[i][j]); the translation embedding multiplies on the RIGHT
(x_i -> (x g)_i).  Both are property-tested together, since swapping one of
them silently breaks the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidParameter
from .groups import GroupTable


@dataclass(frozen=True)
class ConnectionSets:
    """An m x m array of sorted element-index tuples T[i][j]."""

    m: int
    sets: tuple  # tuple of tuples of tuples of ints

    @staticmethod
    def from_lists(m: int, sets: Sequence[Sequence[Iterable[int]]]) -> "ConnectionSets":
        if len(sets) != m or any(len(row) != m for row in sets):
            raise InvalidParameter("sets must be an m x m array")
        canon = []
        for row in sets:
            crow = []
            for cell in row:
                cell = list(cell)
                if len(set(cell)) != len(cell):
                    raise InvalidParameter(f"duplicate elements in cell {cell}")
                crow.append(tuple(sorted(int(e) for e in cell)))
            canon.append(tuple(crow))
        return ConnectionSets(m, tuple(canon))

    @staticmethod
    def from_words(g: GroupTable, m: int, cells: dict) -> "ConnectionSets":
        """Build from a mapping {(i, j): [word, ...]} of generator words."""
        sets = [[[] for _ in range(m)] for _ in range(m)]
        for (i, j), words in cells.items():
            sets[i][j] = [g.evaluate_word(w) for w in words]
        return ConnectionSets.from_lists(m, sets)

    @staticmethod
    def from_digraph(d: Digraph) -> "ConnectionSets":
        """The digraph as a Cayley digraph of the trivial group with d.n
        parts: T_uv = {e} for each arc u -> v.  A loop is then a nonempty
        diagonal cell and a digon a cell that meets its reverse's inverse."""
        sets = [[()] * d.n for _ in range(d.n)]
        for u, v in d.arcs():
            sets[u][v] = (0,)
        return ConnectionSets(d.n, tuple(map(tuple, sets)))

    def cell(self, i: int, j: int) -> tuple:
        return self.sets[i][j]

    def check_indices(self, g: GroupTable) -> None:
        for row in self.sets:
            for cell in row:
                for e in cell:
                    if not 0 <= e < g.order:
                        raise IndexOutOfRange(f"element {e} out of range for order {g.order}")

    def size_matrix(self) -> list[list[int]]:
        return [[len(c) for c in row] for row in self.sets]

    def to_json(self, g: GroupTable | None = None) -> dict:
        if g is None:
            cells = [[[int(e) for e in cell] for cell in row] for row in self.sets]
        else:
            cells = [[[g.words[e] for e in cell] for cell in row] for row in self.sets]
        return {"m": self.m, "sets": cells}

    @staticmethod
    def from_json(data: dict, g: GroupTable) -> "ConnectionSets":
        for key in ("m", "sets"):
            if not isinstance(data, dict) or key not in data:
                raise InvalidParameter(f"connection sets: missing key {key!r}")
        m = data["m"]
        if not _is_json_int(m):
            raise InvalidParameter(f"connection sets: non-integer 'm' {m!r}")
        try:
            sets = [[[_element(g, w) for w in cell] for cell in row] for row in data["sets"]]
        except TypeError:
            raise InvalidParameter("connection sets: 'sets' is not an m x m array") from None
        return ConnectionSets.from_lists(m, sets)


def _is_json_int(x) -> bool:
    # JSON true/false parse as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _element(g: GroupTable, w) -> int:
    """A connection-set element of a JSON file: a word or an integer index."""
    if isinstance(w, str):
        return g.evaluate_word(w)
    if not _is_json_int(w):
        raise InvalidParameter(f"connection sets: element {w!r} is neither an integer nor a word")
    return w


class Digraph:
    """Immutable digraph held as CSR arrays: each vertex's out-neighbours,
    then each vertex's in-neighbours, sorted, with their offsets.  Repeated
    arcs count once."""

    __slots__ = ("n", "_csr")

    def __init__(self, n: int, arcs: Sequence[tuple[int, int]] | np.ndarray):
        arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
        outside = (arcs < 0) | (arcs >= n)
        if outside.any():
            u, v = arcs[outside.any(axis=1)][0].tolist()
            raise IndexOutOfRange(f"arc ({u}, {v}) outside 0..{n - 1}")
        src, dst = np.divmod(np.unique(arcs[:, 0] * n + arcs[:, 1]), n)
        by_dst = np.lexsort((src, dst))
        out_off = np.zeros(n + 1, dtype=np.int64)
        in_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=out_off[1:])
        np.cumsum(np.bincount(dst, minlength=n), out=in_off[1:])
        self.n = n
        self._csr = (dst, out_off, src[by_dst], in_off)

    def csr(self):
        """(out_flat, out_off, in_flat, in_off), int64."""
        return self._csr

    def arcs(self) -> list[tuple[int, int]]:
        out_flat, out_off, _, _ = self._csr
        src = np.repeat(np.arange(self.n), np.diff(out_off))
        return list(zip(src.tolist(), out_flat.tolist()))


@dataclass
class PartitionedDigraph:
    """A digraph on m * |G| vertices with the fixed part/vertex convention."""

    digraph: Digraph
    group_order: int
    m: int


@dataclass(frozen=True)
class ValidationReport:
    oriented: bool
    partite: bool
    regular: bool

    def ok_for(self, kind: str) -> bool:
        """POSR needs oriented+partite+regular; PDR drops oriented."""
        if kind.upper() == "POSR":
            return self.oriented and self.partite and self.regular
        if kind.upper() == "PDR":
            return self.partite and self.regular
        raise InvalidParameter(f"unknown kind {kind!r}")


def build_cayley(g: GroupTable, conn: ConnectionSets) -> PartitionedDigraph:
    """Arcs vertex(i, h) -> vertex(j, t*h) for every t in T[i][j], h in G."""
    conn.check_indices(g)
    n = g.order
    i, j, t = np.array([(i, j, t) for i, row in enumerate(conn.sets)
                        for j, cell in enumerate(row) for t in cell],
                       dtype=np.int64).reshape(-1, 3).T
    src = i[:, None] * n + np.arange(n)
    dst = j[:, None] * n + g.mult[t]  # row t of mult is t*h for all h
    return PartitionedDigraph(Digraph(conn.m * n, np.stack((src, dst), axis=-1)), n, conn.m)


def validate_sets(g: GroupTable, conn: ConnectionSets, valency: int) -> ValidationReport:
    """The oriented / partite / regularity conditions, read off the
    connection sets alone."""
    conn.check_indices(g)
    m = conn.m
    partite = all(not conn.cell(i, i) for i in range(m))
    sizes = conn.size_matrix()
    regular = all(sum(row) == valency for row in sizes) and all(
        sum(sizes[i][j] for i in range(m)) == valency for j in range(m)
    )
    return ValidationReport(sets_oriented(g, conn), partite, regular)


def sets_oriented(g: GroupTable, conn: ConnectionSets) -> bool:
    """Orientedness alone, as a cheap pre-filter (no digraph built)."""
    for i in range(conn.m):
        for j in range(i, conn.m):
            cell_ij = conn.cell(i, j)
            cell_ji = conn.cell(j, i)
            if not cell_ij or not cell_ji:
                continue
            inv_ji = {int(g.inv[t]) for t in cell_ji}
            if inv_ji.intersection(cell_ij):
                return False
    return True


def right_translations(g: GroupTable, m: int) -> list[np.ndarray]:
    """One vertex permutation per group element: vertex(i, h) -> vertex(i, h*g)."""
    n = g.order
    offsets = np.arange(m, dtype=np.int64)[:, None] * n
    perms = []
    for e in range(n):
        col = g.mult[:, e].astype(np.int64)  # h*e for all h
        perms.append((offsets + col[None, :]).reshape(-1))
    return perms


def is_digraph_automorphism(d: Digraph, perm: np.ndarray) -> bool:
    """Does the vertex permutation ``perm`` map the arc set onto itself?

    Arcs are compared as keys u*n + v: the CSR order lists them sorted, and
    a permutation maps distinct arcs to distinct keys, so the sorted image
    keys equal the arc keys exactly when every image is an arc."""
    perm = np.asarray(perm, dtype=np.int64)
    out_flat, out_off, _, _ = d.csr()
    src = np.repeat(np.arange(d.n, dtype=np.int64), np.diff(out_off))
    image = np.sort(perm[src] * d.n + perm[out_flat])
    return bool(np.array_equal(image, src * d.n + out_flat))
