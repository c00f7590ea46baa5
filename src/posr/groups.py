"""Finite groups as concrete multiplication tables.

Elements are indices 0..n-1 with 0 always the identity.  Tables are built
from explicit permutation generators; the element numbering is the
breadth-first order over generator words (identity first, then generator
images in input order), so it depends only on the abstract group and its
generators, not on the permutation representation.

This is the one module that reads group tokens (``group_from_token``).  Most
named groups are metacyclic and built from their presentation
(``_metacyclic``); the rest from literal generator permutations.

Convention: ``D_n`` here is the dihedral group OF ORDER ``n`` (so ``D_8``
has 8 elements).  This is the less common of the two conventions in the
literature; it is used consistently everywhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameter, NotTwoGenerated, TooLarge, UnknownGenerator

# Word = "1" | "x" | "x^3" | "x^2*y^-1" ... or a sequence of (label, exponent).
Word = "str | Sequence[tuple[str, int]]"

_TOKEN_RE = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")


def parse_word(text: str) -> list[tuple[str, int]]:
    """Parse a generator word like ``"x^2*y"`` into (label, exponent) pairs."""
    text = text.replace(" ", "")
    if text in ("", "1", "e"):
        return []
    out: list[tuple[str, int]] = []
    for part in text.split("*"):
        pos = 0
        while pos < len(part):
            mo = _TOKEN_RE.match(part, pos)
            if mo is None:
                raise InvalidParameter(f"cannot parse word {text!r}")
            exp = int(mo.group(2)) if mo.group(2) is not None else 1
            out.append((mo.group(1), exp))
            pos = mo.end()
    return out


def format_word(pairs: Sequence[tuple[str, int]]) -> str:
    if not pairs:
        return "1"
    parts = []
    for label, exp in pairs:
        parts.append(label if exp == 1 else f"{label}^{exp}")
    return "*".join(parts)


@dataclass
class GroupTable:
    """A finite group given by its full multiplication table.

    ``mult[a, b]`` is the product a*b, ``inv[a]`` the inverse, element 0 the
    identity.  ``generators`` is an ordered list of (label, element index);
    ``words`` gives a generator word per element.
    """

    order: int
    mult: np.ndarray
    inv: np.ndarray
    generators: list[tuple[str, int]]
    words: list[str]
    name: str = ""
    identity: int = 0
    _order_cache: dict = field(default_factory=dict, repr=False)

    # -- basic arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def generator(self, label: str) -> int:
        for lab, idx in self.generators:
            if lab == label:
                return idx
        raise UnknownGenerator(f"no generator {label!r} in group {self.name or '?'}")

    def power(self, e: int, k: int) -> int:
        if k < 0:
            e, k = self.inverse(e), -k
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, e)
        return acc

    def evaluate_word(self, word) -> int:
        """Evaluate a generator word left-to-right; exponents may be negative."""
        if isinstance(word, str):
            word = parse_word(word)
        acc = self.identity
        for label, exp in word:
            acc = self.mul(acc, self.power(self.generator(label), exp))
        return acc

    def element_order(self, e: int) -> int:
        cached = self._order_cache.get(e)
        if cached is not None:
            return cached
        k, acc = 1, e
        while acc != self.identity:
            acc = self.mul(acc, e)
            k += 1
        self._order_cache[e] = k
        return k

    # -- structure -------------------------------------------------------

    def closure(self, elements: Iterable[int]) -> set[int]:
        seen = set(elements)
        seen.add(self.identity)
        frontier = list(seen)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(seen):
                    for c in (self.mul(a, b), self.mul(b, a)):
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
            frontier = nxt
        return seen

    def generates(self, elements: Iterable[int]) -> bool:
        return len(self.closure(elements)) == self.order

    def generating_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs (a, b) with <a, b> = G, in index order."""
        return [
            (a, b)
            for a in range(self.order)
            for b in range(self.order)
            if self.generates((a, b))
        ]


def group_from_permutations(
    gens: Sequence[Sequence[int]],
    labels: Sequence[str],
    name: str = "",
) -> GroupTable:
    """Build the multiplication table of the group generated by permutations.

    The group product a*b is function composition "apply b, then a", so a
    word evaluates left-to-right as usual.  Element numbering is BFS over
    words: identity first, then products word*generator in discovery order.
    The walk records each element e = parent * g_k and the right products
    e * g_k, so column e of the table is the column of its parent mapped
    through g_k: O(n^2) work, no permutation product per table entry.
    """
    if not gens or len(labels) != len(gens):
        raise InvalidParameter("need one label per generator, and at least one generator")
    degree = len(gens[0])
    perms = []
    for p in gens:
        arr = np.asarray(p, dtype=np.int32)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise InvalidParameter("generators must be permutations of a common point set")
        perms.append(arr)

    keys = [np.arange(degree, dtype=np.int32).tobytes()]
    index = {keys[0]: 0}
    words: list[list[tuple[str, int]]] = [[]]
    parent, step = [0], [0]  # element e = parent[e] * gens[step[e]]
    right: list[list[int]] = [[] for _ in perms]  # right[k][e] = e * gens[k]
    head = 0
    while head < len(keys):
        base = np.frombuffer(keys[head], dtype=np.int32)
        for k, (lab, gp) in enumerate(zip(labels, perms)):
            # word w*g with composition convention new[i] = base[gp[i]]
            key = base[gp].tobytes()
            e = index.get(key)
            if e is None:
                e = index[key] = len(keys)
                keys.append(key)
                parent.append(head)
                step.append(k)
                w = words[head]
                if w and w[-1][0] == lab:
                    words.append(w[:-1] + [(lab, w[-1][1] + 1)])
                else:
                    words.append(w + [(lab, 1)])
            right[k].append(e)
        head += 1

    n = len(keys)
    right_arr = np.array(right, dtype=np.int32)
    mult = np.empty((n, n), dtype=np.int32)
    mult[:, 0] = np.arange(n)
    for e in range(1, n):
        # a * e = (a * parent[e]) * gens[step[e]]
        mult[:, e] = right_arr[step[e]][mult[:, parent[e]]]
    return GroupTable(
        order=n,
        mult=mult,
        inv=mult.argmin(axis=1).astype(np.int32),  # the one 0 in each row
        generators=[(lab, right[k][0]) for k, lab in enumerate(labels)],
        words=[format_word(w) for w in words],
        name=name,
    )


# ---------------------------------------------------------------------------
# Named groups
# ---------------------------------------------------------------------------

# Largest n accepted in cyclic:n and dihedral:n, checked before anything is
# built: the table then takes 64 MB.
MAX_ORDER = 4096

# token -> (a, b, r, s) of _metacyclic
_METACYCLIC = {
    "klein4": (2, 2, 1, 0),
    "elem_abelian_9": (3, 3, 1, 0),
    "quaternion8": (4, 2, -1, 2),
    "c4_semidirect_c4": (4, 4, -1, 0),
}

# Generators (x, y) of the groups that are not metacyclic.  heisenberg27 acts
# on F_3^2, point 3u + v: x maps (u, v) to (u + 1, v) and y to (u, v + u).
# The order-16/32 groups act regularly, with generators satisfying (derived
# once by coset enumeration, validated in tests/test_groups.py):
#   order 16: o(x)=o(y)=4, o(xy)=2, y=x^2yx^2, x=y^2xy^2
#   order 32: o(x)=o(y)=o(xy)=o(yx)=o(x^2y)=4, y=x^2yx^2, x=y^2xy^2
_PERMUTATIONS = {
    "alternating4": ([1, 2, 0, 3], [1, 0, 3, 2]),
    "heisenberg27": ([3, 4, 5, 6, 7, 8, 0, 1, 2], [0, 1, 2, 4, 5, 3, 8, 6, 7]),
    "smallgroup:16:3": ([1, 2, 3, 0, 14, 11, 8, 6, 9, 7, 5, 15, 4, 12, 13, 10],
                        [4, 7, 13, 8, 5, 6, 0, 11, 10, 2, 14, 12, 1, 15, 3, 9]),
    "smallgroup:32:2": ([1, 5, 0, 10, 13, 2, 17, 20, 18, 21, 15, 3, 19, 16, 4, 11,
                         14, 8, 6, 27, 9, 7, 12, 28, 29, 30, 31, 22, 25, 26, 23, 24],
                        [3, 6, 8, 12, 0, 15, 19, 1, 22, 2, 23, 25, 4, 24, 26, 27,
                         5, 28, 30, 7, 29, 31, 9, 13, 10, 14, 11, 16, 20, 17, 21, 18]),
}


def _metacyclic(a: int, b: int, r: int, s: int, name: str) -> GroupTable:
    """<x, y | x^a, y^b = x^s, y^-1 x y = x^r>, through the left translations
    on the normal forms y^j x^i (point j*a + i); only x when b = 1."""
    x = [j * a + (i + r ** j) % a for j in range(b) for i in range(a)]
    y = [(j + 1) * a + i if j + 1 < b else (i + s) % a for j in range(b) for i in range(a)]
    if b == 1:
        return group_from_permutations([x], ["x"], name=name)
    return group_from_permutations([x, y], ["x", "y"], name=name)


def named_group(token: str) -> GroupTable:
    """Build the GroupTable of a named group from its lower-case token; the
    table's name is the canonical token (``cyclic:07`` names ``cyclic:7``)."""
    kind, *args = token.split(":")
    try:
        nums = [int(arg) for arg in args]
    except ValueError:
        raise InvalidParameter(f"group token {token!r}: expected integers after {kind!r}") from None
    token = ":".join([kind, *map(str, nums)])
    if kind in ("cyclic", "dihedral") and len(nums) == 1:
        n = nums[0]
        if n > MAX_ORDER:
            raise TooLarge(f"{token}: order {n} is above the limit {MAX_ORDER}")
        if kind == "cyclic":
            if n < 1:
                raise InvalidParameter(f"{token}: cyclic order must be >= 1")
            return _metacyclic(n, 1, 1, 0, token)
        if n < 4 or n % 2:
            raise InvalidParameter(
                f"{token}: D_n means the dihedral group of ORDER n; n must be even and >= 4"
            )
        return _metacyclic(n // 2, 2, -1, 0, token)
    if token in _METACYCLIC:
        return _metacyclic(*_METACYCLIC[token], token)
    if token in _PERMUTATIONS:
        g = group_from_permutations(_PERMUTATIONS[token], ["x", "y"], name=token)
        if token == "heisenberg27":
            # z is the derived commutator word [x, y] = x^-1 y^-1 x y
            g.generators.append(("z", g.evaluate_word("x^-1*y^-1*x*y")))
        return g
    raise InvalidParameter(f"unrecognized group token {token!r}")


def group_from_token(token: str) -> GroupTable:
    """The named group of a text token such as ``cyclic:12``, ``dihedral:8``
    or ``smallgroup:16:3``; case and surrounding blanks do not matter."""
    token = token.strip().lower()
    return named_group("cyclic:1" if token in ("trivial", "1") else token)


def in_phi(g: GroupTable) -> bool:
    """Membership in the class of 2-generated groups in which every
    generating pair has element orders <= 4 and some pair reaches order 4.

    Cyclic groups are treated as outside the class by convention: the
    two-generator classification assumes G is not generated by one element.
    """
    pairs = g.generating_pairs()
    if not pairs:
        raise NotTwoGenerated("group is not generated by two elements")
    if any(g.generates((a,)) for a in range(g.order)):
        return False
    saw_order4 = False
    for a, b in pairs:
        oa, ob = g.element_order(a), g.element_order(b)
        if oa > 4 or ob > 4:
            return False
        if oa == 4 or ob == 4:
            saw_order4 = True
    return saw_order4


def group_automorphisms(g: GroupTable) -> list[np.ndarray]:
    """All automorphisms of G, as permutations of element indices.

    Brute force over images of the first two generators, every candidate
    image pair (same element orders, in ``product`` order) at once: along
    the breadth-first tree over the generators, e = p * x_k gets
    phi(e) = phi(p) * image_k.  A candidate is kept when phi is a bijection
    with phi(a * x_k) = phi(a) * image_k for every a and k, which makes it a
    homomorphism by induction on word length.  Suitable for the small orders
    used here (n <= 100 or so).
    """
    gens = [idx for _, idx in g.generators[:2]]
    n = g.order
    # breadth-first tree: tree[i] = (e, parent, k) with e = parent * gens[k]
    seen = {g.identity}
    queue = [g.identity]
    tree = []
    for p in queue:
        for k, x in enumerate(gens):
            e = int(g.mult[p, x])
            if e not in seen:
                seen.add(e)
                queue.append(e)
                tree.append((e, p, k))
    if len(seen) != n:
        raise InvalidParameter("group_automorphisms needs G generated by its first two generators")
    candidates = [
        [a for a in range(n) if g.element_order(a) == g.element_order(x)] for x in gens
    ]
    images = np.array(list(product(*candidates)), dtype=np.int64).reshape(-1, len(gens))
    phi = np.empty((len(images), n), dtype=np.int64)
    phi[:, g.identity] = g.identity
    for e, p, k in tree:
        phi[:, e] = g.mult[phi[:, p], images[:, k]]
    ok = (np.sort(phi, axis=1) == np.arange(n)).all(axis=1)
    for k, x in enumerate(gens):
        ok &= (phi[:, g.mult[:, x]] == g.mult[phi, images[:, k, None]]).all(axis=1)
    return list(phi[ok])
