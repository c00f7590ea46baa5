"""Finite groups as concrete multiplication tables.

Elements are indices 0..n-1 with 0 always the identity.  Tables are built
from explicit permutation generators; the element numbering is the
breadth-first order over generator words (identity first, then generator
images in input order), so two builds from the same input agree exactly.

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

from .errors import (
    ClosureCapExceeded,
    EmptyGeneratorList,
    InvalidParameter,
    NotTwoGenerated,
    UnknownGenerator,
)

DEFAULT_CLOSURE_CAP = 100_000

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
    labels: Sequence[str] | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
    name: str = "",
) -> GroupTable:
    """Build the multiplication table of the group generated by permutations.

    The group product a*b is function composition "apply b, then a", so a
    word evaluates left-to-right as usual.  Element numbering is BFS over
    words: identity first, then products word*generator in discovery order.
    """
    if not gens:
        raise EmptyGeneratorList("need at least one generator permutation")
    degree = len(gens[0])
    perms = []
    for p in gens:
        arr = np.asarray(p, dtype=np.int64)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise InvalidParameter("generators must be permutations of a common point set")
        perms.append(arr)
    if labels is None:
        labels = ["x", "y", "z", "w"][: len(perms)] or ["x"]
    if len(labels) != len(perms):
        raise InvalidParameter("one label per generator required")

    identity = np.arange(degree)
    elems: list[np.ndarray] = [identity]
    index: dict[bytes, int] = {identity.tobytes(): 0}
    words: list[list[tuple[str, int]]] = [[]]
    head = 0
    while head < len(elems):
        base = elems[head]
        for lab, gp in zip(labels, perms):
            # word w*g with composition convention new[i] = base[gp[i]]
            new = base[gp]
            key = new.tobytes()
            if key not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded(f"closure exceeded cap {cap}")
                index[key] = len(elems)
                elems.append(new)
                words.append(words[head] + [(lab, 1)])
        head += 1

    n = len(elems)
    mult = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        pa = elems[a]
        for b in range(n):
            # (a*b) acts as "apply b, then a": perm[i] = pa[pb[i]]
            mult[a, b] = index[pa[elems[b]].tobytes()]
    inv = np.empty(n, dtype=np.int32)
    for a in range(n):
        row = mult[a]
        inv[a] = int(np.nonzero(row == 0)[0][0])

    gen_indices = [(lab, index[gp.tobytes()]) for lab, gp in zip(labels, perms)]
    word_strs = [format_word(_compress(w)) for w in words]
    return GroupTable(
        order=n,
        mult=mult,
        inv=inv,
        generators=gen_indices,
        words=word_strs,
        name=name,
    )


def _compress(pairs: list[tuple[str, int]]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for label, exp in pairs:
        if out and out[-1][0] == label:
            out[-1] = (label, out[-1][1] + exp)
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append((label, exp))
    return out


# ---------------------------------------------------------------------------
# Named groups
# ---------------------------------------------------------------------------

# Regular permutation representations of the two order-16/32 groups with
# generators satisfying (derived once by coset enumeration, validated in
# tests/test_groups.py):
#   order 16: o(x)=o(y)=4, o(xy)=2, y=x^2yx^2, x=y^2xy^2
#   order 32: o(x)=o(y)=o(xy)=o(yx)=o(x^2y)=4, y=x^2yx^2, x=y^2xy^2
_SG16_3_X = [1, 2, 3, 0, 14, 11, 8, 6, 9, 7, 5, 15, 4, 12, 13, 10]
_SG16_3_Y = [4, 7, 13, 8, 5, 6, 0, 11, 10, 2, 14, 12, 1, 15, 3, 9]
_SG32_2_X = [1, 5, 0, 10, 13, 2, 17, 20, 18, 21, 15, 3, 19, 16, 4, 11,
             14, 8, 6, 27, 9, 7, 12, 28, 29, 30, 31, 22, 25, 26, 23, 24]
_SG32_2_Y = [3, 6, 8, 12, 0, 15, 19, 1, 22, 2, 23, 25, 4, 24, 26, 27,
             5, 28, 30, 7, 29, 31, 9, 13, 10, 14, 11, 16, 20, 17, 21, 18]


@dataclass(frozen=True)
class GroupSpec:
    """A parsed description of a supported named group."""

    kind: str
    n: int = 0

    def token(self) -> str:
        if self.kind == "cyclic":
            return f"cyclic:{self.n}"
        if self.kind == "dihedral":
            return f"dihedral:{self.n}"
        if self.kind == "smallgroup_16_3":
            return "smallgroup:16:3"
        if self.kind == "smallgroup_32_2":
            return "smallgroup:32:2"
        return self.kind


_SIMPLE_KINDS = {
    "klein4",
    "elem_abelian_9",
    "quaternion8",
    "alternating4",
    "heisenberg27",
    "c4_semidirect_c4",
}


def parse_group_spec(token: str) -> GroupSpec:
    """Parse a text token like ``cyclic:12``, ``dihedral:8``, ``smallgroup:16:3``."""
    token = token.strip().lower()
    if token in ("trivial", "1"):
        return GroupSpec("cyclic", 1)
    if token in _SIMPLE_KINDS:
        return GroupSpec(token)
    parts = token.split(":")
    if parts[0] == "cyclic" and len(parts) == 2:
        n = int(parts[1])
        if n < 1:
            raise InvalidParameter("cyclic order must be >= 1")
        return GroupSpec("cyclic", n)
    if parts[0] == "dihedral" and len(parts) == 2:
        n = int(parts[1])
        if n < 4 or n % 2:
            raise InvalidParameter(
                f"dihedral:{n}: D_n means the dihedral group of ORDER n; n must be even and >= 4"
            )
        return GroupSpec("dihedral", n)
    if parts[0] == "smallgroup" and len(parts) == 3:
        key = (int(parts[1]), int(parts[2]))
        if key == (16, 3):
            return GroupSpec("smallgroup_16_3")
        if key == (32, 2):
            return GroupSpec("smallgroup_32_2")
        raise InvalidParameter(f"unsupported smallgroup:{parts[1]}:{parts[2]}")
    raise InvalidParameter(f"unrecognized group token {token!r}")


def _cycle(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def _structural_regular_gens(elements, mul, gens):
    """Left-translation permutations of chosen generators on an element list."""
    idx = {e: i for i, e in enumerate(elements)}
    out = []
    for g in gens:
        out.append([idx[mul(g, e)] for e in elements])
    return out


def _quaternion8_gens():
    # elements x^a y^b with a in Z4, b in Z2; y^2 = x^2, y x = x^-1 y
    elements = [(a, b) for b in range(2) for a in range(4)]

    def mul(u, v):
        (a, b), (c, d) = u, v
        a2 = (a + (c if b == 0 else -c)) % 4
        b2 = b + d
        if b2 == 2:
            return ((a2 + 2) % 4, 0)
        return (a2, b2)

    return _structural_regular_gens(elements, mul, [(1, 0), (0, 1)])


def _heisenberg27_gens():
    # upper unitriangular 3x3 over F3, coordinates (a, b, c)
    elements = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def mul(u, v):
        (a, b, c), (d, e, f) = u, v
        return ((a + d) % 3, (b + e) % 3, (c + f + a * e) % 3)

    return _structural_regular_gens(elements, mul, [(1, 0, 0), (0, 1, 0)])


def named_group(spec: GroupSpec) -> GroupTable:
    """Build the GroupTable of a named group with distinguished generators."""
    if spec.kind == "cyclic":
        n = spec.n
        if n == 1:
            g = group_from_permutations([[0]], ["x"], name="cyclic:1")
        else:
            g = group_from_permutations([_cycle(n)], ["x"], name=f"cyclic:{n}")
        return g
    if spec.kind == "klein4":
        return group_from_permutations(
            [[1, 0, 2, 3], [0, 1, 3, 2]], ["x", "y"], name="klein4"
        )
    if spec.kind == "elem_abelian_9":
        return group_from_permutations(
            [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]], ["x", "y"], name="elem_abelian_9"
        )
    if spec.kind == "dihedral":
        n = spec.n
        k = n // 2
        if k == 2:
            # D_4 is the Klein group; keep x of order 2
            return group_from_permutations(
                [[1, 0, 2, 3], [0, 1, 3, 2]], ["x", "y"], name="dihedral:4"
            )
        rot = _cycle(k)
        refl = [(-i) % k for i in range(k)]
        return group_from_permutations([rot, refl], ["x", "y"], name=f"dihedral:{n}")
    if spec.kind == "quaternion8":
        return group_from_permutations(_quaternion8_gens(), ["x", "y"], name="quaternion8")
    if spec.kind == "alternating4":
        return group_from_permutations(
            [[1, 2, 0, 3], [1, 0, 3, 2]], ["x", "y"], name="alternating4"
        )
    if spec.kind == "heisenberg27":
        g = group_from_permutations(_heisenberg27_gens(), ["x", "y"], name="heisenberg27")
        # z is the derived commutator word [x, y] = x^-1 y^-1 x y
        z = g.evaluate_word("x^-1*y^-1*x*y")
        g.generators.append(("z", z))
        return g
    if spec.kind == "c4_semidirect_c4":
        # x^a y^b with y^-1 x y = x^-1: (a,b)(a',b') = (a + (-1)^b a', b + b')
        elements = [(a, b) for b in range(4) for a in range(4)]

        def mul(p, q):
            a, b = p
            c, d = q
            return ((a + (c if b % 2 == 0 else -c)) % 4, (b + d) % 4)

        gens = _structural_regular_gens(elements, mul, [(1, 0), (0, 1)])
        return group_from_permutations(gens, ["x", "y"], name="c4_semidirect_c4")
    if spec.kind == "smallgroup_16_3":
        return group_from_permutations(
            [_SG16_3_X, _SG16_3_Y], ["x", "y"], name="smallgroup:16:3"
        )
    if spec.kind == "smallgroup_32_2":
        return group_from_permutations(
            [_SG32_2_X, _SG32_2_Y], ["x", "y"], name="smallgroup:32:2"
        )
    raise InvalidParameter(f"unknown group kind {spec.kind!r}")


def group_from_token(token: str) -> GroupTable:
    return named_group(parse_group_spec(token))


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
