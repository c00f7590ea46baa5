"""Group table construction and the named groups."""

from __future__ import annotations

import hashlib
import json
import time
from itertools import product

import numpy as np
import pytest

from posr.errors import InvalidParameter, NotTwoGenerated, TooLarge, UnknownGenerator
from posr.groups import (
    group_automorphisms,
    group_from_permutations,
    group_from_token,
    in_phi,
    parse_word,
)

from oracles import check_relations

ALL_TOKENS = [
    "cyclic:1", "cyclic:7", "cyclic:12", "klein4", "elem_abelian_9",
    "dihedral:6", "dihedral:8", "dihedral:10", "dihedral:12",
    "quaternion8", "alternating4", "heisenberg27", "c4_semidirect_c4",
    "smallgroup:16:3", "smallgroup:32:2",
]


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_table_axioms(token):
    g = group_from_token(token)
    n = g.order
    mult = g.mult
    # Latin square
    for row in mult:
        assert sorted(row) == list(range(n))
    for col in mult.T:
        assert sorted(col) == list(range(n))
    # identity and inverses
    assert all(mult[0][e] == e and mult[e][0] == e for e in range(n))
    assert all(mult[e][g.inv[e]] == 0 and mult[g.inv[e]][e] == 0 for e in range(n))
    # associativity in full (every catalog group has n <= 64)
    assert n <= 64
    a = mult[mult][:, :, :]  # (a*b)*c for all triples
    b = mult[:, mult]        # a*(b*c)
    assert np.array_equal(a, b)
    # generators generate
    assert g.generates([idx for _, idx in g.generators])


def test_bfs_numbering_deterministic():
    gens = [[1, 2, 3, 0], [0, 2, 1, 3]]
    g1 = group_from_permutations(gens, ["x", "y"])
    g2 = group_from_permutations(gens, ["x", "y"])
    assert np.array_equal(g1.mult, g2.mult)
    assert g1.words == g2.words


def test_cyclic_7_from_cycle():
    g = group_from_permutations([[(i + 1) % 7 for i in range(7)]], ["x"])
    assert g.order == 7
    assert g.element_order(g.generator("x")) == 7


def test_d8_from_permutations():
    g = group_from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]], ["x", "y"])
    assert g.order == 8
    assert g.element_order(g.generator("x")) == 4
    assert g.element_order(g.generator("y")) == 2
    assert g.evaluate_word("x*y*x") == g.evaluate_word("y^-1")


NAMED_RELATIONS = {
    "dihedral:8": [("x^4", "1"), ("y^2", "1"), ("x*y*x", "y^-1")],
    "quaternion8": [("x^4", "1"), ("x^2", "y^2"), ("y^-1*x*y", "x^-1")],
    "alternating4": [("x^3", "1"), ("y^2", "1"), ("x*y*x*y*x*y", "1")],
    "heisenberg27": [
        ("x^3", "1"), ("y^3", "1"), ("z^3", "1"),
        ("x^-1*y^-1*x*y", "z"), ("x^-1*z^-1*x*z", "1"), ("y^-1*z^-1*y*z", "1"),
    ],
    "c4_semidirect_c4": [("x^4", "1"), ("y^4", "1"), ("y^-1*x*y", "x^-1")],
    "smallgroup:16:3": [
        ("x^4", "1"), ("y^4", "1"), ("x*y*x*y", "1"),
        ("x^2*y*x^2", "y"), ("y^2*x*y^2", "x"),
    ],
    "smallgroup:32:2": [
        ("x^4", "1"), ("y^4", "1"), ("x^2*y*x^2", "y"), ("y^2*x*y^2", "x"),
    ],
}

EXPECTED_ORDER = {
    "dihedral:8": 8, "quaternion8": 8, "alternating4": 12, "heisenberg27": 27,
    "c4_semidirect_c4": 16, "smallgroup:16:3": 16, "smallgroup:32:2": 32,
}


@pytest.mark.parametrize("token", sorted(NAMED_RELATIONS))
def test_named_group_presentations(token):
    g = group_from_token(token)
    assert g.order == EXPECTED_ORDER[token]
    assert check_relations(g, NAMED_RELATIONS[token])


def test_smallgroup_32_2_word_orders():
    g = group_from_token("smallgroup:32:2")
    for w in ("x", "y", "x*y", "y*x", "x^2*y"):
        assert g.element_order(g.evaluate_word(w)) == 4


def test_smallgroup_16_3_xy_order_2():
    g = group_from_token("smallgroup:16:3")
    assert g.element_order(g.evaluate_word("x*y")) == 2


def test_element_order_lagrange():
    for token in ("dihedral:12", "alternating4", "smallgroup:16:3"):
        g = group_from_token(token)
        for e in range(g.order):
            assert g.order % g.element_order(e) == 0


def test_evaluate_word_errors_and_identity():
    g = group_from_token("cyclic:5")
    assert g.evaluate_word("1") == 0
    assert g.evaluate_word("x^-1") == g.inverse(g.generator("x"))
    with pytest.raises(UnknownGenerator):
        g.evaluate_word("q")


def test_generating_pairs_klein4():
    g = group_from_token("klein4")
    pairs = g.generating_pairs()
    assert len(pairs) == 6
    assert all(a != b and a != 0 and b != 0 for a, b in pairs)


def test_generating_pairs_trivial():
    g = group_from_token("cyclic:1")
    assert g.generating_pairs() == [(0, 0)]


def test_generating_pairs_quaternion8():
    g = group_from_token("quaternion8")
    for a, b in g.generating_pairs():
        assert g.element_order(a) == 4 and g.element_order(b) == 4
        assert b not in {g.power(a, k) for k in range(4)}


@pytest.mark.parametrize("token,expected", [
    ("quaternion8", True),
    ("dihedral:8", True),
    ("c4_semidirect_c4", True),
    ("smallgroup:16:3", True),
    ("smallgroup:32:2", True),
    ("dihedral:12", False),
    ("alternating4", False),
    ("elem_abelian_9", False),
])
def test_in_phi(token, expected):
    assert in_phi(group_from_token(token)) is expected


def test_in_phi_cyclic_is_false():
    # cyclic groups are excluded from the Phi class by convention
    assert in_phi(group_from_token("cyclic:4")) is False


def test_in_phi_not_two_generated():
    g = group_from_permutations(
        [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]],
        ["x", "y", "z"],
    )  # C2^3 needs three generators
    with pytest.raises(NotTwoGenerated):
        in_phi(g)


def test_group_from_token_errors():
    for token in ("dihedral:7", "dihedral:2", "nonsense", "smallgroup:16:99",
                  "cyclic:0", "cyclic:abc", "dihedral:x", "smallgroup:16:q"):
        with pytest.raises(InvalidParameter, match=token):
            group_from_token(token)


def test_group_from_token_canonical_name():
    assert group_from_token(" Cyclic:07 ").name == "cyclic:7"
    assert group_from_token("trivial").name == group_from_token("1").name == "cyclic:1"


def test_order_limit_checked_before_building():
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        group_from_token("cyclic:100000")
    with pytest.raises(TooLarge):
        group_from_token("dihedral:100000")
    assert time.perf_counter() - start < 0.1


# sha256 of (order, mult, inv, generators, words, name) as JSON; the tables
# every witness, rank and candidate count rests on
TABLE_DIGESTS = {
    "cyclic:1": "4ab03c4f3e94612c8912b85c3fb640d1ebfdd1c97581b2b8b8e51b4ced97c298",
    "cyclic:7": "39486898d96a32f5f7867cab4c4d64a9962956840e8dc6f370523a1822e1d90d",
    "cyclic:12": "6d3d9900ea5f7a7a89993f97abcdb447de8ebb070c9c1108aad10027b8380da8",
    "klein4": "2441282583ee9c0edd5d4c60a37d2fcbdbc48a591a5f5d60ae7e9d71e30f336a",
    "elem_abelian_9": "fb1fcd86da65f114c3fbf147ea8d0f331e39f21bff756037add08f38571ca037",
    "dihedral:6": "ea63a516e126c77cbccc468a95f0d1b5d425b89588ae6eb50dae97b0ff20623d",
    "dihedral:8": "f9878e119579e27962e086496d9be08c9d2f9957f61757f35b54a7ddb9fdbb4a",
    "dihedral:10": "a4ead49888f06b163d0081e7c807d988338962b02d9583c0237453a812f7cb4a",
    "dihedral:12": "fe79bd761b806959601001a4c92db288cb46180931afe9321c0db684a03fb8c0",
    "quaternion8": "1a27a44514b64fa1153453178a189e8bbdda19c47358a564710bf49d87a5d0d2",
    "alternating4": "7eb0be2d2d49f191fc6e4117f17f1a1b4d4b7124ceb64fb2730755c69e4cadd5",
    "heisenberg27": "d8d0a4d8a1c5d413f1b900c774ef6ff2ce9a26c23bc265216f48845b5963029e",
    "c4_semidirect_c4": "6852c74f6d070164b332b002ca59ab01ae3bee7fe2439a44ef2dc201b8c4a0d0",
    "smallgroup:16:3": "1846299a47b57d98c9dd1b872269735a9e81671cc2ca360437abb154bd946e4d",
    "smallgroup:32:2": "6e8fd748afdeff5d31b61960e53785afbebe428df74d3bc788a57db6352a74fc",
    "dihedral:4": "a72bfba43ab67505eee6c698386143fc023f384d6e448990195496bffa0a2757",
    "trivial": "4ab03c4f3e94612c8912b85c3fb640d1ebfdd1c97581b2b8b8e51b4ced97c298",
    "1": "4ab03c4f3e94612c8912b85c3fb640d1ebfdd1c97581b2b8b8e51b4ced97c298",
}


@pytest.mark.parametrize("token", ALL_TOKENS + ["dihedral:4", "trivial", "1"])
def test_table_digest(token):
    g = group_from_token(token)
    blob = json.dumps([g.order, g.mult.tolist(), g.inv.tolist(), g.generators, g.words, g.name])
    assert hashlib.sha256(blob.encode()).hexdigest() == TABLE_DIGESTS[token]


def test_large_cyclic_table():
    g = group_from_token("cyclic:2000")
    x = g.generator("x")
    assert g.order == 2000 and g.element_order(x) == 2000
    # element k is x^k: the table is addition mod 2000
    k = np.arange(2000)
    assert np.array_equal(g.mult, (k[:, None] + k) % 2000)
    assert np.array_equal(g.inv, -k % 2000)


def test_dihedral_means_order_n():
    assert group_from_token("dihedral:12").order == 12


def test_group_automorphisms_klein4():
    # Aut(Z2^2) = S3
    assert len(group_automorphisms(group_from_token("klein4"))) == 6


def test_group_automorphisms_are_homomorphisms():
    g = group_from_token("quaternion8")
    for sigma in group_automorphisms(g):
        for a in range(g.order):
            for b in range(g.order):
                assert sigma[g.mul(a, b)] == g.mul(int(sigma[a]), int(sigma[b]))


@pytest.mark.parametrize("token", [
    "cyclic:1", "cyclic:12", "klein4", "dihedral:8", "quaternion8", "alternating4",
    "c4_semidirect_c4",
])
def test_group_automorphisms_match_plain_python(token):
    # every generator image pair, each element's word evaluated with
    # GroupTable.mul and the whole multiplication table checked
    g = group_from_token(token)
    gens = [label for label, _ in g.generators]
    words = [parse_word(w) for w in g.words]
    expected = []
    for images in product(range(g.order), repeat=len(gens)):
        image_of = dict(zip(gens, images))
        phi = []
        for word in words:
            acc = g.identity
            for label, exp in word:
                for _ in range(exp):
                    acc = g.mul(acc, image_of[label])
            phi.append(acc)
        if len(set(phi)) == g.order and all(
            phi[g.mul(a, b)] == g.mul(phi[a], phi[b])
            for a in range(g.order) for b in range(g.order)
        ):
            expected.append(phi)
    assert [sigma.tolist() for sigma in group_automorphisms(g)] == expected
