"""Catalog constructions, classification, and the verification suite."""

from __future__ import annotations

import dataclasses
import json

import pytest

from posr import catalog
from posr.autgroup import automorphism_group, is_semiregular_rep
from posr.catalog import (
    Claim,
    SuiteBudget,
    _parse_claims,
    _run_claim,
    classify,
    cyclic_posr_sets,
    fixed_digraph,
    load_claims,
    pdr_candidates,
    two_gen_2posr_candidates,
    two_gen_mposr_sets,
    verify_all,
)
from posr.cayley import build_cayley, validate_sets
from posr.errors import InvalidParameter, NoCandidate, OutOfRange, PreconditionFailed
from posr.groups import group_from_token
from posr.search import verify_witness

from oracles import degrees, digons


def test_cyclic_sets_shapes():
    conn = cyclic_posr_sets(7, 2)
    g = group_from_token("cyclic:7")
    assert conn.cell(1, 0) == tuple(sorted(g.evaluate_word(w) for w in ("x", "x^3", "x^4")))
    conn8 = cyclic_posr_sets(8, 2)
    g8 = group_from_token("cyclic:8")
    assert conn8.cell(1, 0) == tuple(sorted(g8.evaluate_word(w) for w in ("x", "x^2", "x^4")))
    assert cyclic_posr_sets(4, 3).size_matrix() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]


@pytest.mark.parametrize("n,m", [(7, 2), (9, 2), (4, 3), (6, 3), (3, 4), (3, 5), (4, 6), (3, 8)])
def test_cyclic_sets_validate(n, m):
    g = group_from_token(f"cyclic:{n}")
    report = validate_sets(g, cyclic_posr_sets(n, m), 3)
    assert report.oriented and report.partite and report.regular


@pytest.mark.parametrize("n,m", [(6, 2), (3, 3), (2, 4), (2, 3)])
def test_cyclic_sets_out_of_range(n, m):
    with pytest.raises(OutOfRange):
        cyclic_posr_sets(n, m)


def test_two_gen_candidates_named_first():
    g = group_from_token("dihedral:8")
    first = two_gen_2posr_candidates(g)[0]
    expected = {g.evaluate_word(w) for w in ("1", "x", "x*y")}
    assert set(first.cell(0, 1)) == expected


def test_two_gen_candidates_dihedral12_family():
    g = group_from_token("dihedral:12")
    conns = two_gen_2posr_candidates(g)
    tgt_01 = {g.evaluate_word(w) for w in ("1", "x", "y")}
    tgt_10 = {g.evaluate_word(w) for w in ("x", "x^2", "x^3")}
    assert any(set(c.cell(0, 1)) == tgt_01 and set(c.cell(1, 0)) == tgt_10 for c in conns)


def test_two_gen_candidates_all_validate():
    for token in ("dihedral:8", "dihedral:10", "elem_abelian_9", "alternating4", "heisenberg27"):
        g = group_from_token(token)
        for conn in two_gen_2posr_candidates(g):
            report = validate_sets(g, conn, 3)
            assert report.oriented and report.partite and report.regular


def test_two_gen_candidates_none_for_klein4():
    with pytest.raises(NoCandidate):
        two_gen_2posr_candidates(group_from_token("klein4"))


def test_two_gen_candidates_none_for_one_generator():
    # cyclic:7 has no generator y: that is no candidate, not an error
    with pytest.raises(NoCandidate):
        two_gen_2posr_candidates(group_from_token("cyclic:7"))


def test_chain_construction_preconditions():
    with pytest.raises(PreconditionFailed):
        two_gen_mposr_sets(group_from_token("klein4"), 3)
    with pytest.raises(PreconditionFailed):
        two_gen_mposr_sets(group_from_token("quaternion8"), 2)


def test_chain_construction_validates():
    for token in ("quaternion8", "dihedral:8", "elem_abelian_9"):
        g = group_from_token(token)
        for m in (3, 5):
            report = validate_sets(g, two_gen_mposr_sets(g, m), 3)
            assert report.oriented and report.partite and report.regular


def test_pdr_candidates_posr_witness_first():
    g = group_from_token("cyclic:7")
    conns = pdr_candidates(g, 2)
    assert conns[0] == cyclic_posr_sets(7, 2)


def test_pdr_candidates_q8_family():
    g = group_from_token("quaternion8")
    conns = pdr_candidates(g, 2)
    tgt = {g.evaluate_word(w) for w in ("1", "x^-1", "x^-2")}
    assert any(set(c.cell(1, 0)) == tgt for c in conns)


def test_fixed_digraphs_structure():
    byname = {name: fixed_digraph(name) for name in ("fig1_9", "fig1_10", "gamma7", "gamma8")}
    for name, d in byname.items():
        assert degrees(d) == ([3] * d.n, [3] * d.n)
        assert automorphism_group(d).order == 1
    for name in ("fig1_9", "fig1_10"):
        assert digons(byname[name]) == []
    # gamma7 is NOT oriented: it has exactly these four digons
    assert digons(byname["gamma7"]) == [(0, 6), (1, 3), (1, 4), (2, 5)]
    assert (0, 2) in byname["fig1_9"].arcs() and (0, 9) in byname["fig1_10"].arcs()
    assert (0, 1) in byname["gamma8"].arcs()  # 1 -> 2 in the 1-based source labels
    with pytest.raises(InvalidParameter):
        fixed_digraph("gamma9")


@pytest.mark.parametrize("token,m,kind,answer,cite", [
    ("cyclic:6", 2, "POSR", "No", "Theorem 1.1(i)"),
    ("cyclic:7", 2, "POSR", "Yes", "Theorem 1.1"),
    ("cyclic:3", 3, "POSR", "No", "Theorem 1.1(ii)"),
    ("cyclic:4", 3, "POSR", "Yes", "Theorem 1.1"),
    ("cyclic:2", 4, "POSR", "No", "Theorem 1.1(iii)"),
    ("cyclic:2", 5, "POSR", "Yes", "Theorem 1.1"),
    ("trivial", 6, "POSR", "No", "Theorem 1.1(iv)"),
    ("trivial", 9, "POSR", "Yes", "Theorem 1.1"),
    ("cyclic:4", 2, "PDR", "No", "Corollary 1.6(1)(i)"),
    ("cyclic:5", 2, "PDR", "Yes", "Theorem 1.5 / Corollary 1.6(1)"),
    ("cyclic:2", 3, "PDR", "No", "Corollary 1.6(1)(ii)"),
    ("trivial", 5, "PDR", "No", "Corollary 1.6(1)(iii)"),
    ("quaternion8", 2, "POSR", "No", "Theorem 1.2"),
    ("quaternion8", 3, "POSR", "Yes", "Theorem 1.4"),
    ("dihedral:8", 2, "POSR", "Yes", "Theorem 1.2"),
    ("dihedral:12", 2, "POSR", "Yes", "Theorem 1.3"),
    ("klein4", 2, "POSR", "No", "Theorem 1.3"),
    ("dihedral:6", 2, "POSR", "No", "Theorem 1.3"),
    ("klein4", 2, "PDR", "No", "Corollary 1.6(2)"),
    ("dihedral:6", 2, "PDR", "Yes", "Corollary 1.6(2)"),
])
def test_classify_table(token, m, kind, answer, cite):
    verdict = classify(group_from_token(token), m, kind)
    assert verdict.answer == answer
    assert verdict.citation == cite


def test_verify_witness_skips_bad_candidates():
    # the published dihedral:6 cells validate, but their digraph has aut
    # order 12; the corrected cells listed after them verify
    g = group_from_token("dihedral:6")
    published, corrected = pdr_candidates(g, 2)
    assert validate_sets(g, published, 3).ok_for("PDR")
    verdict = verify_witness(g, published, "PDR", 3)
    assert not verdict.is_representation and verdict.aut_order == 12
    assert verify_witness(g, corrected, "PDR", 3).is_representation
    assert is_semiregular_rep(build_cayley(g, corrected), g).is_representation


def test_claims_registry_well_formed():
    claims = load_claims()
    assert len(claims) > 40
    names = [c.name for c in claims]
    assert len(set(names)) == len(names)
    for c in claims:
        assert c.tier in ("default", "extended")
        assert c.expected in (
            "exists_with_witness", "not_exists", "rigid_digraph",
        )
        assert c.source
        if c.expected == "exists_with_witness":
            assert c.sets is not None and c.group and c.m >= 2


def test_unknown_claim_option_rejected():
    claim = {"name": "q8-none", "tier": "extended", "expected": "not_exists",
             "kind": "POSR", "group": "quaternion8", "m": 2, "source": "Theorem 1.2"}
    assert _parse_claims(json.dumps({"claims": [claim]}))[0].options == {}
    known = {**claim, "options": {"valency": 3, "oriented": True}}
    assert _parse_claims(json.dumps({"claims": [known]}))[0].options["valency"] == 3
    # an option that no check reads would be silently ignored
    stale = {**claim, "options": {"valency": 3, "naive": True}}
    with pytest.raises(InvalidParameter, match="naive"):
        _parse_claims(json.dumps({"claims": [stale]}))


def test_negative_control_corrupted_witness():
    base = next(c for c in load_claims() if c.name == "dihedral8-m2-posr")
    sets = [[list(cell) for cell in row] for row in base.sets["sets"]]
    # put the identity into T_{1,0}: T_{0,1} also contains it, which creates
    # a digon, so the POSR claim must fail validation
    sets[1][0][0] = "1"
    bad = Claim(name="corrupted", tier="default", expected="exists_with_witness",
                kind="POSR", group="dihedral:8", m=2, sets={"m": 2, "sets": sets})
    result = _run_claim(bad, SuiteBudget())
    assert result.status == "Fail"


def test_negative_control_rigid_digraphs(monkeypatch):
    # a rigid digraph claim is decided as a representation of the trivial
    # group: gamma7 is rigid and 3-regular, but its digons fail an oriented
    # claim, and a loop is a non-partite cell
    base = next(c for c in load_claims() if c.name == "gamma7-rigid")
    assert _run_claim(base, SuiteBudget()).detail == "aut order 1"
    oriented = dataclasses.replace(base, options={"oriented": True, "valency": 3})
    result = _run_claim(oriented, SuiteBudget())
    assert (result.status, result.detail) == ("Fail", "witness sets fail validation")
    # 3-regular, each vertex with a loop
    monkeypatch.setitem(catalog._FIXED, "loops4", {v: (v, (v + 1) % 4, (v + 2) % 4)
                                                   for v in range(4)})
    looped = dataclasses.replace(base, digraph="loops4")
    result = _run_claim(looped, SuiteBudget())
    assert (result.status, result.detail) == ("Fail", "witness sets fail validation")
    # a rigid digraph of the wrong valency fails too
    wrong_k = dataclasses.replace(base, options={"oriented": False, "valency": 2})
    assert _run_claim(wrong_k, SuiteBudget()).status == "Fail"
    # a regular digraph with automorphisms fails with the extra automorphism
    monkeypatch.setitem(catalog._FIXED, "circulant7", {v: tuple((v + s) % 7 for s in (1, 2, 4))
                                                       for v in range(7)})
    result = _run_claim(dataclasses.replace(base, digraph="circulant7"), SuiteBudget())
    assert (result.status, result.detail) == ("Fail", "aut order 21, expected 1")
    assert result.evidence["extra_automorphism"] is not None


def test_verify_all_default_tier():
    report = verify_all(SuiteBudget(tier="default"))
    statuses = {r.name: r.status for r in report.results}
    # extended-tier claims are skipped, never failed, under the default budget
    assert statuses["smallgroup322-m2-posr-none"] == "Skip"
    # the sole default-tier failure: the registry's 6-part digon-allowed
    # nonexistence entry, refuted by exhaustive search (see README)
    assert [r.name for r in report.failures] == ["trivial-m6-pdr-none"]
    counts = report.counts()
    assert counts["Fail"] == 1 and counts["Pass"] == len(report.results) - 1 - counts["Skip"]
    assert "trivial-m6-pdr-none" in report.to_table()
    assert report.to_json()["counts"] == counts
