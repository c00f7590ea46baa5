"""Connection-set enumeration and the exhaustive searches."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from posr import autgroup, cayley, kernels, search
from posr.cayley import validate_sets
from posr.errors import InvalidParameter, WitnessRejected
from posr.groups import group_automorphisms, group_from_token
from posr.search import (
    _subset_image_table,
    count_connection_sets,
    enumerate_connection_sets,
    exists_antisymmetric_kregular,
    exists_mposr,
    verify_witness,
)


def test_enumeration_counts():
    assert count_connection_sets(group_from_token("klein4"), 2, 3) == 16
    assert count_connection_sets(group_from_token("cyclic:2"), 2, 3) == 0
    assert count_connection_sets(group_from_token("cyclic:6"), 2, 3) == 400
    # C(n,3)^2 for cyclic n >= 3 at m=2
    for n in (5, 7):
        g = group_from_token(f"cyclic:{n}")
        from math import comb

        assert count_connection_sets(g, 2, 3) == comb(n, 3) ** 2


def test_enumeration_matches_count_and_is_deterministic():
    g = group_from_token("cyclic:5")
    first = list(enumerate_connection_sets(g, 2, 3))
    second = list(enumerate_connection_sets(g, 2, 3))
    assert first == second
    assert len(first) == 100
    assert len(set(c.sets for c in first)) == 100
    for conn in first:
        report = validate_sets(g, conn, 3)
        assert report.partite and report.regular


def test_enumeration_oriented_filter():
    # over Z5 two 3-subsets always intersect, so no oriented candidate exists
    g5 = group_from_token("cyclic:5")
    assert list(enumerate_connection_sets(g5, 2, 3, require_oriented=True)) == []
    g = group_from_token("cyclic:6")
    oriented = list(enumerate_connection_sets(g, 2, 3, require_oriented=True))
    assert 0 < len(oriented) < 400
    from posr.cayley import sets_oriented

    assert all(sets_oriented(g, c) for c in oriented)


def test_exists_mposr_verdicts():
    assert exists_mposr(group_from_token("cyclic:6"), 2, 3, "POSR").status == "ExhaustedNone"
    out = exists_mposr(group_from_token("cyclic:7"), 2, 3, "POSR")
    assert out.status == "FoundWitness"
    assert verify_witness(group_from_token("cyclic:7"), out.witness, "POSR")
    assert exists_mposr(group_from_token("klein4"), 2, 3, "PDR").status == "ExhaustedNone"


def test_exists_mposr_invalid_kind():
    with pytest.raises(InvalidParameter):
        exists_mposr(group_from_token("cyclic:2"), 2, 3, "GRR")


def test_naive_pipeline_agrees():
    for token in ("cyclic:6", "klein4"):
        g = group_from_token(token)
        fast = exists_mposr(g, 2, 3, "POSR")
        slow = exists_mposr(g, 2, 3, "POSR", naive=True)
        assert fast.status == slow.status == "ExhaustedNone"
        assert fast.candidates_examined == slow.candidates_examined


def test_cursor_resume_partitions_the_run():
    g = group_from_token("cyclic:6")
    whole = exists_mposr(g, 2, 3, "POSR")
    first = exists_mposr(g, 2, 3, "POSR", cursor_stop=150)
    rest = exists_mposr(g, 2, 3, "POSR", cursor_start=150)
    assert first.candidates_examined + rest.candidates_examined == whole.candidates_examined


def test_aborted_reports_resume_cursor():
    g = group_from_token("cyclic:6")
    out = exists_mposr(g, 2, 3, "POSR", time_budget=0.0)
    assert out.status == "Aborted"
    assert out.resume_cursor is not None


def test_progress_reporting():
    seen = []
    exists_mposr(group_from_token("cyclic:6"), 2, 3, "POSR",
                 progress_every=100, progress_cb=seen.append)
    assert len(seen) == 4
    assert seen[0]["examined"] == 100 and seen[0]["total"] == 400


def test_aut_reduction_preserves_verdict():
    g = group_from_token("quaternion8")
    plain = exists_mposr(g, 2, 3, "POSR")
    reduced = exists_mposr(g, 2, 3, "POSR", reduce_by_group_auts=True)
    assert plain.status == reduced.status == "ExhaustedNone"
    assert reduced.candidates_examined < plain.candidates_examined


@pytest.mark.parametrize("token", ["quaternion8", "dihedral:8"])
def test_subset_image_table_matches_definition(token):
    g = group_from_token(token)
    auts = group_automorphisms(g)
    subsets = list(combinations(range(g.order), 3))
    index = {s: i for i, s in enumerate(subsets)}
    maps = _subset_image_table(auts, subsets, g.order, 3)
    assert maps.dtype == np.int32 and maps.shape == (len(auts), len(subsets))
    for a, sigma in enumerate(auts):
        for i, s in enumerate(subsets):
            assert maps[a, i] == index[tuple(sorted(int(sigma[e]) for e in s))]


@pytest.mark.parametrize("token, status, examined, witness", [
    pytest.param("cyclic:2", "ExhaustedNone", 0, None, id="cyclic:2"),
    pytest.param("quaternion8", "ExhaustedNone", 163, None, id="quaternion8"),
    pytest.param("dihedral:8", "FoundWitness", 31, [[[], [0, 1, 2]], [[1, 4, 5], []]],
                 id="dihedral:8"),
    pytest.param("smallgroup:32:2", "FoundWitness", 243, [[[], [0, 1, 2]], [[1, 2, 4], []]],
                 id="smallgroup:32:2"),
])
def test_aut_reduced_search_results(token, status, examined, witness):
    # the seeded one-pass check and the full unseeded solver agree
    for naive in (False, True):
        out = exists_mposr(group_from_token(token), 2, 3, "POSR",
                           reduce_by_group_auts=True, naive=naive)
        assert out.status == status
        assert out.candidates_examined == examined
        assert (out.witness.to_json()["sets"] if out.witness else None) == witness


@pytest.mark.parametrize("token,m,reduced,status,refines", [
    ("cyclic:2", 2, True, "ExhaustedNone", 0),
    ("quaternion8", 2, True, "ExhaustedNone", 133),
    ("dihedral:8", 2, True, "FoundWitness", 13),
    ("smallgroup:32:2", 2, True, "FoundWitness", 6),
    ("quaternion8", 2, False, "ExhaustedNone", 2176),
    ("klein4", 3, False, "FoundWitness", 276),
])
def test_seeded_pass_work_pinned(monkeypatch, token, m, reduced, status, refines):
    # the seeded one-pass check never records a generator, so the orbit
    # pruning below depth 0 costs it nothing: its refinement calls over a
    # whole search are pinned
    calls = []
    inner = []
    refine = kernels.refine_partition
    check = autgroup.find_nontrivial_automorphism

    def counting_refine(*args):
        calls.append(1)
        return refine(*args)

    def counting_check(*args, **kwargs):
        before = len(calls)
        result = check(*args, **kwargs)
        inner.append(len(calls) - before)
        return result

    monkeypatch.setattr(kernels, "refine_partition", counting_refine)
    monkeypatch.setattr(autgroup, "find_nontrivial_automorphism", counting_check)
    out = exists_mposr(group_from_token(token), m, 3, "POSR", reduce_by_group_auts=reduced)
    assert out.status == status
    assert sum(inner) == refines


def test_one_build_per_candidate(monkeypatch):
    builds = []

    def counting_build(g, conn):
        builds.append(conn)
        return build(g, conn)

    build = cayley.build_cayley
    monkeypatch.setattr(cayley, "build_cayley", counting_build)
    monkeypatch.setattr(search, "build_cayley", counting_build)
    g = group_from_token("cyclic:7")
    for naive in (False, True):
        for conn in list(enumerate_connection_sets(g, 2, 3))[:60]:
            before = len(builds)
            search._candidate_is_rep(g, conn, "PDR", 10**8, naive)
            assert builds[before:] == [conn]


def test_search_witness_rechecked(monkeypatch):
    # a seeded check that accepts everything must not leak a witness: the
    # unseeded re-check finds that cyclic:6 has no 2-POSR
    monkeypatch.setattr(search, "aut_is_translations", lambda pd, node_budget: True)
    with pytest.raises(WitnessRejected, match="re-check"):
        exists_mposr(group_from_token("cyclic:6"), 2, 3, "POSR")


def _fake_kernel_witness(masks):
    def search(m, k, oriented, lo, hi, budget):
        return 1, 1, np.asarray(masks, dtype=np.int64)
    return search


def _masks(m, arcs):
    masks = [0] * m
    for u, v in arcs:
        masks[u] |= 1 << v
    return masks


def test_kernel_witness_rechecked(monkeypatch):
    rigid = exists_antisymmetric_kregular(6, 3, False).witness
    # not regular: only vertex 0 has out-arcs
    monkeypatch.setattr(kernels, "regular_digraph_search",
                        _fake_kernel_witness(_masks(7, [(0, 1), (0, 2), (0, 3)])))
    with pytest.raises(WitnessRejected, match="regular"):
        exists_antisymmetric_kregular(7, 3, True)
    # 3-regular and oriented, but the circulant Cay(Z7, {1, 2, 4}) is not rigid
    circulant = [(v, (v + s) % 7) for v in range(7) for s in (1, 2, 4)]
    monkeypatch.setattr(kernels, "regular_digraph_search",
                        _fake_kernel_witness(_masks(7, circulant)))
    with pytest.raises(WitnessRejected, match="rigid"):
        exists_antisymmetric_kregular(7, 3, True)
    # a rigid 3-regular digraph on 6 vertices must have a digon
    monkeypatch.setattr(kernels, "regular_digraph_search",
                        _fake_kernel_witness(_masks(6, rigid.arcs())))
    with pytest.raises(WitnessRejected, match="digon"):
        exists_antisymmetric_kregular(6, 3, True)


def test_antisymmetric_small_orders():
    # below 2k+1 vertices (oriented) / k+1 (digons) nothing is even regular
    assert exists_antisymmetric_kregular(4, 3, True).status == "ExhaustedNone"
    assert exists_antisymmetric_kregular(3, 3, False).status == "ExhaustedNone"


def test_antisymmetric_witness_reverified():
    out = exists_antisymmetric_kregular(9, 3, True)
    assert out.status == "FoundWitness"
    d = out.witness
    assert d.out_degrees() == [3] * 9 and d.in_degrees() == [3] * 9
    assert not any(d.has_arc(v, u) for u, v in d.arcs())


def test_antisymmetric_thread_determinism():
    a = exists_antisymmetric_kregular(7, 3, True, threads=1)
    b = exists_antisymmetric_kregular(7, 3, True, threads=3)
    assert a.status == b.status == "ExhaustedNone"
    assert a.candidates_examined == b.candidates_examined == 132
