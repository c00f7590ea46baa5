"""Connection-set enumeration and the exhaustive searches."""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations, islice, product, takewhile
from math import comb, prod

import numpy as np
import pytest

from posr import autgroup, cayley, kernels, search
from posr.cayley import ConnectionSets, Digraph, sets_oriented, validate_sets
from posr.errors import InvalidParameter, WitnessRejected
from posr.groups import group_automorphisms, group_from_token
from posr.search import (
    count_connection_sets,
    enumerate_connection_sets,
    exists_antisymmetric_kregular,
    exists_mposr,
    verify_witness,
)

from oracles import degrees, digons


def test_enumeration_counts():
    assert count_connection_sets(group_from_token("klein4"), 2, 3) == 16
    assert count_connection_sets(group_from_token("cyclic:2"), 2, 3) == 0
    assert count_connection_sets(group_from_token("cyclic:6"), 2, 3) == 400
    # C(n,3)^2 for cyclic n >= 3 at m=2
    for n in (5, 7):
        g = group_from_token(f"cyclic:{n}")
        assert count_connection_sets(g, 2, 3) == comb(n, 3) ** 2


def _plain_count(n, m, valency=3):
    """The number of candidates, memoised on (row, room left per column)."""
    rows = [[r for r in product(range(min(n, valency) + 1), repeat=m)
             if sum(r) == valency and not r[i]] for i in range(m)]

    @lru_cache(maxsize=None)
    def count(i, room):
        if i == m:
            return 1
        total = 0
        for r in rows[i]:
            rest = tuple(b - a for a, b in zip(r, room))
            if min(rest) >= 0:
                total += prod(comb(n, k) for k in r) * count(i + 1, rest)
        return total

    return count(0, (valency,) * m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_matches_plain_memoised_count(n):
    g = group_from_token(f"cyclic:{n}")
    for m in range(1, 8):
        assert count_connection_sets(g, m, 3) == _plain_count(n, m)


def test_enumeration_matches_count_and_is_deterministic():
    g = group_from_token("cyclic:5")
    first = [conn for _, conn in enumerate_connection_sets(g, 2, 3)]
    second = [conn for _, conn in enumerate_connection_sets(g, 2, 3)]
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
    oriented = [conn for _, conn in enumerate_connection_sets(g, 2, 3, require_oriented=True)]
    assert 0 < len(oriented) < 400
    assert all(sets_oriented(g, c) for c in oriented)


def _brute_size_matrices(n, m, valency=3):
    """Every m x m matrix with zero diagonal, entries <= n and all row and
    column sums equal to valency, flattened, in lexicographic order."""
    rows = [r for r in product(range(min(n, valency) + 1), repeat=m) if sum(r) == valency]
    for matrix in product(*([r for r in rows if not r[i]] for i in range(m))):
        if all(sum(col) == valency for col in zip(*matrix)):
            yield sum(matrix, ())


def _product_order(g, m):
    """The full candidate order rebuilt with itertools.product: size
    matrix, then every cell's k-subsets, the last cell varying fastest."""
    for sizes in _brute_size_matrices(g.order, m):
        cells = [combinations(range(g.order), k) for k in sizes]
        for combo in product(*cells):
            yield ConnectionSets(m, tuple(combo[i:i + m] for i in range(0, m * m, m)))


def _case(token, m):
    # the "-True" id suffix named the m-partite candidate space when a
    # non-partite one existed; it is kept so that the case ids stay stable
    return pytest.param(token, m, id=f"{token}-{m}-True")


ENUM_TOKENS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7",
               "klein4", "dihedral:6", "quaternion8")
ENUM_CASES = [
    *(_case(token, m) for m in (2, 3) for token in ENUM_TOKENS),
    _case("cyclic:2", 4), _case("cyclic:3", 4),
]
# above this many candidates the full order is compared in windows
FULL_LIMIT = 30_000


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (8, 3), (1, 4), (2, 4),
                                  (3, 4)])
def test_size_matrices_match_brute_force(n, m):
    layout = list(search._size_matrices(n, m, 3))
    assert [sizes for sizes, _ in layout] == list(_brute_size_matrices(n, m))
    # each offset is the rank of the matrix's first candidate
    ends = [offset + prod(comb(n, k) for k in sizes) for sizes, offset in layout]
    assert [offset for _, offset in layout] == [0, *ends][:len(layout)]
    # a start inside a matrix keeps it and drops the ones before it
    for k in range(0, len(layout), len(layout) // 20 + 1):
        for start in (layout[k][1], ends[k] - 1):
            assert list(search._size_matrices(n, m, 3, start)) == layout[k:]


@pytest.mark.parametrize("token, m", [("cyclic:2", 4), ("cyclic:2", 5), ("cyclic:2", 6),
                                      ("klein4", 3), ("klein4", 4)])
def test_oriented_size_matrices_skip_by_prefix(token, m):
    # the oriented walk drops whole row prefixes with |T_ij| + |T_ji| > |G|
    # and yields exactly the orientable matrices of the full walk, at the
    # same offsets, from any start; compared on the first 1500 (cyclic:2
    # m=6 has 865,370 size matrices, 183,610 of them orientable)
    n = group_from_token(token).order

    def orientable(start):
        return (layout for layout in search._size_matrices(n, m, 3, start)
                if all(layout[0][i * m + j] + layout[0][j * m + i] <= n
                       for i in range(m) for j in range(i + 1, m)))

    def oriented(start):
        return search._size_matrices(n, m, 3, start, oriented=True)

    first = list(islice(oriented(0), 1500))
    assert first == list(islice(orientable(0), 1500))
    for _, offset in first[::len(first) // 8 or 1]:
        assert list(islice(oriented(offset), 200)) == list(islice(orientable(offset), 200))


@pytest.mark.parametrize("token, m", ENUM_CASES)
def test_pruned_enumeration_is_the_oriented_subsequence(token, m):
    g = group_from_token(token)
    total = count_connection_sets(g, m, 3)

    def candidates(oriented, start=0):
        return enumerate_connection_sets(g, m, 3, require_oriented=oriented, start=start)

    if total <= FULL_LIMIT:
        full = [conn for _, conn in candidates(False)]
        assert full == list(_product_order(g, m))
        assert list(candidates(True)) == [
            (rank, conn) for rank, conn in enumerate(full) if sets_oriented(g, conn)]
        return
    for start in (total // 7, total // 2, total - 3000):
        window = list(islice(candidates(False, start), 3000))
        assert [rank for rank, _ in window] == list(range(start, start + len(window)))
        end = start + len(window)
        pruned = list(takewhile(lambda pair: pair[0] < end, candidates(True, start)))
        assert pruned == [(rank, conn) for rank, conn in window if sets_oriented(g, conn)]


@pytest.mark.parametrize("token, m", [
    _case("cyclic:6", 2), _case("quaternion8", 2), _case("cyclic:3", 3), _case("cyclic:2", 4),
])
def test_start_skips_to_the_suffix(token, m):
    g = group_from_token(token)

    def candidates(oriented, start=0):
        return list(enumerate_connection_sets(g, m, 3, require_oriented=oriented, start=start))

    full = candidates(False)
    pruned = candidates(True)
    kept = [rank for rank, _ in pruned]
    skipped = sorted(set(range(len(full))) - set(kept))
    # about ten ranks inside pruned subtrees, five oriented ranks, the ends
    starts = skipped[::len(skipped) // 10 + 1] + kept[::len(kept) // 5 + 1]
    starts += [0, 1, len(full) - 1, len(full), len(full) + 5]
    for start in starts:
        assert candidates(False, start) == full[start:]
        assert candidates(True, start) == [pair for pair in pruned if pair[0] >= start]


@pytest.mark.parametrize("token, m", [
    ("cyclic:6", 2), ("quaternion8", 2), ("cyclic:3", 3), ("klein4", 3),
    ("cyclic:2", 4), ("cyclic:3", 4),
])
def test_cursor_splits_match_naive(token, m):
    g = group_from_token(token)
    naive = exists_mposr(g, m, 3, "POSR", naive=True)
    end = naive.candidates_examined
    kept = {rank for rank, _ in enumerate_connection_sets(g, m, 3, require_oriented=True)}
    skipped = [rank for rank in range(end) if rank not in kept]
    oriented = sorted(rank for rank in kept if rank < end)
    cut_sets = [
        [end // 3, end // 2 + 7],
        [skipped[len(skipped) // 4], skipped[-1]] if skipped else [],
        [oriented[len(oriented) // 2]] if oriented else [],
        [1, 2, 3, end - 1],
    ]
    for cuts in cut_sets:
        bounds = [0, *sorted(set(cuts)), None]
        examined = 0
        for lo, hi in zip(bounds, bounds[1:]):
            out = exists_mposr(g, m, 3, "POSR", cursor_start=lo, cursor_stop=hi)
            examined += out.candidates_examined
            if out.status == "FoundWitness":
                break
        assert (out.status, out.witness, examined) == (
            naive.status, naive.witness, naive.candidates_examined)


def test_progress_counts_pruned_ranks():
    # 2576 of the 3136 candidates are pruned as not oriented, and every
    # multiple of 100 is still reported once, as the naive search does
    reports = []
    out = exists_mposr(group_from_token("quaternion8"), 2, 3, "POSR",
                       progress_every=100, progress_cb=reports.append)
    assert out.candidates_examined == 3136
    assert [r["examined"] for r in reports] == list(range(100, 3136, 100))


def test_exists_mposr_verdicts():
    assert exists_mposr(group_from_token("cyclic:6"), 2, 3, "POSR").status == "ExhaustedNone"
    out = exists_mposr(group_from_token("cyclic:7"), 2, 3, "POSR")
    assert out.status == "FoundWitness"
    assert verify_witness(group_from_token("cyclic:7"), out.witness, "POSR", 3).is_representation
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


GRID_GROUPS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7",
               "klein4", "dihedral:6", "dihedral:8", "quaternion8")


@pytest.mark.parametrize("token, m, kind", [
    *((token, m, kind) for m in (2, 3) for token in GRID_GROUPS for kind in ("POSR", "PDR")),
    ("cyclic:2", 4, "POSR"), ("cyclic:2", 4, "PDR"),
    ("cyclic:3", 4, "POSR"), ("cyclic:3", 4, "PDR"), ("cyclic:4", 4, "POSR"),
])
def test_orbit_pruning_matches_naive(token, m, kind):
    g = group_from_token(token)
    slow = exists_mposr(g, m, 3, kind, naive=True)
    fast = exists_mposr(g, m, 3, kind)
    assert slow.status in ("FoundWitness", "ExhaustedNone")
    assert (fast.status, fast.candidates_examined, fast.witness) == (
        slow.status, slow.candidates_examined, slow.witness)
    # a cut before the first witness: the window from cursor 0 is exact, and
    # the rest still finds the naive witness, which is orbit-minimal
    cut = slow.candidates_examined // 2
    first = exists_mposr(g, m, 3, kind, cursor_stop=cut)
    rest = exists_mposr(g, m, 3, kind, cursor_start=cut)
    assert first.status == "ExhaustedNone"
    assert first.candidates_examined + rest.candidates_examined == slow.candidates_examined
    assert (rest.status, rest.witness) == (slow.status, slow.witness)


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


class _Clock:
    """A monotonic clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def _orbit_pruned_rank(g, m, kind, stop):
    """The middle rank below ``stop`` that the walk skips as not
    orbit-minimal, though it passes the oriented test of a POSR search."""
    oriented = kind == "POSR"

    def ranks(auts):
        return [rank for rank, _ in enumerate_connection_sets(
            g, m, 3, require_oriented=oriented, auts=auts, stop=stop)]

    built = set(ranks(group_automorphisms(g)))
    pruned = [rank for rank in ranks(None) if rank not in built]
    return pruned[len(pruned) // 2]


def test_abort_resumes_at_the_first_unexamined_rank(monkeypatch):
    # (start, budget) per cell; the last two runs start inside a subtree
    # skipped as not orbit-minimal
    cells = {
        ("quaternion8", 2, "POSR"): ((0, 0.0), (37, 0.0), (0, 5.0), (100, 50.0)),
        ("klein4", 3, "PDR"): ((0, 0.0), (37, 0.0), (0, 5.0)),
    }
    monkeypatch.setattr(search, "time", _Clock())
    for (token, m, kind), runs in cells.items():
        g = group_from_token(token)
        whole = exists_mposr(g, m, 3, kind)
        inside = _orbit_pruned_rank(g, m, kind, whole.candidates_examined)
        for start, budget in (*runs, (inside, 0.0), (inside, 3.0)):
            out = exists_mposr(g, m, 3, kind, time_budget=budget, cursor_start=start)
            assert out.status == "Aborted"
            assert out.resume_cursor == start + out.candidates_examined
            rest = exists_mposr(g, m, 3, kind, cursor_start=out.resume_cursor)
            assert out.candidates_examined + rest.candidates_examined == (
                whole.candidates_examined - start)
            assert (rest.status, rest.witness) == (whole.status, whole.witness)


@pytest.mark.parametrize("token, m", [("cyclic:3", 10), ("cyclic:2", 14)])
def test_time_budget_bounds_a_large_search(token, m):
    # the count and the walk of a cell with billions of ranks stay inside
    # the budget; neither cell finds its first witness within it (the walk
    # runs out on cyclic:3, the count on cyclic:2)
    search._size_layout.cache_clear()
    g = group_from_token(token)
    t0 = time.monotonic()
    out = exists_mposr(g, m, 3, "POSR", time_budget=1)
    assert time.monotonic() - t0 < 2
    assert out.status == "Aborted"
    assert out.resume_cursor == out.candidates_examined


def test_count_is_under_the_time_budget(monkeypatch):
    # the candidate count alone takes seconds here (about 2 s on a 2-vCPU
    # VM); it stops at the deadline, and the search resumes where it stopped
    search._size_layout.cache_clear()
    g = group_from_token("klein4")
    t0 = time.monotonic()
    out = exists_mposr(g, 14, 3, "POSR", time_budget=1)
    assert time.monotonic() - t0 < 1.5
    assert out.status == "Aborted"
    assert out.resume_cursor == out.candidates_examined
    # on a clock that advances a second per reading, every cursor start
    # aborts in the count, and resuming from the cursor gives the search
    # from that start
    g = group_from_token("cyclic:6")
    whole = exists_mposr(g, 2, 3, "POSR")
    monkeypatch.setattr(search, "time", _Clock())
    for start in (0, 150):
        search._size_layout.cache_clear()
        out = exists_mposr(g, 2, 3, "POSR", time_budget=0.5, cursor_start=start)
        assert (out.status, out.candidates_examined, out.resume_cursor) == ("Aborted", 0, start)
        rest = exists_mposr(g, 2, 3, "POSR", cursor_start=out.resume_cursor)
        assert rest.candidates_examined == whole.candidates_examined - start
        assert (rest.status, rest.witness) == (whole.status, whole.witness)


@pytest.mark.parametrize("m", [10, 11])
def test_cyclic2_posr_found_past_unorientable_prefixes(m):
    # with whole non-orientable row prefixes skipped by arithmetic, the first
    # 10- and 11-POSR of C_2 are reached at once (exists_mposr re-checks
    # each witness with verify_witness before returning it)
    out = exists_mposr(group_from_token("cyclic:2"), m, 3, "POSR", time_budget=30)
    assert out.status == "FoundWitness"


def test_progress_reporting():
    seen = []
    exists_mposr(group_from_token("cyclic:6"), 2, 3, "POSR",
                 progress_every=100, progress_cb=seen.append)
    assert len(seen) == 4
    assert seen[0]["examined"] == 100 and seen[0]["total"] == 400


def _brute_force_minimal(g, conn, auts):
    """No map of S gives a smaller candidate, each image built in plain
    Python: T'_ij = h_j sigma(T_ij) h_i^-1 with at most one h_j != e."""
    m = conn.m
    shifts = [[0] * m]
    shifts += [[h if k == j else 0 for k in range(m)]
               for j in range(1, m) for h in range(1, g.order)]
    for sigma, h in product(auts, shifts):
        image = tuple(
            tuple(tuple(sorted(g.mul(g.mul(h[j], int(sigma[t])), g.inverse(h[i]))
                               for t in conn.cell(i, j)))
                  for j in range(m))
            for i in range(m))
        if image < conn.sets:
            return False
    return True


@pytest.mark.parametrize("token, m, limit", [
    ("dihedral:8", 2, 1200), ("quaternion8", 2, 1200),
    ("cyclic:6", 2, None), ("cyclic:3", 3, None), ("klein4", 3, 1500),
])
@pytest.mark.parametrize("oriented", [False, True])
def test_orbit_filter_matches_brute_force(token, m, limit, oriented):
    # the walk with auts yields the brute-force-minimal (and, with the
    # oriented test, oriented) subsequence of the full order, from cursor 0
    # and from starts inside pruned subtrees
    g = group_from_token(token)
    auts = group_automorphisms(g)
    full = list(enumerate(_product_order(g, m)))[:limit]
    stop = len(full)
    truth = [(rank, conn) for rank, conn in full
             if (not oriented or sets_oriented(g, conn)) and _brute_force_minimal(g, conn, auts)]
    assert 0 < len(truth) < len(full)

    def walk(start):
        return list(enumerate_connection_sets(g, m, 3, require_oriented=oriented, start=start,
                                              auts=auts, stop=stop))

    assert walk(0) == truth
    kept = {rank for rank, _ in truth}
    pruned = [rank for rank in range(stop) if rank not in kept]
    for start in [*pruned[::len(pruned) // 8 + 1], *sorted(kept)[::len(kept) // 4 + 1]]:
        assert walk(start) == [pair for pair in truth if pair[0] >= start]


def test_walk_builds_only_orbit_minimal_candidates():
    # before the first quaternion8 4-POSR (rank 9,836,121) 313,602
    # candidates are oriented and 415 of them orbit-minimal: only those 415
    # are built
    g = group_from_token("quaternion8")
    minimal = list(enumerate_connection_sets(g, 4, 3, require_oriented=True,
                                             auts=group_automorphisms(g), stop=9_836_122))
    assert len(minimal) == 415
    assert minimal[-1][0] == 9_836_121


def _matrices_without_representation(g, m, kind):
    """(first rank, end rank, disconnected) of each size matrix whose
    support is disconnected or, for POSR, that has |T_ij| + |T_ji| > |G|."""
    layout = list(search._size_matrices(g.order, m, 3))
    ends = [offset for _, offset in layout[1:]] + [count_connection_sets(g, m, 3)]
    out = []
    for (sizes, offset), end in zip(layout, ends):
        both = np.array(sizes).reshape(m, m)
        both = both + both.T
        reach = {0}
        for _ in range(m):
            reach |= {int(j) for i in reach for j in np.nonzero(both[i])[0]}
        disconnected = len(reach) < m
        if disconnected or kind == "POSR" and (both > g.order).any():
            out.append((offset, end, disconnected))
    return out


@pytest.mark.parametrize("token, kind, matrices, disconnected_ranks", [
    ("cyclic:3", "PDR", 3, 3), ("klein4", "PDR", 3, 768), ("cyclic:2", "POSR", 54, 0),
])
def test_skipped_size_matrices_hold_no_representation(token, kind, matrices, disconnected_ranks):
    # the default search skips these matrices whole; the naive search,
    # which checks every candidate from scratch, finds no representation in
    # them
    g = group_from_token(token)
    skipped = _matrices_without_representation(g, 4, kind)
    assert len(skipped) == matrices
    assert sum(end - lo for lo, end, disconnected in skipped if disconnected) == disconnected_ranks
    for lo, end, _ in skipped:
        naive = exists_mposr(g, 4, 3, kind, naive=True, cursor_start=lo, cursor_stop=end)
        assert (naive.status, naive.candidates_examined) == ("ExhaustedNone", end - lo)
        assert list(enumerate_connection_sets(
            g, 4, 3, require_oriented=kind == "POSR", start=lo, auts=group_automorphisms(g),
            stop=end, require_connected=True)) == []


@pytest.mark.parametrize("token, status, examined, witness", [
    pytest.param("cyclic:2", "ExhaustedNone", 0, None, id="cyclic:2"),
    pytest.param("quaternion8", "ExhaustedNone", 3136, None, id="quaternion8"),
    pytest.param("dihedral:8", "FoundWitness", 31, [[[], [0, 1, 2]], [[1, 4, 5], []]],
                 id="dihedral:8"),
    pytest.param("smallgroup:32:2", "FoundWitness", 467, [[[], [0, 1, 2]], [[1, 2, 4], []]],
                 id="smallgroup:32:2"),
])
def test_aut_reduced_search_results(token, status, examined, witness):
    # the search reduced by Aut(G) x one-part translations, with the seeded
    # one-pass check, agrees with the naive search and the full solver
    for naive in (False, True):
        out = exists_mposr(group_from_token(token), 2, 3, "POSR", naive=naive)
        assert out.status == status
        assert out.candidates_examined == examined
        assert (out.witness.to_json()["sets"] if out.witness else None) == witness


def _seeded_pass_refines(monkeypatch, token, m):
    """Status and refinement calls inside the seeded one-pass checks of one
    search."""
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
    out = exists_mposr(group_from_token(token), m, 3, "POSR")
    return out.status, sum(inner)


@pytest.mark.parametrize("token,m,status,refines", [
    ("cyclic:2", 2, "ExhaustedNone", 0),
    ("quaternion8", 2, "ExhaustedNone", 2176),
    ("dihedral:8", 2, "FoundWitness", 13),
    ("smallgroup:32:2", 2, "FoundWitness", 6),
    ("klein4", 3, "FoundWitness", 276),
])
def test_seeded_pass_work_pinned(monkeypatch, token, m, status, refines):
    # the seeded one-pass check never records a generator, so the orbit
    # pruning below depth 0 costs it nothing: its refinement calls over a
    # whole search are pinned.  Here no map is tested, so every candidate
    # that passes the oriented filter reaches the solver.
    monkeypatch.setattr(search, "group_automorphisms", lambda g: [])
    assert _seeded_pass_refines(monkeypatch, token, m) == (status, refines)


@pytest.mark.parametrize("token,m,status,refines", [
    ("cyclic:2", 2, "ExhaustedNone", 0),
    ("quaternion8", 2, "ExhaustedNone", 26),
    ("dihedral:8", 2, "FoundWitness", 10),
    ("smallgroup:32:2", 2, "FoundWitness", 6),
    ("klein4", 3, "FoundWitness", 17),
])
def test_seeded_pass_work_pinned_orbit_minimal(monkeypatch, token, m, status, refines):
    # only the orbit-minimal candidates reach the solver
    assert _seeded_pass_refines(monkeypatch, token, m) == (status, refines)


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
        for _, conn in list(enumerate_connection_sets(g, 2, 3))[:60]:
            before = len(builds)
            search._candidate_is_rep(g, conn, "PDR", 3, 10**8, naive)
            assert builds[before:] == [conn]


def test_search_witness_rechecked(monkeypatch):
    # a seeded check that accepts everything must not leak a witness: the
    # unseeded re-check finds that cyclic:6 has no 2-POSR
    monkeypatch.setattr(search, "aut_is_translations", lambda pd, node_budget: True)
    with pytest.raises(WitnessRejected, match="re-check"):
        exists_mposr(group_from_token("cyclic:6"), 2, 3, "POSR")


def _fake_kernel_witness(masks):
    def search(m, k, oriented, lo, hi, budget, deadline):
        return 1, 1, np.asarray(masks, dtype=np.int64)
    return search


def _masks(m, arcs):
    masks = [0] * m
    for u, v in arcs:
        masks[u] |= 1 << v
    return masks


def test_kernel_witness_rechecked(monkeypatch):
    # each bad witness is rejected by the one check, as connection sets of
    # the trivial group; the flags say why it fails
    trivial = group_from_token("cyclic:1")
    rigid = exists_antisymmetric_kregular(6, 3, False).witness
    # not regular: only vertex 0 has out-arcs
    star = [(0, 1), (0, 2), (0, 3)]
    assert not validate_sets(trivial, ConnectionSets.from_digraph(Digraph(7, star)), 3).regular
    monkeypatch.setattr(kernels, "regular_digraph_search", _fake_kernel_witness(_masks(7, star)))
    with pytest.raises(WitnessRejected, match="re-check"):
        exists_antisymmetric_kregular(7, 3, True)
    # 3-regular and oriented, but the circulant Cay(Z7, {1, 2, 4}) is not rigid
    circulant = [(v, (v + s) % 7) for v in range(7) for s in (1, 2, 4)]
    verdict = verify_witness(trivial, ConnectionSets.from_digraph(Digraph(7, circulant)), "POSR", 3)
    assert verdict.aut_order == 21
    monkeypatch.setattr(kernels, "regular_digraph_search",
                        _fake_kernel_witness(_masks(7, circulant)))
    with pytest.raises(WitnessRejected, match="re-check"):
        exists_antisymmetric_kregular(7, 3, True)
    # a rigid 3-regular digraph on 6 vertices must have a digon
    report = validate_sets(trivial, ConnectionSets.from_digraph(rigid), 3)
    assert report.ok_for("PDR") and not report.oriented
    monkeypatch.setattr(kernels, "regular_digraph_search",
                        _fake_kernel_witness(_masks(6, rigid.arcs())))
    with pytest.raises(WitnessRejected, match="re-check"):
        exists_antisymmetric_kregular(6, 3, True)


def test_antisymmetric_small_orders():
    # below 2k+1 vertices (oriented) / k+1 (digons) nothing is even regular
    assert exists_antisymmetric_kregular(4, 3, True).status == "ExhaustedNone"
    assert exists_antisymmetric_kregular(3, 3, False).status == "ExhaustedNone"


def test_antisymmetric_witness_reverified():
    out = exists_antisymmetric_kregular(9, 3, True)
    assert out.status == "FoundWitness"
    d = out.witness
    assert degrees(d) == ([3] * 9, [3] * 9)
    assert digons(d) == []


def test_antisymmetric_repeatable():
    out = exists_antisymmetric_kregular(7, 3, True)
    assert out.status == "ExhaustedNone"
    assert out.candidates_examined == 132
    a = exists_antisymmetric_kregular(8, 3, True)
    b = exists_antisymmetric_kregular(8, 3, True)
    assert a.status == b.status == "FoundWitness"
    assert a.witness.arcs() == b.witness.arcs()
    assert a.candidates_examined == b.candidates_examined
