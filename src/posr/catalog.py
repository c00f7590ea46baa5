"""Witness constructions, fixed digraphs, the classification table, and the
claim-verification suite.

Connection sets are stored as generator words and resolved through each
group's word evaluator, so the catalog stays readable and the group tables
stay the single source of element numbering.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from importlib import resources

from .autgroup import DEFAULT_NODE_BUDGET
from .cayley import ConnectionSets, Digraph, validate_sets
from .errors import (BudgetExceeded, InvalidParameter, NoCandidate, OutOfRange, PreconditionFailed,
                     UnknownGenerator)
from .groups import GroupTable, group_from_token, in_phi
from .search import exists_antisymmetric_kregular, exists_mposr, verify_witness


# ---------------------------------------------------------------------------
# cyclic witnesses
# ---------------------------------------------------------------------------

def cyclic_posr_sets(n: int, m: int) -> ConnectionSets:
    """The standard m-POSR connection sets for the cyclic group of order n."""
    g = group_from_token(f"cyclic:{n}")
    if m == 2:
        if n < 7:
            raise OutOfRange("cyclic 2-POSR of valency 3 needs order >= 7")
        t10 = ["x", "x^3", "x^4"] if n == 7 else ["x", "x^2", "x^4"]
        cells = {(0, 1): ["1", "x", "x^2"], (1, 0): t10}
    elif m == 3:
        if n < 4:
            raise OutOfRange("cyclic 3-POSR of valency 3 needs order >= 4")
        cells = {
            (0, 1): ["1", "x"], (0, 2): ["1"],
            (1, 0): ["x^2"], (1, 2): ["1", "x"],
            (2, 0): ["x", "x^2"], (2, 1): ["x"],
        }
    elif m == 4:
        if n < 3:
            raise OutOfRange("cyclic 4-POSR of valency 3 needs order >= 3")
        cells = {
            (0, 1): ["1", "x"], (1, 2): ["1", "x"], (2, 0): ["1", "x"],
            (3, 0): ["1"], (3, 1): ["1"], (2, 3): ["1"],
            (0, 3): ["x"], (1, 3): ["x"], (3, 2): ["x^2"],
        }
    elif m >= 5:
        if n < 3:
            raise OutOfRange("cyclic m-POSR (m >= 5) of valency 3 needs order >= 3")
        cells = {}
        for i in range(m):
            cells[(i, (i + 1) % m)] = ["1"]
            cells[(i, (i - 1) % m)] = ["x"]
        for j in range(m):
            if j != 2:
                cells[(j, (j - 2) % m)] = ["1"]
        cells[(2, 0)] = ["x"]
    else:
        raise OutOfRange(f"no cyclic m-POSR family for m={m}")
    return ConnectionSets.from_words(g, m, cells)


# ---------------------------------------------------------------------------
# two-generated 2-POSR candidates
# ---------------------------------------------------------------------------

# Exact named-group candidate cells, tried before the generic families.  The
# alternating4 entry lists the published cells first; they fail the oriented
# condition (the identity sits in both cells), so the verified replacement
# found by exhaustive search follows them.
_NAMED_2POSR = {
    "dihedral:8": [
        {(0, 1): ["1", "x", "x*y"], (1, 0): ["x", "y", "x^3*y"]},
    ],
    "dihedral:10": [
        {(0, 1): ["1", "x", "x^2"], (1, 0): ["x", "y", "x*y"]},
    ],
    "elem_abelian_9": [
        {(0, 1): ["1", "x", "y"], (1, 0): ["y", "x", "x*y^2"]},
    ],
    "alternating4": [
        {(0, 1): ["1", "y*x", "y*x*y"], (1, 0): ["1", "y*x", "x*y*x*y"]},
        {(0, 1): ["1", "x", "y"], (1, 0): ["x", "x*y", "y*x"]},
    ],
    "heisenberg27": [
        {(0, 1): ["z", "x^2*z^2", "x^2*y*z"], (1, 0): ["x^2*z^2", "z", "x^2*y^2"]},
    ],
}


def _word_sets(g: GroupTable, cells: dict) -> ConnectionSets | None:
    try:
        return ConnectionSets.from_words(g, 2, cells)
    except InvalidParameter:
        return None  # duplicate elements under this group's relations


def two_gen_2posr_candidates(g: GroupTable) -> list[ConnectionSets]:
    """Ordered 2-POSR candidate systems for a 2-generated non-cyclic group:
    exact named matches first, then the generic (o(x), o(y)) families, all
    filtered to validated oriented partite valency-3 systems."""
    out: list[ConnectionSets] = []
    seen = set()

    def push(cells: dict) -> None:
        conn = _word_sets(g, cells)
        if conn is None or conn.sets in seen:
            return
        if validate_sets(g, conn, 3).ok_for("POSR"):
            seen.add(conn.sets)
            out.append(conn)

    for cells in _NAMED_2POSR.get(g.name or "", []):
        push(cells)
    for a, b in (("x", "y"), ("y", "x")):
        try:
            oa = g.element_order(g.generator(a))
            ob = g.element_order(g.generator(b))
        except UnknownGenerator:
            continue
        if oa == 4 and ob >= 3:
            push({(0, 1): ["1", a, b], (1, 0): [a, f"{a}^2", b]})
        if oa == 4 and ob == 2:
            push({(0, 1): ["1", a, f"{a}*{b}"], (1, 0): [a, b, f"{a}^3*{b}"]})
        if oa == 5:
            push({(0, 1): ["1", a, f"{a}^2"], (1, 0): [a, b, f"{b}^2"]})
        if oa >= 6:
            push({(0, 1): ["1", a, b], (1, 0): [a, f"{a}^2", f"{a}^3"]})
    if not out:
        raise NoCandidate(f"no 2-POSR candidate family applies to {g.name}")
    return out


def two_gen_mposr_sets(g: GroupTable, m: int) -> ConnectionSets:
    """The cyclic-chain m-POSR construction (m >= 3) for G = <x, y>.

    Generators are relabeled so o(x) >= 3; y = x^-1 is rejected (the group
    would be cyclic, which has its own families)."""
    if m < 3:
        raise PreconditionFailed("the chain construction needs m >= 3")
    x, y = g.generator("x"), g.generator("y")
    if g.element_order(x) < 3:
        x, y = y, x
    if g.element_order(x) < 3:
        raise PreconditionFailed("needs a generator of order >= 3")
    if y == g.inverse(x):
        raise PreconditionFailed("y = x^-1 generates a cyclic group")
    sets = [[[] for _ in range(m)] for _ in range(m)]
    for i in range(m):
        if i != m - 1:
            sets[i][(i + 1) % m] = [0, x]
        sets[i][(i - 1) % m] = [x]
    sets[m - 1][0] = [x, y]
    conn = ConnectionSets.from_lists(m, sets)
    report = validate_sets(g, conn, 3)
    if not (report.oriented and report.partite and report.regular):
        raise PreconditionFailed("chain construction invalid for this group")
    return conn


# PDR-only cells for the 2-POSR-exceptional groups.  The published dihedral:6
# cells ({1,x,x^2} / {1,y,xy}) validate but their digraph has automorphism
# group of order 12, so a corrected witness found by exhaustive search is
# listed after them.
_PDR_ONLY = {
    "dihedral:6": [
        {(0, 1): ["1", "x", "x^2"], (1, 0): ["1", "y", "x*y"]},
        {(0, 1): ["1", "x", "y"], (1, 0): ["1", "x", "x*y"]},
    ],
    "quaternion8": [{(0, 1): ["1", "x", "y"], (1, 0): ["1", "x^-1", "x^-2"]}],
    "c4_semidirect_c4": [{(0, 1): ["1", "x", "y"], (1, 0): ["1", "x^-1", "x^-2"]}],
    "smallgroup:16:3": [{(0, 1): ["1", "x", "y"], (1, 0): ["1", "x^-1", "x^-2"]}],
    "smallgroup:32:2": [{(0, 1): ["1", "x", "y"], (1, 0): ["1", "x^-1", "x^-2"]}],
}


def pdr_candidates(g: GroupTable, m: int) -> list[ConnectionSets]:
    """Ordered m-PDR candidates: POSR witnesses first (every POSR is a PDR),
    then the PDR-only cells for the POSR-exceptional groups."""
    out: list[ConnectionSets] = []
    if g.name and g.name.startswith("cyclic:"):
        try:
            out.append(cyclic_posr_sets(g.order, m))
        except OutOfRange:
            pass
    elif m == 2:
        try:
            out.extend(two_gen_2posr_candidates(g))
        except NoCandidate:
            pass
    else:
        try:
            out.append(two_gen_mposr_sets(g, m))
        except PreconditionFailed:
            pass
    if m == 2:
        for cells in _PDR_ONLY.get(g.name or "", []):
            conn = _word_sets(g, cells)
            if conn is not None:
                report = validate_sets(g, conn, 3)
                if report.partite and report.regular:
                    out.append(conn)
    if not out:
        raise NoCandidate(f"no PDR candidate applies to ({g.name}, m={m})")
    return out


# ---------------------------------------------------------------------------
# fixed digraphs
# ---------------------------------------------------------------------------

_FIXED = {
    # 9-vertex oriented 3-regular digraph with trivial automorphism group
    "fig1_9": {
        0: (2, 5, 8), 1: (0, 6, 8), 2: (3, 4, 7), 3: (0, 6, 7), 4: (1, 3, 7),
        5: (1, 2, 4), 6: (0, 2, 5), 7: (1, 5, 8), 8: (3, 4, 6),
    },
    # 10-vertex oriented companion
    "fig1_10": {
        0: (4, 5, 9), 1: (3, 4, 7), 2: (0, 1, 4), 3: (2, 6, 8), 4: (6, 8, 9),
        5: (1, 3, 7), 6: (1, 2, 5), 7: (0, 2, 9), 8: (0, 5, 7), 9: (3, 6, 8),
    },
    # 7-vertex 3-regular digraph, digons allowed (contains the digon 2<->5)
    "gamma7": {
        0: (6, 4, 3), 1: (4, 3, 6), 2: (5, 0, 1), 3: (6, 4, 1), 4: (1, 5, 2),
        5: (2, 0, 3), 6: (2, 0, 5),
    },
    # 8-vertex companion; source lists 1-based vertices 1..8:
    # 1->2,5,7  2->3,6,8  3->1,4,7  4->2,5,8  5->1,6,7  6->3,4,8
    # 7->2,4,6  8->1,3,5  (each label shifted down by one here)
    "gamma8": {
        0: (1, 4, 6), 1: (2, 5, 7), 2: (0, 3, 6), 3: (1, 4, 7), 4: (0, 5, 6),
        5: (2, 3, 7), 6: (1, 3, 5), 7: (0, 2, 4),
    },
}


def fixed_digraph(name: str) -> Digraph:
    adj = _FIXED.get(name)
    if adj is None:
        raise InvalidParameter(f"unknown fixed digraph {name!r}")
    return Digraph(len(adj), [(u, v) for u, targets in adj.items() for v in targets])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    answer: str  # "Yes" | "No"
    citation: str

    def __str__(self) -> str:
        return f"{self.answer} — {self.citation}"


_PHI_EXCEPTIONS = {"quaternion8", "c4_semidirect_c4", "smallgroup:16:3", "smallgroup:32:2"}
_NONPHI_EXCEPTIONS = {"klein4", "dihedral:6"}


def classify(g: GroupTable, m: int, kind: str) -> Verdict:
    """The published valency-3 classification, evaluated literally for the
    named group ``g`` (a table from ``group_from_token``)."""
    kind = kind.upper()
    if kind not in ("POSR", "PDR"):
        raise InvalidParameter(f"unknown kind {kind!r}")
    if m < 2:
        raise InvalidParameter("m must be >= 2")
    if g.name.startswith("cyclic:"):
        n = g.order
        if kind == "POSR":
            if m == 2 and n <= 6:
                return Verdict("No", "Theorem 1.1(i)")
            if m == 3 and n <= 3:
                return Verdict("No", "Theorem 1.1(ii)")
            if m == 4 and n <= 2:
                return Verdict("No", "Theorem 1.1(iii)")
            if 5 <= m <= 8 and n == 1:
                return Verdict("No", "Theorem 1.1(iv)")
            return Verdict("Yes", "Theorem 1.1")
        if m == 2 and n <= 4:
            return Verdict("No", "Corollary 1.6(1)(i)")
        if m == 3 and n <= 2:
            return Verdict("No", "Corollary 1.6(1)(ii)")
        if 3 <= m <= 6 and n == 1:
            return Verdict("No", "Corollary 1.6(1)(iii)")
        return Verdict("Yes", "Theorem 1.5 / Corollary 1.6(1)")
    # non-cyclic two-generated groups
    token = g.name
    if kind == "POSR":
        if m >= 3:
            if token == "klein4":
                return Verdict("Yes", "Theorem 1.4 (cited construction)")
            return Verdict("Yes", "Theorem 1.4")
        if in_phi(g):
            if token in _PHI_EXCEPTIONS:
                return Verdict("No", "Theorem 1.2")
            return Verdict("Yes", "Theorem 1.2")
        if token in _NONPHI_EXCEPTIONS:
            return Verdict("No", "Theorem 1.3")
        return Verdict("Yes", "Theorem 1.3")
    if m == 2 and token == "klein4":
        return Verdict("No", "Corollary 1.6(2)")
    return Verdict("Yes", "Corollary 1.6(2)")


# ---------------------------------------------------------------------------
# claims and the verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    name: str
    tier: str  # default | extended
    expected: str  # exists_with_witness | not_exists | rigid_digraph
    kind: str = ""  # POSR | PDR | "" for digraph claims
    group: str = ""
    m: int = 0
    sets: dict | None = None
    digraph: str = ""
    source: str = ""
    options: dict = field(default_factory=dict)


@dataclass
class ClaimResult:
    name: str
    status: str  # Pass | Fail | Skip
    elapsed: float
    detail: str = ""
    evidence: dict | None = None
    out_of_budget: bool = False  # a Skip because a node or time budget ran out

    def to_json(self) -> dict:
        payload = {
            "detail": self.detail,
            "elapsed_s": round(self.elapsed, 3),
            "name": self.name,
            "status": self.status,
        }
        if self.evidence is not None:
            payload["evidence"] = self.evidence
        return payload


@dataclass
class Report:
    results: list[ClaimResult]

    @property
    def failures(self) -> list[ClaimResult]:
        return [r for r in self.results if r.status == "Fail"]

    @property
    def budget_skips(self) -> list[ClaimResult]:
        return [r for r in self.results if r.out_of_budget]

    def counts(self) -> dict:
        out = {"Fail": 0, "Pass": 0, "Skip": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_json(self) -> dict:
        return {"counts": self.counts(), "results": [r.to_json() for r in self.results]}

    def to_table(self) -> str:
        width = max((len(r.name) for r in self.results), default=4)
        lines = [f"{'claim'.ljust(width)}  status  seconds  detail"]
        for r in self.results:
            lines.append(
                f"{r.name.ljust(width)}  {r.status.ljust(6)}  {r.elapsed:7.2f}  {r.detail}"
            )
        c = self.counts()
        lines.append(f"{c['Pass']} passed, {c['Fail']} failed, {c['Skip']} skipped")
        return "\n".join(lines)


@dataclass(frozen=True)
class SuiteBudget:
    """Limits for one suite run.  ``node_budget`` bounds each search: IR
    nodes per automorphism-solver call, and for the trivial group's
    rigid-digraph searches the kernel's descents."""

    tier: str = "default"
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget_per_claim: float | None = None


# the claim options that _check_claim reads
_CLAIM_OPTIONS = {"valency", "oriented"}


def load_claims() -> list[Claim]:
    return _parse_claims(resources.files("posr").joinpath("data/claims.json").read_text())


def _parse_claims(text: str) -> list[Claim]:
    """The claims of a registry file; an option that no check reads is an
    error, not silently ignored."""
    claims = [Claim(**entry) for entry in json.loads(text)["claims"]]
    for claim in claims:
        unknown = sorted(set(claim.options) - _CLAIM_OPTIONS)
        if unknown:
            raise InvalidParameter(f"claim {claim.name!r} has unknown options {unknown}")
    return claims


def _run_claim(claim: Claim, budget: SuiteBudget) -> ClaimResult:
    """One claim's verdict; a node budget that runs out makes it a Skip."""
    t0 = time.monotonic()
    try:
        return _check_claim(claim, budget, t0)
    except BudgetExceeded as exc:
        return ClaimResult(claim.name, "Skip", time.monotonic() - t0,
                           f"budget exceeded: {exc}", out_of_budget=True)


def _check_claim(claim: Claim, budget: SuiteBudget, t0: float) -> ClaimResult:
    def done(status, detail="", evidence=None, out_of_budget=False):
        return ClaimResult(claim.name, status, time.monotonic() - t0, detail, evidence,
                           out_of_budget)

    if claim.expected in ("exists_with_witness", "rigid_digraph"):
        if claim.expected == "rigid_digraph":
            # a digraph on m vertices is a Cayley digraph of the trivial group
            # with m parts; it is rigid iff that is a representation
            g = group_from_token("cyclic:1")
            conn = ConnectionSets.from_digraph(fixed_digraph(claim.digraph))
            kind = "POSR" if claim.options.get("oriented") else "PDR"
        else:
            g = group_from_token(claim.group)
            conn = ConnectionSets.from_json(claim.sets, g)
            kind = claim.kind
        res = verify_witness(g, conn, kind, claim.options.get("valency", 3), budget.node_budget)
        if res is None:
            return done("Fail", "witness sets fail validation")
        if not res.is_representation:
            return done("Fail", f"aut order {res.aut_order}, expected {g.order}",
                        {"extra_automorphism":
                         None if res.witness_extra_automorphism is None
                         else res.witness_extra_automorphism.tolist()})
        return done("Pass", f"aut order {res.aut_order}")

    g = group_from_token(claim.group)
    if claim.expected == "not_exists":
        if g.order == 1:
            outcome = exists_antisymmetric_kregular(
                claim.m, claim.options.get("valency", 3), oriented=claim.kind == "POSR",
                node_budget=budget.node_budget, time_budget=budget.time_budget_per_claim,
            )
        else:
            outcome = exists_mposr(
                g, claim.m, claim.options.get("valency", 3), claim.kind,
                node_budget=budget.node_budget, time_budget=budget.time_budget_per_claim,
            )
        if outcome.status == "ExhaustedNone":
            return done("Pass", f"exhausted {outcome.candidates_examined} candidates")
        if outcome.status == "FoundWitness":
            return done("Fail", "counterexample witness found", outcome.to_json())
        return done("Skip", "search aborted (budget)", outcome.to_json(), out_of_budget=True)

    raise InvalidParameter(f"unknown expected kind {claim.expected!r}")


def verify_all(budget: SuiteBudget | None = None,
               progress_cb=None) -> Report:
    """Run every registered claim within the tier budget; extended-tier
    claims are Skipped (never Failed) under the default budget."""
    budget = budget or SuiteBudget()
    tiers = {"default"} if budget.tier == "default" else {"default", "extended"}
    results = []
    for claim in load_claims():
        if claim.tier not in tiers:
            results.append(ClaimResult(claim.name, "Skip", 0.0, "extended tier not selected"))
            continue
        result = _run_claim(claim, budget)
        if progress_cb:
            progress_cb(result)
        results.append(result)
    return Report(results)
