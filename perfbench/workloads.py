"""The benchmark's workloads.

A workload turns a pass index into the ``posr.cli.run`` argument lists of one
pass (``calls``) and checks that pass's outputs against the hand-written
reference (``check``).  ``check`` returns the number of outputs compared and
one problem string per output that differs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


class VerifyExtended:
    """The command users run: replay the whole registry, extended tier."""

    name = "verify-extended"

    def __init__(self, seed: int, out_dir: Path):
        from posr import catalog, cayley, groups

        self.claims = {c.name: c for c in catalog.load_claims()}
        self._catalog = catalog
        self._cayley = cayley
        self._groups = groups

    def calls(self, pass_index: int) -> list[list[str]]:
        return [["verify", "--tier", "extended", "--output", "json"]]

    def check(self, pass_index: int, results, oracle) -> tuple[int, list[str]]:
        (_, rc, stdout), = results
        problems = []
        if rc != reference.VERIFY_EXIT_CODE:
            problems.append(f"verify exit code {rc}, expected {reference.VERIFY_EXIT_CODE}")
        report = _json(stdout) or {}
        by_name = {r["name"]: r for r in report.get("results", [])}
        unexpected = sorted(by_name.keys() - reference.CLAIM_STATUS.keys())
        problems += [f"{name}: claim not in the reference" for name in unexpected]
        for name, status in reference.CLAIM_STATUS.items():
            result = by_name.get(name)
            if result is None:
                problems.append(f"{name}: missing from the report")
            elif result["status"] != status:
                problems.append(f"{name}: {result['status']}, expected {status}")
            else:
                problem = self._recheck(self.claims[name], result, oracle)
                if problem:
                    problems.append(f"{name}: {problem}")
        return len(reference.CLAIM_STATUS) + len(unexpected) + 1, problems

    def _recheck(self, claim, result, oracle) -> str | None:
        k = claim.options.get("valency", 3)
        if result["status"] == "Fail":
            evidence = result.get("evidence") or {}
            witness = evidence.get("witness")
            if evidence.get("status") != "FoundWitness" or witness is None:
                return "refutation without a counterexample"
            if claim.group == "cyclic:1":
                if witness["n"] != claim.m:
                    return f"counterexample has {witness['n']} vertices, claim m={claim.m}"
                return oracle.rigid_digraph(witness["n"], witness["arcs"], k,
                                            oriented=claim.kind == "POSR")
            if len(witness["sets"]) != claim.m:
                return f"counterexample has {len(witness['sets'])} parts, claim m={claim.m}"
            g = self._groups.group_from_token(claim.group)
            return oracle.representation(g.mult, witness["sets"], claim.kind)
        if claim.expected == "exists_with_witness":
            g = self._groups.group_from_token(claim.group)
            if result["detail"] != f"aut order {g.order}":
                return f"detail {result['detail']!r}"
            sets = self._cayley.ConnectionSets.from_json(claim.sets, g).sets
            return oracle.representation(g.mult, sets, claim.kind)
        if claim.expected == "rigid_digraph":
            d = self._catalog.fixed_digraph(claim.digraph)
            return oracle.rigid_digraph(d.n, d.arcs(), k,
                                        oriented=claim.options.get("oriented", False))
        if claim.expected == "not_exists" and not result["detail"].startswith("exhausted "):
            return f"detail {result['detail']!r}"
        return None


class SearchSmall:
    """Exhaustive searches over tens of thousands of tiny candidates."""

    name = "search-small"

    def __init__(self, seed: int, out_dir: Path):
        from posr import groups

        self._groups = groups

    def calls(self, pass_index: int) -> list[list[str]]:
        return [["search", *tail] for tail, _ in reference.SEARCHES]

    def check(self, pass_index: int, results, oracle) -> tuple[int, list[str]]:
        problems = []
        for (argv, rc, stdout), (tail, status) in zip(results, reference.SEARCHES):
            outcome = _json(stdout) or {}
            if rc != 0 or outcome.get("status") != status:
                problems.append(f"{argv}: exit {rc}, {outcome.get('status')}, expected {status}")
                continue
            if status != "FoundWitness":
                continue
            witness = outcome["witness"]
            m = int(tail[tail.index("--m") + 1])
            if "--antisym" in tail:
                problem = (f"witness has {witness['n']} vertices" if witness["n"] != m else
                           oracle.rigid_digraph(m, witness["arcs"], 3,
                                                oriented="--oriented" in tail))
            elif len(witness["sets"]) != m:
                problem = f"witness has {len(witness['sets'])} parts"
            else:
                g = self._groups.group_from_token(tail[tail.index("--group") + 1])
                problem = oracle.representation(g.mult, witness["sets"], "POSR")
            if problem:
                problems.append(f"{argv}: {problem}")
        return len(reference.SEARCHES), problems


def _aut_base_digraphs() -> dict[str, tuple[int, list]]:
    """The unlabelled inputs; each has |Aut| in closed form (reference.py)."""
    # the cyclic:80 2-POSR of Theorem 1.1: T01 = {1, x, x^2}, T10 = {x, x^2, x^4},
    # vertex (i, h) = 80 i + h, arcs (0, h) -> (1, t + h) and (1, h) -> (0, t + h)
    posr80 = ([(h, 80 + (h + t) % 80) for h in range(80) for t in (0, 1, 2)]
              + [(80 + h, (h + t) % 80) for h in range(80) for t in (1, 2, 4)])
    return {
        "empty24": (24, []),
        "triangles10": (30, [(3 * i + j, 3 * i + (j + 1) % 3)
                             for i in range(10) for j in range(3)]),
        "cycle150": (150, [(v, (v + 1) % 150) for v in range(150)]),
        "cyclic80_2posr": (160, posr80),
    }


class AutSymmetric:
    """`posr aut` on highly symmetric digraphs, relabelled from the seed."""

    name = "aut-symmetric"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.input_dir = out_dir / "inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        self.base = _aut_base_digraphs()

    def digraph(self, pass_index: int, name: str) -> tuple[int, list]:
        """Input ``name`` of pass ``pass_index``: a fresh relabelling per pass,
        drawn from the seed, so a run averages over many labellings."""
        n, arcs = self.base[name]
        perm = list(range(n))
        random.Random(f"{self.seed}:{pass_index}:{name}").shuffle(perm)
        return n, sorted((perm[u], perm[v]) for u, v in arcs)

    def calls(self, pass_index: int) -> list[list[str]]:
        argvs = []
        for name in self.base:
            n, arcs = self.digraph(pass_index, name)
            path = self.input_dir / f"{name}.edges"
            lines = [f"# {name}, seed {self.seed}, pass {pass_index}", f"n {n}"]
            lines += [f"{u} {v}" for u, v in arcs]
            path.write_text("\n".join(lines) + "\n")
            argvs.append(["aut", "--input", str(path), "--output", "json"])
        return argvs

    def check(self, pass_index: int, results, oracle) -> tuple[int, list[str]]:
        problems = []
        for (argv, rc, stdout), name in zip(results, self.base):
            group = _json(stdout)
            if rc != 0 or group is None:
                problems.append(f"{name}: exit {rc}")
                continue
            n, arcs = self.digraph(pass_index, name)
            problem = oracle.automorphism_group(
                n, arcs, group["generators"], group["order"], reference.AUT_ORDERS[name])
            if problem:
                problems.append(f"{name} (pass {pass_index}): {problem}")
        return len(self.base), problems


WORKLOADS = {w.name: w for w in (VerifyExtended, SearchSmall, AutSymmetric)}
