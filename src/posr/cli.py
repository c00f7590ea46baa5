"""Command-line interface.

Exit codes: 0 success, 1 claim failure (or witness found where the registry
expects none), 2 usage error, 3 search aborted on budget (for ``verify``: no
claim failed, but one was skipped because a budget ran out).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import io as pio
from .autgroup import DEFAULT_NODE_BUDGET, automorphism_group
from .catalog import SuiteBudget, classify, verify_all
from .errors import PosrError
from .groups import group_from_token
from .search import exists_antisymmetric_kregular, exists_mposr


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


_TIERS = ("default", "extended")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="posr",
        description="Verify, search, and build m-partite Cayley digraph representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the claim-verification suite")
    p.add_argument("--tier", choices=_TIERS, default=None,
                   help="default: $POSR_TIER when set, else default")
    p.add_argument("--output", choices=["json", "table"], default="table")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="per search: IR nodes of each automorphism-solver call, "
                        "kernel descents of each rigid-digraph search")
    p.add_argument("--time-budget", type=float, default=None,
                   help="per-claim seconds before a claim is skipped")

    p = sub.add_parser("search", help="exhaustive witness search")
    p.add_argument("--group", help="group token, e.g. cyclic:6 or quaternion8")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=["posr", "pdr"], default=None,
                   help="default posr; not with --antisym, which takes --oriented")
    p.add_argument("--valency", type=int, default=3)
    p.add_argument("--antisym", action="store_true",
                   help="search bare k-regular digraphs instead of connection sets")
    p.add_argument("--oriented", action="store_true",
                   help="with --antisym: forbid digons")
    p.add_argument("--naive", action="store_true",
                   help="disable the quick-reject pipeline (oracle mode)")
    p.add_argument("--cursor-start", type=int, default=None)
    p.add_argument("--cursor-stop", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--progress-every", type=int, default=None)
    p.add_argument("--output", choices=["json"], default="json")

    p = sub.add_parser("aut", help="automorphism group of a digraph file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", choices=["json", "table"], default="table")

    p = sub.add_parser("build", help="build a Cayley digraph from connection sets")
    p.add_argument("--group", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sets", required=True, help="ConnectionSets JSON file")
    p.add_argument("--output", choices=["edgelist", "dot", "json"], default="edgelist")

    p = sub.add_parser("classify", help="classification verdict for (group, m, kind)")
    p.add_argument("--group", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=["posr", "pdr"], default="posr")
    return parser


def _cmd_verify(args) -> int:
    # the environment is read per call, not when the shared parser was built
    tier = args.tier or os.environ.get("POSR_TIER", "default")
    if tier not in _TIERS:
        print(f"error: POSR_TIER={tier!r} is not one of {', '.join(_TIERS)}", file=sys.stderr)
        return 2
    budget = SuiteBudget(tier=tier, node_budget=args.node_budget,
                         time_budget_per_claim=args.time_budget)
    report = verify_all(budget)
    if args.output == "json":
        print(_dump(report.to_json()))
    else:
        print(report.to_table())
    if report.failures:
        return 1
    return 3 if report.budget_skips else 0


def _cmd_search(args) -> int:
    # flags of the one search that the other does not read
    if args.antisym:
        ignored = {"--group": args.group, "--kind": args.kind, "--naive": args.naive,
                   "--cursor-start": args.cursor_start, "--cursor-stop": args.cursor_stop,
                   "--progress-every": args.progress_every}
    else:
        ignored = {"--oriented": args.oriented}
    given = [flag for flag, value in ignored.items() if value is not None and value is not False]
    if given:
        mode = "with" if args.antisym else "without"
        print(f"error: {', '.join(given)} not allowed {mode} --antisym", file=sys.stderr)
        return 2
    if args.antisym:
        outcome = exists_antisymmetric_kregular(args.m, args.valency, args.oriented,
                                                time_budget=args.time_budget)
    else:
        if not args.group:
            print("error: --group is required without --antisym", file=sys.stderr)
            return 2
        outcome = exists_mposr(
            group_from_token(args.group), args.m, args.valency, (args.kind or "posr").upper(),
            naive=args.naive, cursor_start=args.cursor_start or 0,
            cursor_stop=args.cursor_stop, time_budget=args.time_budget,
            progress_every=args.progress_every,
            progress_cb=lambda p: print(_dump(p).replace("\n", " "), file=sys.stderr),
        )
    print(_dump(outcome.to_json()))
    return 3 if outcome.status == "Aborted" else 0


def _cmd_aut(args) -> int:
    with open(args.input) as f:
        d = pio.parse_edgelist(f.read())
    res = automorphism_group(d)
    if args.output == "json":
        print(_dump({
            "generators": [g.tolist() for g in res.generators],
            "order": res.order,
        }))
    else:
        for g in res.generators:
            print("generator", " ".join(str(int(v)) for v in g))
        print("order", res.order)
    return 0


def _cmd_build(args) -> int:
    g = group_from_token(args.group)
    with open(args.sets) as f:
        conn = pio.parse_connection_sets(f.read(), g)
    if conn.m != args.m:
        print(f"error: sets file has m={conn.m}, flag says m={args.m}", file=sys.stderr)
        return 2
    from .cayley import build_cayley

    pd = build_cayley(g, conn)
    sys.stdout.write(pio.export(pd.digraph, args.output))
    return 0


def _cmd_classify(args) -> int:
    verdict = classify(group_from_token(args.group), args.m, args.kind.upper())
    print(str(verdict))
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = {
        "verify": _cmd_verify,
        "search": _cmd_search,
        "aut": _cmd_aut,
        "build": _cmd_build,
        "classify": _cmd_classify,
    }[args.command]
    try:
        return handler(args)
    except (PosrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
