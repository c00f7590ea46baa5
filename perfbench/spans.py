"""Spans and counts at posr's layer boundaries, recorded from outside.

``Tracer`` replaces each traced public function under every name its callers
look it up by (a module attribute, or a method on ``StabilizerChain``) with a
wrapper that records a span (name, start, end, parent) and updates counts
from the call's arguments and result.  Nothing inside ``src/posr`` changes;
leaving the ``with`` block puts every original binding back.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

from posr import autgroup, catalog, cayley, cli, groups, io, kernels, search

LAYER_MODULES = (cli, io, catalog, search, cayley, autgroup, kernels, groups)


def _count(name):
    def on_result(counts, args, result):
        counts[name] += 1
    return on_result


def _on_refine(counts, args, result):
    counts["kernels.refine_calls"] += 1
    counts["kernels.refine_vertices"] += int(args[0])


def _on_regular_search(counts, args, result):
    counts["kernels.regular_search_calls"] += 1
    counts["kernels.regular_search_nodes"] += int(result[1])


def _on_aut(counts, args, result):
    counts["autgroup.aut_calls"] += 1
    counts["autgroup.generators"] += len(result.generators)
    counts["autgroup.base_points"] += len(result.base)


def _on_probe(counts, args, result):
    counts["autgroup.probe_calls"] += 1
    counts["autgroup.probe_rejects"] += result is not None


def _on_oriented(counts, args, result):
    counts["cayley.oriented_checks"] += 1
    counts["cayley.oriented_rejects"] += not result


def _on_leaf(counts, args, result):
    counts["cayley.leaf_checks"] += 1
    counts["cayley.leaf_accepts"] += bool(result)


def _on_exists_mposr(counts, args, result):
    counts["search.examined"] += result.candidates_examined


def _on_verify_all(counts, args, result):
    counts["catalog.claims"] += len(result.results)


# (defining module, function name, counts to update from each call)
FUNCTIONS = (
    (cli, "run", None),
    (io, "parse_edgelist", None),
    (catalog, "verify_all", _on_verify_all),
    (search, "exists_mposr", _on_exists_mposr),
    (search, "exists_antisymmetric_kregular", None),
    (search, "count_connection_sets", None),
    (cayley, "sets_oriented", _on_oriented),
    (cayley, "validate_sets", _count("cayley.validate_calls")),
    (cayley, "build_cayley", _count("cayley.build_calls")),
    (cayley, "is_digraph_automorphism", _on_leaf),
    (autgroup, "automorphism_group", _on_aut),
    (autgroup, "find_nontrivial_automorphism", _on_probe),
    (autgroup, "is_semiregular_rep", None),
    (kernels, "refine_partition", _on_refine),
    (kernels, "regular_digraph_search", _on_regular_search),
    (groups, "group_from_token", None),
    (groups, "named_group", None),
    (groups, "group_from_permutations", _count("groups.build_calls")),
    (groups, "group_automorphisms", None),
)
GENERATORS = ((search, "enumerate_connection_sets", "search.enumerated"),)
METHODS = (
    (autgroup.StabilizerChain, "add_generator", "autgroup.add_generator_calls"),
    (autgroup.StabilizerChain, "sift", "autgroup.sift_calls"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, on_result):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result
        return traced

    def _wrap_generator(self, fn, name, counter):
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts[counter] += 1
                yield item
        return traced

    def _patch_bindings(self, original, wrapper) -> None:
        for module in LAYER_MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for module, fn_name, on_result in FUNCTIONS:
            original = getattr(module, fn_name)
            layer = module.__name__.split(".")[1]
            self._patch_bindings(original, self._wrap(original, f"{layer}.{fn_name}", on_result))
        for module, fn_name, counter in GENERATORS:
            original = getattr(module, fn_name)
            wrapper = self._wrap_generator(original, f"search.{fn_name}", counter)
            self._patch_bindings(original, wrapper)
        for cls, method, counter in METHODS:
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original, f"autgroup.{cls.__name__}.{method}",
                                            _count(counter)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def times(self) -> tuple[dict, dict]:
        """Per span name: (summed duration, summed self time)."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            total[name] += duration
            own[name] += duration - child[i]
        return total, own

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one
        [name index, start s, end s, parent index] row per span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt") as f:
            json.dump({"names": table, "spans": rows}, f, separators=(",", ":"))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  ``*_self_s`` are self times;
    every other ``*_s`` is the summed duration of the named spans, children
    included.  A ratio whose base is 0 reads 0."""
    c = tracer.counts
    total, own = tracer.times()
    out = {name: c[name] for name in (
        "kernels.refine_calls", "kernels.refine_vertices",
        "kernels.regular_search_calls", "kernels.regular_search_nodes",
        "autgroup.aut_calls", "autgroup.generators", "autgroup.base_points",
        "autgroup.add_generator_calls", "autgroup.sift_calls",
        "autgroup.probe_calls", "autgroup.probe_rejects",
        "cayley.oriented_checks", "cayley.oriented_rejects",
        "cayley.validate_calls", "cayley.build_calls",
        "cayley.leaf_checks", "cayley.leaf_accepts",
        "search.enumerated", "search.examined",
        "groups.build_calls", "catalog.claims",
    )}
    out.update({
        "kernels.refine_s": total["kernels.refine_partition"],
        "kernels.refine_calls_per_aut": _ratio(c["kernels.refine_calls"], c["autgroup.aut_calls"]),
        "kernels.regular_search_s": total["kernels.regular_digraph_search"],
        "autgroup.aut_self_s": own["autgroup.automorphism_group"],
        "autgroup.generators_per_base_point": _ratio(c["autgroup.generators"],
                                                     c["autgroup.base_points"]),
        "autgroup.schreier_sims_s": sum(own[f"autgroup.StabilizerChain.{m}"]
                                        for _, m, _ in METHODS),
        "autgroup.probe_s": total["autgroup.find_nontrivial_automorphism"],
        "autgroup.probe_reject_ratio": _ratio(c["autgroup.probe_rejects"],
                                              c["autgroup.probe_calls"]),
        "autgroup.aut_calls_per_examined": _ratio(c["autgroup.aut_calls"], c["search.examined"]),
        "cayley.oriented_reject_ratio": _ratio(c["cayley.oriented_rejects"],
                                               c["cayley.oriented_checks"]),
        "cayley.oriented_s": total["cayley.sets_oriented"],
        "cayley.validate_s": total["cayley.validate_sets"],
        "cayley.build_s": total["cayley.build_cayley"],
        "cayley.leaf_accept_ratio": _ratio(c["cayley.leaf_accepts"], c["cayley.leaf_checks"]),
        "cayley.leaf_s": total["cayley.is_digraph_automorphism"],
        "search.count_s": total["search.count_connection_sets"],
        "search.enumerate_s": total["search.enumerate_connection_sets"],
        "search.self_s": own["search.exists_mposr"] + own["search.exists_antisymmetric_kregular"],
        "groups.build_s": sum(own[f"groups.{f}"] for f in (
            "group_from_token", "named_group", "group_from_permutations")),
        "groups.automorphisms_s": total["groups.group_automorphisms"],
        "catalog.self_s": own["catalog.verify_all"],
        "cli.self_s": own["cli.run"],
        "io.parse_s": total["io.parse_edgelist"],
    })
    return out
