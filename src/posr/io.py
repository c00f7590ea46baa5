"""Digraph and connection-set serialization.

Edgelist text format: optional '#'-prefixed comment lines, then a first
data line ``n <vertex-count>``, then one arc per line ``u v`` with 0-based
integers, sorted by (u, v).  Exports are deterministic byte-for-byte.
"""

from __future__ import annotations

import json

from .cayley import ConnectionSets, Digraph
from .errors import InvalidParameter, UnsupportedFormat
from .groups import GroupTable


def to_edgelist(d: Digraph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n {d.n}")
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Digraph:
    n = None
    arcs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        want = "'n <count>' header" if n is None else "'u v' arc line"
        if len(parts) != 2 or n is None and parts[0] != "n":
            raise InvalidParameter(f"expected {want}, got {line!r}")
        try:
            values = [int(part) for part in (parts[1:] if n is None else parts)]
        except ValueError:
            raise InvalidParameter(f"expected integers in the {want}, got {line!r}") from None
        if n is None:
            if values[0] < 0:
                raise InvalidParameter(f"expected a vertex count >= 0, got {line!r}")
            n = values[0]
        else:
            arcs.append(tuple(values))
    if n is None:
        raise InvalidParameter("missing 'n <count>' header")
    return Digraph(n, arcs)


def to_dot(d: Digraph, name: str = "digraph0") -> str:
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {v};" for v in range(d.n))
    lines.extend(f"  {u} -> {v};" for u, v in d.arcs())
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(d: Digraph) -> str:
    payload = {"arcs": [[u, v] for u, v in d.arcs()], "n": d.n}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def export(d: Digraph, fmt: str) -> str:
    if fmt == "edgelist":
        return to_edgelist(d)
    if fmt == "dot":
        return to_dot(d)
    if fmt == "json":
        return to_json(d)
    raise UnsupportedFormat(f"unknown format {fmt!r}")


def connection_sets_to_json(conn: ConnectionSets, g: GroupTable | None = None) -> str:
    return json.dumps(conn.to_json(g), sort_keys=True, indent=2) + "\n"


def parse_connection_sets(text: str, g: GroupTable) -> ConnectionSets:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"connection-set file is not JSON: {exc}") from None
    return ConnectionSets.from_json(data, g)
