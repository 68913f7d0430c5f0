"""File formats: labeled edge-list text, DIMACS .col export, canonical JSON.

The edge-list format is line-oriented: optional ``#`` comment lines (used to
embed run metadata such as the serialized config, input hashes, and the
modulus of a labeled graph), a header ``n <vertices> <edges>``, then one line
``u v`` or ``u v r`` per edge, 0-based. Writers emit edges in canonical sorted
order so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

from .errors import SizeBudgetExceeded
from .graphs import OrientedGraph


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_edgelist(g: OrientedGraph, labels=None, metadata=None) -> str:
    """Serialize a graph to edge-list text, with ``labels[j]`` as the residue
    of ``g.edges[j]`` when labels are given."""
    lines = []
    if metadata:
        for key in metadata:
            value = metadata[key]
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"# {key}: {value}")
    lines.append(f"n {g.n} {g.m}")
    if labels is None:
        lines.extend(f"{u} {v}" for u, v in g.edges)
    else:
        lines.extend(f"{u} {v} {r}" for (u, v), r in zip(g.edges, labels))
    return "\n".join(lines) + "\n"


def read_edgelist(text: str, *, size_cap: int | None = None):
    """Parse edge-list text.

    Returns ``(graph, labels, metadata)`` where ``labels`` is None for an
    unlabeled file and otherwise a tuple parallel to ``graph.edges`` (whatever
    order the file lists the edges in), and ``metadata`` maps comment keys to
    their string values. An edge listed twice is an error, and so is a
    header vertex count above ``size_cap`` (SizeBudgetExceeded), which is
    refused before any graph is built.
    """
    metadata: dict[str, str] = {}
    header = None
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    labeled = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                metadata[key.strip()] = value.strip()
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "n" or len(parts) != 3:
                raise ValueError(f"line {lineno}: expected header 'n <vertices> <edges>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
            if size_cap is not None and header[0] > size_cap:
                raise SizeBudgetExceeded(header[0], size_cap)
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v' or 'u v r'")
        this_labeled = len(parts) == 3
        if labeled is None:
            labeled = this_labeled
        elif labeled != this_labeled:
            raise ValueError(f"line {lineno}: mixed labeled and unlabeled edges")
        try:
            edges.append((int(parts[0]), int(parts[1])))
            if this_labeled:
                labels.append(int(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
    if header is None:
        raise ValueError("missing header line 'n <vertices> <edges>'")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    g = OrientedGraph(n, edges)
    if g.m < len(edges):  # the graph dropped a repeated edge; find its line
        data = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), start=1)]
        data = [(i, parts) for i, parts in data if parts and not parts[0].startswith("#")]
        seen = set()
        for lineno, (u, v, *_) in data[1:]:  # data[0] is the header
            if (e := (int(u), int(v))) in seen:
                raise ValueError(f"line {lineno}: duplicate edge {e[0]} {e[1]}")
            seen.add(e)
    if not labeled:
        return g, None, metadata
    # the graph keeps its edges sorted; sort the labels the same way
    order = sorted(range(len(edges)), key=edges.__getitem__)
    return g, tuple(labels[j] for j in order), metadata


def write_dimacs(g: OrientedGraph) -> str:
    """DIMACS .col export of the undirected view (1-based vertex ids)."""
    und = g.undirected_edges()
    lines = [f"p edge {g.n} {len(und)}"]
    for u, v in und:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def graph_json_dict(g: OrientedGraph, labels=None, p=None) -> dict:
    """JSON-ready dict view of a graph, with residue labels (parallel to
    ``g.edges``) when present."""
    if labels is None:
        edges = [[u, v] for u, v in g.edges]
    else:
        edges = [[u, v, r] for (u, v), r in zip(g.edges, labels)]
    out = {"n": g.n, "edges": edges}
    if p is not None:
        out["p"] = p
    return out
