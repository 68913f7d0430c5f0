"""File formats: labeled edge-list text, DIMACS .col export, canonical JSON.

The edge-list format is line-oriented, and a line ends at ``\n`` only:
optional ``#`` comment lines (used to embed run metadata such as the
serialized config, input hashes, and the modulus of a labeled graph), a header
``n <vertices> <edges>``, then one line ``u v`` or ``u v r`` per edge, 0-based.
Writers emit edges in canonical sorted order so identical inputs produce
byte-identical files, and the reader parses a file of exactly that shape in
bulk, straight into a graph's parallel tail and head tuples.
"""

from __future__ import annotations

import json
import re
from itertools import islice, starmap
from operator import eq, le, lt, or_

from .errors import SizeBudgetExceeded
from .graphs import OrientedGraph

# leading comment lines and the header, as ``write_edgelist`` emits them
_BULK_HEAD = re.compile(r"(?:#[^\n]*\n)*n ([0-9]+) ([0-9]+)\n")
_BULK_CHUNK = 1 << 20  # characters of edge lines parsed at a time
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.

    Byte-identical to ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.
    """
    return _indented_json(obj, "") + "\n"


def _indented_json(v, indent: str) -> str:
    """``json.dumps(v, sort_keys=True, indent=2)`` with every line after the
    first shifted by ``indent``. A plain int, None, a dict with str keys and a
    non-empty list are laid out here, a list of plain ints joined at once;
    anything else goes to ``json.dumps`` whole (a JSON string never holds a
    raw newline). A bool is not a plain int, so it goes to ``json.dumps``."""
    if type(v) is int:
        return str(v)
    if v is None:
        return "null"
    inner = indent + "  "
    if type(v) is dict and v and all(type(k) is str for k in v):
        items = (f"{json.dumps(k)}: {_indented_json(v[k], inner)}" for k in sorted(v))
        ends = "{}"
    elif type(v) is list and v:
        if set(map(type, v)) == {int}:
            items = map(str, v)
        else:
            items = (_indented_json(x, inner) for x in v)
        ends = "[]"
    else:
        return json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def write_edgelist(g: OrientedGraph, labels=None, metadata=None) -> str:
    """Serialize a graph to edge-list text, with ``labels[j]`` as the residue
    of edge j when labels are given. The edge lines are formatted a bounded
    run at a time, so no string per line of the whole graph is ever alive."""
    parts = []
    if metadata:
        for key in metadata:
            value = metadata[key]
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            parts.append(f"# {key}: {value}\n")
    parts.append(f"n {g.n} {g.m}\n")
    if labels is None:
        line, edges = "{} {}\n", zip(g.tails, g.heads)
    else:
        line, edges = "{} {} {}\n", zip(g.tails, g.heads, labels)
    while run := "".join(starmap(line.format, islice(edges, 1 << 16))):
        parts.append(run)
    return "".join(parts)


def read_edgelist(text: str, *, size_cap: int | None = None):
    """Parse edge-list text.

    Returns ``(graph, labels, metadata)`` where ``labels`` is None for an
    unlabeled file and otherwise a tuple parallel to ``graph.tails`` and
    ``graph.heads`` (whatever order the file lists the edges in), and
    ``metadata`` maps comment keys to their string values. An edge listed
    twice is an error, and so is a header vertex count above ``size_cap``
    (SizeBudgetExceeded), which is refused before any graph is built.

    A file shaped like ``write_edgelist``'s output is parsed in bulk; any
    other file, valid or not, goes through the line parser, whose errors
    name the offending line.
    """
    return _read_bulk(text, size_cap) or _read_lines(text, size_cap)


def _read_comment(line: str, metadata: dict[str, str]) -> None:
    body = line[1:].strip()
    if ":" in body:
        key, _, value = body.partition(":")
        metadata[key.strip()] = value.strip()


def _read_bulk(text: str, size_cap: int | None):
    """``read_edgelist`` for text shaped exactly like ``write_edgelist``'s
    output, or None for any other text: comment lines, the header, then the
    header's count of ``u v`` or ``u v r`` lines, fields and lines ended by
    one space and one ``\n``, edges strictly ascending. Never raises.

    The edge lines are parsed a chunk at a time, so no token list of the
    whole file is ever built, and their columns go straight into the tails
    and heads. The edges ascend strictly iff the tails never fall and, at
    each step, the tail or the head rises."""
    if not text.isascii() or not (head := _BULK_HEAD.match(text)):
        return None
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:  # more digits than int() converts
        return None
    start = head.end()
    if (size_cap is not None and n > size_cap) or text.count("\n", start) != m or text[-1] != "\n":
        return None
    tails, heads, labels = [], [], None
    if m:
        width = text.count(" ", start, text.index("\n", start)) + 1
        if width not in (2, 3):
            return None
        line_seps = b" " * (width - 1) + b"\n"
        labels = [] if width == 3 else None
        while start < len(text):
            end = text.index("\n", min(start + _BULK_CHUNK, len(text) - 1)) + 1
            chunk = text[start:end].encode()
            seps = chunk.translate(None, _DIGITS)
            if seps != line_seps * (len(seps) // width):
                return None
            try:  # a JSON array of the fields, which refuses empty ones and leading zeros
                values = json.loads(b"[" + chunk.translate(_COMMAS)[:-1] + b"]")
            except ValueError:
                return None
            us, vs = values[0::width], values[1::width]
            if any(map(eq, us, vs)):
                return None
            tails += us
            heads += vs
            if labels is not None:
                labels += values[2::width]
            start = end
        falls = not all(map(le, tails, islice(tails, 1, None)))
        rises = map(or_, map(lt, tails, islice(tails, 1, None)), map(lt, heads, islice(heads, 1, None)))
        if falls or tails[-1] >= n or max(heads) >= n or not all(rises):
            return None
    metadata: dict[str, str] = {}
    for line in head[0].split("\n")[:-2]:  # the pieces after are the header and ""
        _read_comment(line, metadata)
    labels = None if labels is None else tuple(labels)
    return OrientedGraph._canonical(n, tails, heads), labels, metadata


def _read_lines(text: str, size_cap: int | None):
    """``read_edgelist`` line by line, for any text."""
    metadata: dict[str, str] = {}
    header = None
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    labeled = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _read_comment(line, metadata)
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
        data = [(i, ln.split()) for i, ln in enumerate(text.split("\n"), start=1)]
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
    """JSON-ready dict view of a graph, with residue labels (parallel to its
    edges) when present."""
    if labels is None:
        edges = [[u, v] for u, v in zip(g.tails, g.heads)]
    else:
        edges = [[u, v, r] for u, v, r in zip(g.tails, g.heads, labels)]
    out = {"n": g.n, "edges": edges}
    if p is not None:
        out["p"] = p
    return out
