import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from chibound import (
    OrientedGraph,
    build_power_graph,
    build_zykov,
    canonical_json,
    graph_json_dict,
    read_edgelist,
    write_dimacs,
    write_edgelist,
)
from chibound.formats import _read_bulk, _read_lines
from helpers import random_dag, read_outcome


def test_edgelist_roundtrip_unlabeled():
    g = OrientedGraph(4, [(0, 1), (2, 3), (0, 3)])
    text = write_edgelist(g)
    assert text == "n 4 3\n0 1\n0 3\n2 3\n"
    back, labels, metadata = read_edgelist(text)
    assert back == g and labels is None and metadata == {}


def test_edgelist_roundtrip_labeled_with_metadata():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    labels = (1, 2)
    text = write_edgelist(g, labels=labels, metadata={"p": 3, "note": "x: y"})
    back, back_labels, metadata = read_edgelist(text)
    assert back == g
    assert back_labels == labels
    # metadata values come back as strings; colons in values survive
    assert metadata == {"p": "3", "note": "x: y"}


def test_edgelist_labels_follow_the_canonical_edge_order():
    back, labels, _ = read_edgelist("n 3 3\n1 2 3\n0 2 2\n0 1 4\n")
    assert back.edges == ((0, 1), (0, 2), (1, 2))
    assert labels == (4, 2, 3)


def test_edgelist_skips_blank_lines():
    back, labels, _ = read_edgelist("\nn 2 1\n\n0 1\n\n")
    assert back == OrientedGraph(2, [(0, 1)]) and labels is None


def test_edgelist_errors():
    with pytest.raises(ValueError, match="header"):
        read_edgelist("0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_edgelist("# only a comment\n")
    with pytest.raises(ValueError, match="declares 2 edges, found 1"):
        read_edgelist("n 3 2\n0 1\n")
    with pytest.raises(ValueError, match="mixed"):
        read_edgelist("n 3 2\n0 1 1\n1 2\n")
    with pytest.raises(ValueError, match="expected 'u v' or 'u v r'"):
        read_edgelist("n 2 1\n0 1 2 3\n")
    with pytest.raises(ValueError, match="line 4: duplicate edge 0 1"):
        read_edgelist("# p: 5\nn 3 2\n0 1 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 3: duplicate edge 0 1"):
        read_edgelist("n 2 2\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="line 3: expected integers, got '0 x 1'"):
        read_edgelist("# p: 5\nn 3 1\n0 x 1\n")
    with pytest.raises(ValueError, match="line 1: expected integers, got 'n 3 x'"):
        read_edgelist("n 3 x\n0 1\n")


def test_duplicate_edge_line_counts_comments_and_blank_lines():
    text = "# p: 5\nn 4 3\n 0 1 1\n\n# note: x\n  1 2 2\n0  1 3\n"
    with pytest.raises(ValueError, match="line 7: duplicate edge 0 1"):
        read_edgelist(text)
    # the graph is built before the rescan, so its own checks come first
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=3"):
        read_edgelist("n 3 3\n0 1\n0 1\n0 5\n")


def test_edgelist_lines_end_at_newline_only():
    # str.splitlines() would also break at \u2028, \x0c, \x1d and \x85
    back, labels, metadata = read_edgelist("# note: a\u2028b\nn 3 1\n0 1 1\n")
    assert back == OrientedGraph(3, [(0, 1)]) and labels == (1,)
    assert metadata == {"note": "a\u2028b"}
    _, _, metadata = read_edgelist("# note: a\x0cb\x1dc\nn 3 1\n0 1 1\n")
    assert metadata == {"note": "a\x0cb\x1dc"}
    with pytest.raises(ValueError, match="line 4: duplicate edge 0 1"):
        read_edgelist("n 2 2\n# a\x85b\n0 1\n0 1\n")
    back, labels, _ = read_edgelist("# p: 3\r\nn 2 1\r\n0 1 2\r\n")
    assert back == OrientedGraph(2, [(0, 1)]) and labels == (2,)


def test_written_power_graph_takes_the_bulk_path():
    pg = build_power_graph(build_zykov(4), 3)
    text = write_edgelist(pg.graph, pg.labels, metadata={"p": 3})
    assert _read_bulk(text, None) is not None
    assert read_outcome(read_edgelist, text) == read_outcome(_read_lines, text)
    assert _read_bulk(text, pg.graph.n - 1) is None  # the line parser refuses it


@pytest.mark.parametrize(
    "edges",
    [
        ["0 1", "1 2", "1 2"],  # a repeated edge
        ["0 1", "1 3", "1 2"],  # equal tails, descending heads
        ["0 1", "2 1", "1 3"],  # descending tails, the head rising
    ],
)
@pytest.mark.parametrize("labeled", [False, True])
def test_bulk_reader_leaves_edges_out_of_order_to_the_line_parser(edges, labeled):
    lines = [f"{e} {r}" for r, e in enumerate(edges, start=1)] if labeled else edges
    text = "\n".join(["# p: 5", f"n 4 {len(lines)}", *lines]) + "\n"
    assert _read_bulk(text, None) is None
    assert read_outcome(read_edgelist, text) == read_outcome(_read_lines, text)


def test_bulk_reader_peaks_no_higher_than_the_line_parser():
    pg = build_power_graph(build_zykov(5), 7)
    text = write_edgelist(pg.graph, pg.labels, metadata={"p": 7})
    peaks = []
    for read in (read_edgelist, _read_lines):
        read(text, size_cap=None)  # first-use caches are no part of the peak
        tracemalloc.start()
        try:
            read(text, size_cap=None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert canonical_json({"a": 1, "b": 1}) == canonical_json({"b": 1, "a": 1})


def test_dimacs_output():
    g = OrientedGraph(3, [(0, 1), (2, 1)])
    assert write_dimacs(g) == "p edge 3 2\ne 1 2\ne 2 3\n"


def test_dimacs_collapses_antiparallel_pairs():
    g = OrientedGraph(2, [(0, 1), (1, 0)])
    assert write_dimacs(g) == "p edge 2 1\ne 1 2\n"


def test_graph_json_dict_shapes():
    g = OrientedGraph(2, [(0, 1)])
    assert graph_json_dict(g) == {"n": 2, "edges": [[0, 1]]}
    assert graph_json_dict(g, labels=(4,), p=5) == {
        "n": 2,
        "edges": [[0, 1, 4]],
        "p": 5,
    }


@given(st.integers(0, 5_000), st.booleans(), st.booleans())
def test_edgelist_roundtrip_random(seed, with_labels, with_metadata):
    rng = random.Random(seed)
    g = random_dag(rng, max_n=30)
    labels = None
    if with_labels and g.m:
        labels = tuple(rng.randrange(1, 7) for _ in g.edges)
    metadata = {"p": 7, "note": "x: y", "config": {"k": [seed]}} if with_metadata else None
    text = write_edgelist(g, labels=labels, metadata=metadata)
    back, back_labels, _ = read_edgelist(text)
    assert back == g
    assert back_labels == labels
    assert _read_bulk(text, None) is not None
    assert read_outcome(read_edgelist, text) == read_outcome(_read_lines, text)


def _joined_edgelist(g, labels=None, metadata=None) -> str:
    """``write_edgelist``'s text by definition: every line, joined by newlines."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}: {value if isinstance(value, str) else json.dumps(value, sort_keys=True)}")
    lines.append(f"n {g.n} {g.m}")
    if labels is None:
        lines += (f"{u} {v}" for u, v in zip(g.tails, g.heads))
    else:
        lines += (f"{u} {v} {r}" for u, v, r in zip(g.tails, g.heads, labels))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [0, 1 << 16, (1 << 16) + 1])  # none, one run of lines, one run and one line
@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("metadata", [None, {"p": 5, "note": "x: y", "config": {"k": [1, 2]}}])
def test_edgelist_writer_runs_join_to_the_lines(m, labeled, metadata):
    pairs = [(u, v) for u in range(400) for v in range(u)][:m]  # canonical order
    g = OrientedGraph._canonical(400, [u for u, _ in pairs], [v for _, v in pairs])
    labels = tuple((u + v) % 4 + 1 for u, v in pairs) if labeled else None
    text = write_edgelist(g, labels, metadata)
    assert text == _joined_edgelist(g, labels, metadata)
    assert text.count("\n") == m + 1 + len(metadata or ())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text() | st.integers(), inner),
    max_leaves=20,
)

# shaped like the provenance sidecar: lists of dicts of ints, None, bools and
# int lists, where the scalar fast paths and a bool's fall-through meet
_SIDECAR_SHAPED = st.lists(
    st.dictionaries(st.text(), st.none() | st.booleans() | st.integers() | st.lists(st.integers()))
)


@settings(max_examples=100)
@given(_JSON_VALUES | _SIDECAR_SHAPED)
@example([{"level": 2, "copy": None, "transversal": 0, "apex": True, "row": [1, -2]}, {}])
def test_canonical_json_matches_json_dumps(obj):
    try:
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except TypeError:  # str and int keys in one dict do not sort
        with pytest.raises(TypeError):
            canonical_json(obj)
    else:
        assert canonical_json(obj) == expected
