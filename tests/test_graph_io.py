"""Graph and cover I/O tests.

`naive_edge_census` re-counts nodes and unique undirected edges from raw
text with none of the package's machinery, so the loader has an independent
check for comment skipping, duplicate collapsing, and self-loop dropping.
"""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcslpa.graph import (
    Cover,
    IdMap,
    ParseError,
    build_graph,
    load_cover,
    load_edge_list,
    write_cover,
    write_edge_list,
)


def naive_edge_census(text: str) -> tuple[int, int]:
    """(node count, unique undirected non-loop edge count) from edge text."""
    nodes: set[str] = set()
    edges: set[frozenset[str]] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        a, b = line.split()
        nodes.update((a, b))
        if a != b:
            edges.add(frozenset((a, b)))
    return len(nodes), len(edges)


def test_loader_counts_match_naive_census():
    text = "# header\n1 2\n2 3\n1 2\n\n3 1\n"
    g = load_edge_list(io.StringIO(text))
    assert (g.n, g.m) == naive_edge_census(text) == (3, 3)


def test_duplicate_edges_collapse():
    g = load_edge_list(io.StringIO("1 2\n2 3\n1 2\n"))
    assert g.n == 3
    assert g.m == 2


def test_self_loops_dropped_but_node_kept():
    g = load_edge_list(io.StringIO("7 7\n7 8\n"))
    assert g.n == 2
    assert g.m == 1
    assert len(g.adjacency[0]) == 1


def test_reversed_duplicates_collapse():
    g = load_edge_list(io.StringIO("a b\nb a\n"))
    assert g.m == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40))
def test_loader_agrees_with_census_on_random_text(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    n_naive, m_naive = naive_edge_census(text)
    if m_naive == 0 and n_naive == 0:
        return
    g = load_edge_list(io.StringIO(text))
    assert (g.n, g.m) == (n_naive, m_naive)


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO("1 2\n1 2 3\n"))
    assert "line 2" in str(exc.value)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("# only comments\n\n"))


def test_first_appearance_order_of_internal_ids():
    g = load_edge_list(io.StringIO("x y\ny z\n"))
    assert g.ids.internal("x") == 0
    assert g.ids.internal("y") == 1
    assert g.ids.internal("z") == 2
    assert g.ids.external(2) == "z"


def test_adjacency_sorted_and_degree_sum():
    edges = [(0, 3), (0, 1), (2, 0), (1, 3)]
    g = build_graph(4, edges)
    assert g.adjacency[0] == [1, 2, 3]
    assert sum(len(g.adjacency[v]) for v in range(g.n)) == 2 * g.m
    assert 2 in g.adjacency[0] and 0 in g.adjacency[2]
    assert 2 not in g.adjacency[1]


def test_edges_iterates_each_pair_once_sorted():
    g = build_graph(4, [(2, 1), (0, 3), (1, 0)])
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]),
               min_size=1, max_size=25))
def test_edge_list_round_trip_preserves_edges(pairs):
    n = max(max(p) for p in pairs) + 1
    g = build_graph(n, pairs)
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    # tokens survive; internal ids may be renumbered, so compare by token
    tokens = lambda gr: {frozenset((gr.ids.external(u), gr.ids.external(v))) for u, v in gr.edges()}
    assert tokens(g) == tokens(g2)
    assert g2.m == g.m


def test_id_map_identity_and_membership():
    m = IdMap.identity(3)
    assert len(m) == 3
    assert m.internal("2") == 2
    assert "1" in m and "9" not in m
    with pytest.raises(KeyError):
        m.internal("9")
    assert [m.external(i) for i in range(3)] == ["0", "1", "2"]


def test_cover_dedup_and_empty_rejection():
    c = Cover([{1, 2}, {2, 1}, {3}])
    assert len(c) == 2
    with pytest.raises(ValueError):
        Cover([{1}, set()])


def test_cover_memberships_and_nodes():
    c = Cover([{1, 2, 3}, {3, 4}])
    assert c.memberships(3) == [0, 1]
    assert c.memberships(9) == []
    assert c.nodes() == {1, 2, 3, 4}


def test_load_cover_strict_and_lenient():
    ids = IdMap({"a": 0, "b": 1, "c": 2})
    cover = load_cover(io.StringIO("a b\nb c\n"), ids)
    assert len(cover) == 2
    with pytest.raises(ParseError):
        load_cover(io.StringIO("a z\n"), ids, strict=True)
    lenient = load_cover(io.StringIO("a z\nb c\n"), ids, strict=False)
    assert [set(c) for c in lenient.communities] == [{0}, {1, 2}]


def test_cover_round_trip():
    rng = random.Random(7)
    ids = IdMap({f"v{i}": i for i in range(20)})
    comms = [set(rng.sample(range(20), rng.randint(1, 8))) for _ in range(6)]
    cover = Cover(comms)
    buf = io.StringIO()
    write_cover(cover, buf, ids)
    back = load_cover(io.StringIO(buf.getvalue()), ids)
    assert {frozenset(c) for c in back.communities} == {frozenset(c) for c in cover.communities}


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark


def test_edge_list_file_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_bytes(BOM + b"0 1\n1 2\n2 0\n")
    g = load_edge_list(path)
    assert g.n == 3
    assert [g.ids.external(v) for v in range(g.n)] == ["0", "1", "2"]


def test_cover_file_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_bytes(BOM + b"0 1 2\n")
    assert load_cover(path, IdMap.identity(3)) == Cover([{0, 1, 2}])
