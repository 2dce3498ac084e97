"""Graph construction, edge-list parsing, subdivision, and structural predicates."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from subspectra import graph as graph_module
from subspectra.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    ParseError,
    ResourceLimitError,
    SelfLoopError,
)
from subspectra.graph import (
    Graph,
    analyze,
    iterate_subdivide,
    parse_edge_list,
    serialize_edge_list,
    subdivide,
)

K4_TEXT = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert g.vertex_count == 3
        assert g.edge_count == 3
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_single_edge(self):
        g = parse_edge_list("0 1")
        assert (g.vertex_count, g.edge_count) == (2, 1)
        assert analyze(g).circuit_rank == 0

    def test_k4(self):
        g = parse_edge_list(K4_TEXT)
        assert (g.vertex_count, g.edge_count) == (4, 6)
        assert analyze(g).circuit_rank == 3

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a triangle\n\n0 1\n  # indented comment\n1 2\n\n2 0\n")
        assert g.edge_count == 3

    def test_sparse_ids_compacted_by_first_appearance(self):
        g = parse_edge_list("5 7\n7 9\n9 5")
        assert g.vertex_count == 3
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_dense_ids_kept_verbatim(self):
        # appearance order is 1, 2, 0 but the ids already cover 0..2
        g = parse_edge_list("1 2\n0 2")
        assert g.edges.tolist() == [[0, 2], [1, 2]]

    def test_self_loop_reports_line(self):
        with pytest.raises(SelfLoopError) as info:
            parse_edge_list("0 1\n2 2\n")
        assert info.value.line == 2

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(DuplicateEdgeError) as info:
            parse_edge_list("0 1\n1 0\n")
        assert info.value.line == 2

    @pytest.mark.parametrize("text", ["0 1 2", "a b", "-1 2", "0"])
    def test_malformed_line(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            parse_edge_list("0 1\n2 3\n")

    # each token is one Python's int() accepts; "1 2\n2 <token>" would
    # otherwise parse as a path on three vertices
    @pytest.mark.parametrize("token", ["1_0", "+3", "-0", "\u0663", "\uff13", "3\u0663"])
    def test_id_must_be_ascii_decimal(self, token):
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"1 2\n2 {token}\n")
        assert info.value.line == 2

    @pytest.mark.parametrize("text", ["", "# nothing here\n"])
    def test_no_edges(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)


class TestFromEdges:
    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            Graph.from_edges(2, [(0, 0), (0, 1)])

    def test_duplicate(self):
        with pytest.raises(DuplicateEdgeError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_isolated_vertex(self):
        with pytest.raises(DisconnectedError):
            Graph.from_edges(3, [(0, 1)])


class TestSubdivide:
    def test_arrays_are_read_only_int64(self):
        g = subdivide(complete_graph(4))
        for array in (g.edges, g.degrees):
            assert array.dtype == np.int64
            assert not array.flags.writeable
        assert g.edges.shape == (12, 2)

    def test_k2_gives_p3(self):
        g = subdivide(path_graph(2))
        assert g.edges.tolist() == [[0, 2], [1, 2]]
        assert g.degrees.tolist() == [1, 1, 2]

    def test_k4_counts_and_degrees(self):
        g = subdivide(complete_graph(4))
        assert (g.vertex_count, g.edge_count) == (10, 12)
        assert g.degrees[:4].tolist() == [3, 3, 3, 3]
        assert all(d == 2 for d in g.degrees[4:])

    def test_c4_gives_c8(self):
        g = subdivide(cycle_graph(4))
        # a connected 2-regular graph on 8 vertices is the 8-cycle
        assert g.vertex_count == 8
        assert all(d == 2 for d in g.degrees)

    def test_midpoints_follow_sorted_edge_order(self):
        g = subdivide(complete_graph(3))
        # edges (0,1), (0,2), (1,2) get midpoints 3, 4, 5
        assert g.edges.tolist() == [[0, 3], [0, 4], [1, 3], [1, 5], [2, 4], [2, 5]]


class TestIterateSubdivide:
    def test_identity_at_zero(self):
        k4 = complete_graph(4)
        assert iterate_subdivide(k4, 0) == k4

    def test_k4_level_two_counts(self):
        g = iterate_subdivide(complete_graph(4), 2)
        assert (g.vertex_count, g.edge_count) == (22, 24)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_growth_formula(self, n):
        seed = random_connected_graph(5, 6, 3)
        g = iterate_subdivide(seed, n)
        assert g.edge_count == 2**n * seed.edge_count
        assert g.vertex_count == seed.vertex_count + (2**n - 1) * seed.edge_count

    def test_k2_level_three_is_p9(self):
        # inserting midpoints three times by hand turns one edge into an
        # 8-edge path: two endpoints of degree 1, everything else degree 2
        g = iterate_subdivide(path_graph(2), 3)
        assert (g.vertex_count, g.edge_count) == (9, 8)
        assert sorted(g.degrees) == [1, 1] + [2] * 7

    def test_negative_level(self):
        with pytest.raises(ValueError):
            iterate_subdivide(complete_graph(4), -1)

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            iterate_subdivide(complete_graph(4), 5, vertex_cap=50)

    def test_vertex_cap_checked_before_allocating(self, monkeypatch):
        k4 = complete_graph(4)

        def fail(g):
            raise AssertionError("subdivide ran past the vertex cap")

        monkeypatch.setattr(graph_module, "subdivide", fail)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="level 40"):
                iterate_subdivide(k4, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestAnalyze:
    def test_k4(self):
        meta = analyze(complete_graph(4))
        assert meta.circuit_rank == 3
        assert meta.has_odd_cycle and not meta.is_bipartite

    def test_c4(self):
        meta = analyze(cycle_graph(4))
        assert meta.circuit_rank == 1
        assert meta.is_bipartite

    def test_c5(self):
        meta = analyze(cycle_graph(5))
        assert meta.circuit_rank == 1
        assert meta.has_odd_cycle

    @pytest.mark.parametrize("tree", [path_graph(5), star_graph(6)])
    def test_trees_have_rank_zero(self, tree):
        meta = analyze(tree)
        assert meta.circuit_rank == 0
        assert meta.is_bipartite


class TestSerializeRoundTrip:
    def test_k4(self):
        k4 = complete_graph(4)
        assert parse_edge_list(serialize_edge_list(k4)) == k4

    def test_subdivided_graph(self):
        g = iterate_subdivide(cycle_graph(5), 2)
        assert parse_edge_list(serialize_edge_list(g)) == g


@settings(max_examples=60)
@given(connected_graphs())
def test_parse_serialize_identity(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=7), st.integers(1, 3))
def test_subdivision_structure(g, n):
    before = analyze(g)
    after_graph = iterate_subdivide(g, n)
    after = analyze(after_graph)
    assert after.circuit_rank == before.circuit_rank
    assert after.is_bipartite  # subdivision destroys odd cycles
    assert after_graph.degrees[: g.vertex_count].tolist() == g.degrees.tolist()
    assert sum(after_graph.degrees) == 2 * after_graph.edge_count


def _midpoint_rule(g: Graph) -> Graph:
    """One subdivision through the validating constructor: edge k's midpoint is N + k."""
    n = g.vertex_count
    pairs = []
    for k, (u, v) in enumerate(g.edges.tolist()):
        pairs += [(u, n + k), (v, n + k)]
    return Graph.from_edges(n + g.edge_count, pairs)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.integers(1, 3))
def test_subdivide_equals_validated_midpoint_rule(g, levels):
    for _ in range(levels):
        expected = _midpoint_rule(g)
        g = subdivide(g)
        assert g == expected
        assert g.edges.tolist() == expected.edges.tolist()
        assert g.degrees.tolist() == expected.degrees.tolist()
