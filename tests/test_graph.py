"""Graph construction, traversal, composition, and serialization."""

import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindex import (
    ArityMismatch,
    ParseError,
    SelfLoopRejected,
    VertexOutOfRange,
    distance_matrix,
    generalized_composition,
    induced_subgraph,
    is_connected,
    new_graph,
    parse_graph,
    render_graph,
)
from twindex.algebra import cyclic_group
from twindex.generators import complete_graph, empty_graph, family_graph, path_graph, power_graph
from twindex.graph import induces_connected
from twindex.steiner import _INF
from twindex.twins import twin_partition

from conftest import all_graphs, permuted, random_graph, with_labels


def bfs_distances(neighbors, source):
    """Reference: one deque BFS from ``source``, ``math.inf`` where unreachable."""
    dist = [math.inf] * len(neighbors)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if dist[w] == math.inf:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_matrix(g):
    """The reference BFS from every vertex, with ``_INF`` for unreachable pairs."""
    neighbors = [g.neighbors(v) for v in range(g.n)]
    return [
        [_INF if d == math.inf else d for d in bfs_distances(neighbors, v)] for v in range(g.n)
    ]


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, [p for p, keep in zip(pairs, mask) if keep])


class TestConstruction:
    def test_path(self):
        g = new_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edge_count() == 2

    def test_single_vertex(self):
        g = new_graph(1, [])
        assert g.n == 1
        assert g.edges() == ()

    def test_duplicate_edges_collapse(self):
        g = new_graph(4, [(0, 1), (0, 1), (1, 0), (2, 3)])
        assert g.edge_count() == 2

    def test_endpoint_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            new_graph(2, [(0, 5)])

    @pytest.mark.parametrize("edges", [[(5, 0)], [(0, 1), (-1, 0)]])
    def test_first_endpoint_out_of_range(self, edges):
        with pytest.raises(VertexOutOfRange, match="edge endpoint"):
            new_graph(2, edges)

    def test_negative_vertex_count(self):
        with pytest.raises(VertexOutOfRange, match="non-negative"):
            new_graph(-1, [])

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_label_count_checked(self, labels):
        with pytest.raises(VertexOutOfRange, match="expected 2 labels"):
            new_graph(2, [(0, 1)], labels)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopRejected):
            new_graph(3, [(1, 1)])

    @given(graphs())
    def test_invariants_hold(self, g):
        for v in range(g.n):
            assert v not in g.neighbors(v)
            for w in g.neighbors(v):
                assert 0 <= w < g.n
                assert v in g.neighbors(w)


class TestNeighbors:
    def test_path_middle(self):
        assert path_graph(3).neighbors(1) == {0, 2}

    def test_complete(self):
        assert complete_graph(4).neighbors(0) == {1, 2, 3}

    def test_isolated(self):
        assert empty_graph(3).neighbors(2) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            path_graph(3).neighbors(7)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(3))

    def test_isolated_pair_disconnected(self):
        assert not is_connected(empty_graph(2))

    def test_complete_bipartite_connected(self):
        k33 = generalized_composition(complete_graph(2), (empty_graph(3), empty_graph(3)))
        assert is_connected(k33)

    def test_trivial_graphs_connected(self):
        assert is_connected(empty_graph(0))
        assert is_connected(empty_graph(1))

    def test_induced_masks_match_reference_bfs(self):
        for n in range(5):
            for g in all_graphs(n):
                for mask in range(1 << n):
                    sub = induced_subgraph(g, [v for v in range(n) if mask >> v & 1])
                    neighbors = [sub.neighbors(v) for v in range(sub.n)]
                    reached = bfs_distances(neighbors, 0) if sub.n else []
                    assert induces_connected(g, mask) == (math.inf not in reached)


class TestDistances:
    def test_path_endpoints(self):
        d = distance_matrix(path_graph(3))
        assert d[0, 2] == 2

    def test_complete_all_ones(self):
        d = distance_matrix(complete_graph(5))
        assert all(d[u, v] == 1 for u in range(5) for v in range(5) if u != v)

    def test_unreachable_marker(self):
        d = distance_matrix(new_graph(4, [(0, 1), (2, 3)]))
        assert d.dtype == np.int32
        assert d[0, 2] == d[2, 0] == _INF
        assert d[1, 3] == _INF
        assert d[0, 1] == d[2, 3] == 1

    def test_empty_and_single_vertex(self):
        assert distance_matrix(empty_graph(0)).shape == (0, 0)
        assert distance_matrix(empty_graph(1)).tolist() == [[0]]

    @given(graphs())
    @settings(max_examples=60)
    def test_metric_properties(self, g):
        d = distance_matrix(g).tolist()
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == (v in g.neighbors(u)) or u == v
                for w in range(g.n):
                    assert d[u][w] <= d[u][v] + d[v][w]

    @given(graphs(max_n=7))
    @settings(max_examples=40)
    def test_agrees_with_floyd_warshall(self, g):
        n = g.n
        dist = [[0 if u == v else _INF for v in range(n)] for u in range(n)]
        for u, v in g.edges():
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        assert distance_matrix(g).tolist() == dist

    def test_matches_reference_on_every_small_graph(self):
        for n in range(7):
            for g in all_graphs(n):
                assert distance_matrix(g).tolist() == reference_matrix(g)

    def test_matches_reference_past_one_machine_word(self, rng):
        for n in (65, 100, 128, 200):
            for p in (0.01, 0.03, 0.1, 0.5):
                g = random_graph(rng, n, p)
                assert distance_matrix(g).tolist() == reference_matrix(g), (n, p)

    # An odd cycle makes the parity correction decide the distance at every level.
    @pytest.mark.parametrize("spec", ["path:200", "cycle:301", "power:Z480"])
    def test_matches_reference_on_long_and_dense_graphs(self, spec):
        g = family_graph(spec)
        assert distance_matrix(g).tolist() == reference_matrix(g)

    def test_matches_reference_across_components_of_different_depth(self):
        # A 129-vertex path, K_5 and an isolated vertex: the squaring must go
        # on after the short components have closed.
        k5 = [(u, v) for u in range(129, 134) for v in range(u + 1, 134)]
        g = new_graph(135, [(v, v + 1) for v in range(128)] + k5)
        d = distance_matrix(g)
        assert d.tolist() == reference_matrix(g)
        assert d[0, 128] == 128
        assert d[0, 129] == d[129, 134] == d[134, 0] == _INF

    def test_path_peak_memory(self):
        # The level stack is bool; a float stack would peak near 59 MiB here.
        g = path_graph(1000)
        tracemalloc.start()
        try:
            distance_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestInducedSubgraph:
    def test_complete_restriction(self):
        sub = induced_subgraph(complete_graph(4), {0, 2, 3})
        assert sub.edge_count() == 3
        assert sub.labels == ("0", "2", "3")

    def test_path_endpoints_become_isolated(self):
        sub = induced_subgraph(path_graph(4), {0, 3})
        assert sub.n == 2
        assert sub.edges() == ()

    def test_empty_selection(self):
        sub = induced_subgraph(path_graph(4), set())
        assert sub.n == 0
        assert sub.labels == ()

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            induced_subgraph(path_graph(3), {0, 9})


class TestComposition:
    def test_join_of_empties_is_complete_bipartite(self):
        g = generalized_composition(complete_graph(2), (empty_graph(3), empty_graph(4)))
        assert g.n == 7
        assert g.edge_count() == 12
        assert all(v in g.neighbors(u) for u in range(3) for v in range(3, 7))

    def test_single_block_identity(self):
        inner = path_graph(4)
        g = generalized_composition(complete_graph(1), (inner,))
        assert g.n == inner.n
        assert g.edges() == inner.edges()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            generalized_composition(complete_graph(2), (empty_graph(1),))

    def test_reassembles_power_graph_of_z6(self):
        # Factors K_3, K_2, K_1 over the reduced graph of the Z_6 power graph;
        # relabeling blocks back to class order must reproduce the original.
        pg = power_graph(cyclic_group(6))
        d = twin_partition(pg)
        factors = (complete_graph(3), complete_graph(2), complete_graph(1))
        composed = generalized_composition(d.reduced, factors)
        perm = {}
        pos = 0
        for cls in d.classes:
            for v in cls:
                perm[pos] = v
                pos += 1
        relabeled = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in composed.edges()}
        assert relabeled == set(pg.edges())

    @given(graphs(max_n=4), st.lists(graphs(max_n=4), min_size=0, max_size=4))
    @settings(max_examples=40)
    def test_edge_count_formula(self, base, factors):
        factors = factors[: base.n]
        factors += [empty_graph(1)] * (base.n - len(factors))
        g = generalized_composition(base, factors)
        expected = sum(f.edge_count() for f in factors) + sum(
            factors[i].n * factors[j].n for i, j in base.edges()
        )
        assert g.edge_count() == expected


class TestSerialization:
    def test_parse_edgelist(self):
        g = parse_graph("3\n0 1\n1 2\n")
        assert g == path_graph(3)

    def test_parse_isolated_vertices(self):
        g = parse_graph("4\n")
        assert g.n == 4
        assert g.edges() == ()

    def test_parse_comments_and_blanks(self):
        g = parse_graph("# header\n3\n\n0 1  # an edge\n1 2\n")
        assert g == path_graph(3)

    def test_parse_out_of_range_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph("2\n0 5\n")
        assert err.value.line == 2
        assert "out of range" in str(err.value)

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("3\n  0   7\n", 2, 7, "vertex 7 out of range"),
            ("3\n 5 1\n", 2, 2, "vertex 5 out of range"),
            ("3\n\t0\t\t4\n", 2, 5, "vertex 4 out of range"),
            ("# head\n\t 2\n0 1  # an edge\n 9 1\n", 4, 2, "vertex 9 out of range"),
            ("3\n0\tx\n", 2, 3, "bad vertex index 'x'"),
            ("3\n   y 1\n", 2, 4, "bad vertex index 'y'"),
            ("3\n\t1  1\n", 2, 5, "self-loop at vertex 1"),
            ("  three\n", 1, 3, "bad vertex count 'three'"),
            ("3  4\n", 1, 4, "expected a single vertex count"),
            ("\t-2\n", 1, 2, "vertex count must be non-negative"),
            ("3\n0 1   2\n", 2, 7, "expected two vertex indices"),
            ("3\n  1\n", 2, 3, "expected two vertex indices"),
        ],
        ids=[
            "spaces-v", "space-u", "tabs-v", "comments-u", "tab-bad-v", "spaces-bad-u",
            "self-loop", "bad-count", "two-counts", "negative-count", "three-fields", "one-field",
        ],
    )
    def test_parse_edgelist_error_columns(self, text, line, column, message):
        # The column is that of the offending field in the raw line, leading
        # spaces, tabs and runs of spaces included.
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_graph(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(f"line {line}, column {column}: ")

    def test_unknown_formats(self):
        with pytest.raises(ParseError, match="unknown parse format 'dot'"):
            parse_graph("2\n0 1\n", "dot")
        with pytest.raises(ParseError, match="unknown render format 'svg'"):
            render_graph(path_graph(2), "svg")

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_graph("three\n")
        with pytest.raises(ParseError):
            parse_graph("")

    def test_parse_bytes_must_be_utf8(self):
        assert parse_graph(b"3\n0 1\n1 2\n") == path_graph(3)
        with pytest.raises(ParseError, match="not UTF-8.* at byte 0"):
            parse_graph(b"\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8.* at byte 6"):
            parse_graph(b"3\n0 1\n\xff", "json")

    def test_render_edgelist_deterministic(self):
        assert render_graph(path_graph(3)) == "3\n0 1\n1 2\n"

    def test_render_dot_prefix(self):
        text = render_graph(path_graph(3), "dot")
        assert text.startswith("graph G {")
        assert "0 -- 1;" in text

    def test_render_dot_escapes_labels(self):
        text = render_graph(with_labels(path_graph(3), ['a"b', "c\\", "d"]), "dot")
        assert '  0 [label="a\\"b"];' in text.splitlines()
        assert '  1 [label="c\\\\"];' in text.splitlines()
        # Each label line holds exactly one quoted string, escapes included.
        quoted = re.compile(r'  \d+ \[label="(?:[^"\\]|\\.)*"\];')
        label_lines = [line for line in text.splitlines() if "label=" in line]
        assert len(label_lines) == 3
        assert all(quoted.fullmatch(line) for line in label_lines)

    def test_json_roundtrip_preserves_labels(self):
        g = with_labels(path_graph(3), ["a", "b", "c"])
        assert parse_graph(render_graph(g, "json"), "json") == g

    def test_parse_json_errors(self):
        with pytest.raises(ParseError):
            parse_graph("{", "json")
        with pytest.raises(ParseError):
            parse_graph('{"edges": []}', "json")
        with pytest.raises(ParseError):
            parse_graph('{"n": 2, "edges": [[0, 5]]}', "json")
        # JSON true and false load as Python bools, an int subclass.
        with pytest.raises(ParseError, match='"n"'):
            parse_graph('{"n": true}', "json")
        with pytest.raises(ParseError, match="edge #0"):
            parse_graph('{"n": 2, "edges": [[true, false]]}', "json")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[2, [[0, 1]]]", "top-level JSON value must be an object"),
            ('{"n": 2, "edges": {"0": 1}}', '"edges" must be an array of pairs'),
            ('{"n": 2, "labels": ["a", 1]}', '"labels" must be an array of strings'),
            ('{"n": 2, "labels": "ab"}', '"labels" must be an array of strings'),
            ('{"n": 2, "labels": ["a"]}', '"labels" has 1 entries, expected 2'),
        ],
    )
    def test_parse_json_shape_errors(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_graph(text, "json")

    @given(graphs())
    @settings(max_examples=60)
    def test_roundtrip_identity(self, g):
        assert parse_graph(render_graph(g, "edgelist"), "edgelist") == g
        assert parse_graph(render_graph(g, "json"), "json") == g


class TestPermuted:
    def test_labels_follow_vertices(self):
        g = with_labels(path_graph(3), ["a", "b", "c"])
        h = permuted(g, [2, 1, 0])
        assert h.labels == ("c", "b", "a")
        assert 1 in h.neighbors(2) and 0 in h.neighbors(1)

    def test_bad_permutation(self):
        with pytest.raises(VertexOutOfRange):
            permuted(path_graph(3), [0, 0, 1])
