"""Twin relation, partition, classification, and reconstruction."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindex import (
    ClassKind,
    ReconstructionMismatch,
    VertexOutOfRange,
    are_twins,
    generalized_composition,
    induced_subgraph,
    is_connected,
    new_graph,
    recompose,
    twin_partition,
)
from twindex.generators import (
    complete_graph,
    empty_graph,
    path_graph,
    power_graph,
)
from twindex.algebra import cyclic_group, dihedral_group

from conftest import all_graphs, permuted, random_graph, with_labels


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def planted_twins(draw):
    """A random base on 1-6 vertices with each vertex blown up into a clique
    or an edgeless graph on 1-5 vertices, its vertices shuffled.

    Returns the graph and its planted blocks; each block lies inside one twin
    class, which may hold further blocks when base vertices are twins.
    """
    base_n = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_graph(rng, base_n, draw(st.sampled_from([0.2, 0.5, 0.8])))
    factors = tuple(
        draw(st.sampled_from([complete_graph, empty_graph]))(draw(st.integers(1, 5)))
        for _ in range(base_n)
    )
    g = generalized_composition(base, factors)
    perm = list(range(g.n))
    rng.shuffle(perm)
    blocks, start = [], 0
    for f in factors:
        blocks.append((f, [perm[v] for v in range(start, start + f.n)]))
        start += f.n
    return permuted(g, perm), blocks


def assert_partition_sound(g, d):
    """Classes match the pairwise oracle, come in order and carry their kind."""
    for u in range(g.n):
        for v in range(g.n):
            same = d.class_index[u] == d.class_index[v]
            assert same == are_twins(g, u, v), (g.n, u, v)
    assert sorted(v for cls in d.classes for v in cls) == list(range(g.n))
    assert all(list(cls) == sorted(cls) for cls in d.classes)
    assert d.reduced.labels == tuple(g.labels[c[0]] for c in d.classes)
    assert [c[0] for c in d.classes] == sorted(c[0] for c in d.classes)
    for cls, kind in zip(d.classes, d.kinds):
        if len(cls) == 1:
            assert kind is ClassKind.SINGLETON
            continue
        pairs = [(u, v) for i, u in enumerate(cls) for v in cls[i + 1 :]]
        if kind is ClassKind.COMPLETE:
            assert all(v in g.neighbors(u) for u, v in pairs)
        else:
            assert kind is ClassKind.EMPTY
            assert not any(v in g.neighbors(u) for u, v in pairs)


class TestAreTwins:
    def test_universal_vertices_of_z6_power_graph(self):
        g = power_graph(cyclic_group(6))
        assert are_twins(g, 0, 1)

    def test_non_twins_in_z6_power_graph(self):
        # N(2) = {0,1,4,5} while N(3) = {0,1,5}
        g = power_graph(cyclic_group(6))
        assert g.neighbors(2) == {0, 1, 4, 5}
        assert g.neighbors(3) == {0, 1, 5}
        assert not are_twins(g, 2, 3)

    def test_reflexive(self):
        g = power_graph(cyclic_group(6))
        assert all(are_twins(g, v, v) for v in range(g.n))

    @given(graphs())
    @settings(max_examples=50)
    def test_symmetric(self, g):
        for u in range(g.n):
            for v in range(g.n):
                assert are_twins(g, u, v) == are_twins(g, v, u)

    def test_matches_neighbourhood_sets(self):
        # The definition over neighbour sets is the reference for the masks.
        for n in range(1, 6):
            for g in all_graphs(n):
                for u in range(n):
                    for v in range(n):
                        expected = g.neighbors(u) - {v} == g.neighbors(v) - {u}
                        assert are_twins(g, u, v) == expected

    def test_out_of_range(self):
        for u, v in [(0, 6), (6, 0), (-1, 0)]:
            with pytest.raises(VertexOutOfRange):
                are_twins(power_graph(cyclic_group(6)), u, v)


class TestTwinPartition:
    def test_z6_power_graph_classes(self):
        d = twin_partition(power_graph(cyclic_group(6)))
        assert d.classes == ((0, 1, 5), (2, 4), (3,))
        assert d.kinds == (ClassKind.COMPLETE, ClassKind.COMPLETE, ClassKind.SINGLETON)
        assert d.reduced.labels == ("0", "2", "3")

    def test_d12_power_graph_classes(self):
        g = power_graph(dihedral_group(6))
        d = twin_partition(g)
        # identity, {r, r^5}, {r^2, r^4}, {r^3}, and the six reflections
        assert set(map(frozenset, d.classes)) == {
            frozenset({0}),
            frozenset({1, 5}),
            frozenset({2, 4}),
            frozenset({3}),
            frozenset(range(6, 12)),
        }
        by_class = dict(zip(d.classes, d.kinds))
        assert by_class[tuple(range(6, 12))] is ClassKind.EMPTY

    def test_complete_graph_single_class(self):
        d = twin_partition(complete_graph(5))
        assert d.classes == ((0, 1, 2, 3, 4),)
        assert d.kinds == (ClassKind.COMPLETE,)

    def test_reduced_is_induced_on_representatives(self):
        g = power_graph(cyclic_group(6))
        d = twin_partition(g)
        assert d.reduced.n == 3
        assert set(d.reduced.edges()) == {(0, 1), (0, 2)}

    def test_twin_free_graph_is_its_own_reduced_graph(self):
        # Every twin-free labelled graph with n <= 5, a labelled path and a
        # large random one: H is the source graph itself, equal to the
        # subgraph induced on all vertices.
        rng = random.Random(7)
        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [with_labels(path_graph(6), "abcdef"), random_graph(rng, 200, 0.3)]
        twin_free = 0
        for g in graphs:
            d = twin_partition(g)
            if d.k == g.n:
                twin_free += 1
                assert d.reduced is g
                assert d.reduced == induced_subgraph(g, range(g.n))
        assert twin_free > 100

    def test_partition_matches_pairwise_predicate(self):
        rng = random.Random(11)
        sizes = [0, 1, 2, 5, 9, 16, 33, 64]
        for n in sizes:
            g = random_graph(rng, n, 0.4)
            assert_partition_sound(g, twin_partition(g))

    @given(graphs())
    @settings(max_examples=60)
    def test_kind_soundness(self, g):
        assert_partition_sound(g, twin_partition(g))

    @given(planted_twins())
    @settings(max_examples=80, deadline=None)
    def test_planted_compositions(self, planted):
        g, blocks = planted
        d = twin_partition(g)
        assert_partition_sound(g, d)
        for factor, block in blocks:
            assert len({d.class_index[v] for v in block}) == 1
            if len(block) > 1:
                kind = ClassKind.COMPLETE if factor.edge_count() else ClassKind.EMPTY
                assert d.kinds[d.class_index[block[0]]] is kind

    def test_empty_graph(self):
        d = twin_partition(new_graph(0))
        assert d.k == 0
        assert d.classes == d.kinds == d.reduced.labels == ()
        assert d.reduced.n == 0

    def test_k1(self):
        d = twin_partition(new_graph(1))
        assert d.classes == ((0,),)
        assert d.kinds == (ClassKind.SINGLETON,)

    def test_2k1_is_one_empty_class(self):
        d = twin_partition(empty_graph(2))
        assert d.classes == ((0, 1),)
        assert d.kinds == (ClassKind.EMPTY,)

    def test_k2_is_one_complete_class(self):
        d = twin_partition(complete_graph(2))
        assert d.classes == ((0, 1),)
        assert d.kinds == (ClassKind.COMPLETE,)

    def test_complete_and_empty_classes_together(self):
        # P3[K3, K1, 3K1] with the blocks interleaved: 3 is the singleton,
        # {0, 2, 5} the triangle and {1, 4, 6} the edgeless class.
        g = new_graph(
            7,
            [(0, 2), (0, 5), (2, 5)]
            + [(3, v) for v in (0, 2, 5, 1, 4, 6)],
        )
        d = twin_partition(g)
        assert d.classes == ((0, 2, 5), (1, 4, 6), (3,))
        assert d.kinds == (ClassKind.COMPLETE, ClassKind.EMPTY, ClassKind.SINGLETON)
        assert d.reduced.labels == ("0", "1", "3")
        assert d.reduced.edges() == ((0, 2), (1, 2))

    @given(graphs())
    @settings(max_examples=60)
    def test_connectivity_transfer(self, g):
        d = twin_partition(g)
        if d.k >= 2:
            assert is_connected(g) == is_connected(d.reduced)

    def test_relabeling_equivariance(self, rng):
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            dg, dh = twin_partition(g), twin_partition(h)
            assert sorted(map(len, dg.classes)) == sorted(map(len, dh.classes))
            assert sorted(k.value for k in dg.kinds) == sorted(k.value for k in dh.kinds)
            mapped = {frozenset(perm[v] for v in cls) for cls in dg.classes}
            assert mapped == set(map(frozenset, dh.classes))


class TestClassOf:
    def test_matches_classes(self):
        d = twin_partition(power_graph(dihedral_group(6)))
        assert len(d.class_index) == d.source.n
        for i, cls in enumerate(d.classes):
            assert all(d.class_index[v] == i for v in cls)


class TestRecompose:
    def test_z6_power_graph(self):
        g = power_graph(cyclic_group(6))
        assert recompose(twin_partition(g)) == g

    def test_complete_bipartite(self):
        g = new_graph(7, [(u, v) for u in range(3) for v in range(3, 7)])
        assert recompose(twin_partition(g)) == g

    def test_single_vertex(self):
        g = new_graph(1, [])
        assert recompose(twin_partition(g)) == g

    @given(graphs())
    @settings(max_examples=80)
    def test_identity_everywhere(self, g):
        assert recompose(twin_partition(g)) == g

    def test_inconsistent_decomposition_is_a_mismatch(self):
        # P_4 is twin-free, so each vertex is a class of its own. Built by
        # hand with K_4 as the reduced graph, the classes are right but the
        # composition has the edges 0 ~ 2, 0 ~ 3 and 1 ~ 3.
        d = dataclasses.replace(twin_partition(path_graph(4)), reduced=complete_graph(4))
        with pytest.raises(ReconstructionMismatch):
            recompose(d)
