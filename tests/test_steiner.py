"""Steiner distances (DP vs brute force) and brute-force index sums."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from twindex import (
    BadSubsetSize,
    DisconnectedGraph,
    DisconnectedTerminals,
    EmptyTerminalSet,
    GraphTooLargeForBruteForce,
    TerminalCapExceeded,
    new_graph,
    permuted,
    steiner_distance,
    steiner_distance_bruteforce,
    steiner_wiener_naive,
    wiener_index,
)
from twindex.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    power_graph,
    power_graph_zn,
)
from twindex.algebra import dihedral_group
from twindex.steiner import (
    DP_BYTE_BUDGET,
    all_steiner_distances,
    batch_rows,
    distance_matrix,
    steiner_distances,
)

from conftest import all_graphs, random_connected_graph


class TestSteinerDistance:
    def test_path_endpoints(self):
        assert steiner_distance(path_graph(4), {0, 3}) == 3

    def test_z6_power_graph_triple(self):
        g = power_graph_zn(6)
        assert steiner_distance(g, {2, 3, 4}) == 3

    def test_single_terminal(self):
        assert steiner_distance(path_graph(5), {2}) == 0

    def test_two_terminals_is_shortest_path(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 9))
            u, v = rng.sample(range(g.n), 2)
            assert steiner_distance(g, {u, v}) == steiner_distance_bruteforce(g, {u, v})

    def test_duplicate_terminals_collapse(self):
        g = path_graph(4)
        assert steiner_distance(g, [0, 0, 3, 3]) == 3

    def test_disconnected_terminals(self):
        g = new_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedTerminals):
            steiner_distance(g, {0, 2})

    def test_empty_terminal_set(self):
        with pytest.raises(EmptyTerminalSet):
            steiner_distance(path_graph(3), set())

    def test_twenty_terminals_over_byte_budget(self):
        with pytest.raises(TerminalCapExceeded):
            steiner_distance(complete_graph(20), range(20))


class TestKernel:
    def test_batches_match_single_rows_and_bruteforce(self, rng):
        several_batches = 0
        for n in range(1, 11):
            for _ in range(2):
                g = random_connected_graph(rng, n, rng.choice([0.25, 0.5]))
                dist = distance_matrix(g)
                for size in range(1, min(n, 7) + 1):
                    rows = list(itertools.combinations(range(n), size))
                    rng.shuffle(rows)
                    several_batches += len(rows) > batch_rows(size, n)
                    batched = steiner_distances(dist, np.array(rows))
                    assert batched.dtype == np.int64 and batched.shape == (len(rows),)
                    for row, value in zip(rows, batched.tolist()):
                        assert steiner_distances(dist, np.array([row]))[0] == value
                        assert steiner_distance_bruteforce(g, row) == value
        assert several_batches > 0

    def test_byte_budget_checked_before_allocating(self):
        # 16 terminals on 128 vertices need just over 64 MiB of DP state.
        g = cycle_graph(128)
        tracemalloc.start()
        try:
            with pytest.raises(TerminalCapExceeded):
                steiner_distance(g, range(16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < DP_BYTE_BUDGET // 16


class TestBruteForceOracle:
    def test_path_endpoints(self):
        assert steiner_distance_bruteforce(path_graph(4), {0, 3}) == 3

    def test_cycle_consecutive(self):
        assert steiner_distance_bruteforce(cycle_graph(5), {0, 1, 2}) == 2

    def test_size_cap(self):
        with pytest.raises(GraphTooLargeForBruteForce):
            steiner_distance_bruteforce(complete_graph(17), {0, 1})

    def test_disconnected(self):
        g = new_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedTerminals):
            steiner_distance_bruteforce(g, {0, 3})

    def test_agreement_exhaustive_tiny_graphs(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for size in range(1, n + 1):
                    for s in itertools.combinations(range(n), size):
                        try:
                            expected = steiner_distance_bruteforce(g, s)
                        except DisconnectedTerminals:
                            with pytest.raises(DisconnectedTerminals):
                                steiner_distance(g, s)
                            continue
                        assert steiner_distance(g, s) == expected

    def test_agreement_sampled_graphs(self, rng):
        for n in (5, 6, 7):
            for _ in range(12):
                g = random_connected_graph(rng, n, 0.45)
                table = all_steiner_distances(g)
                for size in range(1, n + 1):
                    for s in itertools.combinations(range(n), size):
                        expected = steiner_distance_bruteforce(g, s)
                        assert steiner_distance(g, s) == expected
                        assert table[frozenset(s)] == expected

    def test_agreement_larger_sampled_subsets(self, rng):
        for n in (8, 9):
            for _ in range(4):
                g = random_connected_graph(rng, n, 0.35)
                for _ in range(40):
                    size = rng.randint(1, n)
                    s = tuple(rng.sample(range(n), size))
                    assert steiner_distance(g, s) == steiner_distance_bruteforce(g, s)


class TestDistanceProperties:
    def test_monotone_in_terminals(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 8))
            verts = list(range(g.n))
            rng.shuffle(verts)
            prev = 0
            for size in range(1, g.n + 1):
                d = steiner_distance(g, verts[:size])
                assert d >= prev
                prev = d

    def test_bounds(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 9))
            size = rng.randint(1, g.n)
            s = rng.sample(range(g.n), size)
            d = steiner_distance(g, s)
            assert size - 1 <= d <= g.n - 1


class TestNaiveIndex:
    def test_z6_power_graph(self):
        assert steiner_wiener_naive(power_graph_zn(6), 3) == 41

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 4), (7, 2)])
    def test_complete_graph_closed_form(self, n, m):
        assert steiner_wiener_naive(complete_graph(n), m) == (m - 1) * comb(n, m)

    def test_subset_size_one_is_zero(self):
        assert steiner_wiener_naive(path_graph(5), 1) == 0

    def test_equals_wiener_at_m2(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 9))
            assert steiner_wiener_naive(g, 2) == wiener_index(g)

    def test_bad_subset_size(self):
        with pytest.raises(BadSubsetSize):
            steiner_wiener_naive(path_graph(3), 0)
        with pytest.raises(BadSubsetSize):
            steiner_wiener_naive(path_graph(3), 4)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            steiner_wiener_naive(new_graph(3, [(0, 1)]), 2)

    def test_progress_reported(self):
        calls = []
        steiner_wiener_naive(
            complete_graph(6), 3, progress=lambda done, total: calls.append((done, total))
        )
        assert calls[-1] == (20, 20)

    def test_progress_per_streamed_batch(self):
        n, m = 30, 4
        total = comb(n, m)
        calls = []
        value = steiner_wiener_naive(
            cycle_graph(n), m, progress=lambda done, total: calls.append((done, total))
        )
        assert len(calls) == -(-total // batch_rows(m, n)) > 1
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)
        assert {t for _, t in calls} == {total}
        assert calls[-1] == (total, total)
        # On a cycle the smallest subtree leaves out the largest gap.
        subsets = itertools.combinations(range(n), m)
        assert value == sum(n - max((b - a) % n for a, b in zip(s, s[1:] + s[:1])) for s in subsets)

    def test_isomorphism_invariance(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 7))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            for m in range(1, g.n + 1):
                assert steiner_wiener_naive(g, m) == steiner_wiener_naive(h, m)


class TestWiener:
    def test_path(self):
        assert wiener_index(path_graph(3)) == 4

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete(self, n):
        assert wiener_index(complete_graph(n)) == comb(n, 2)

    def test_d12_power_graph(self):
        assert wiener_index(power_graph(dihedral_group(6))) == 113

    def test_single_vertex(self):
        assert wiener_index(new_graph(1, [])) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            wiener_index(new_graph(2, []))
