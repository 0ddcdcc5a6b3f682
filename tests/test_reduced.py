"""The twin-class index formula, support counts, closed forms, and the bound."""

import importlib.util
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twindex import (
    BadSubsetSize,
    ClassKind,
    DisconnectedGraph,
    NeedTwoParts,
    TerminalCapExceeded,
    TwinDecomposition,
    generalized_composition,
    is_connected,
    new_graph,
    steiner_distance,
    steiner_wiener_naive,
    steiner_wiener_reduced,
    steiner_wiener_reduced_with_stats,
    sw_complete_multipartite,
    sw_completely_joined_bound,
    twin_partition,
    wiener_index,
)
from twindex.generators import (
    complete_graph,
    complete_multipartite_graph,
    empty_graph,
    path_graph,
    power_graph,
    star_graph,
    wheel_graph,
)
from twindex.algebra import cyclic_group, dihedral_group, quaternion_group, zmod, ideal_generated, ring_from_spec
from twindex.generators import ideal_zero_divisor_graph, comaximal_ideal_graph
from twindex import reduced, steiner
from twindex.generators import family_graph
from twindex.reduced import _add_support_weights
from twindex.steiner import CHUNK_BYTES, distance_matrix, steiner_levels
from twindex.reference import REFERENCE_CHECKS

from conftest import (
    all_graphs,
    connected_by_dfs,
    connectivity_sweep,
    expanded,
    graphs_up_to_isomorphism,
    random_connected_graph,
    twin_free_graph,
)

ENGINES = ("transform", "kernel")


@contextmanager
def forced(engine: str):
    """Run the reduced route on ``engine`` inside the block, whatever the selector says."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced, "_transform_chosen", lambda k, m: engine == "transform")
        yield


def by_engine(d, m):
    """``steiner_wiener_reduced_with_stats(d, m)`` under each engine, in ``ENGINES`` order."""
    results = []
    for engine in ENGINES:
        with forced(engine):
            results.append(steiner_wiener_reduced_with_stats(d, m))
    return results


def engines_agree(d, m) -> int:
    """The value both engines give, after checking they give the same value and support count."""
    (value, stats), (other, other_stats) = by_engine(d, m)
    assert value == other, (m, value, other)
    assert stats == other_stats, (m, stats, other_stats)
    return value


def support_count(sizes, m):
    """``N_S``, literally: the sum of ``(-1)^{|S|-|T|} binom(n_T, m)`` over the subsets T of S."""
    return sum(
        (-1) ** (len(sizes) - r) * comb(sum(t), m)
        for r in range(len(sizes) + 1)
        for t in itertools.combinations(sizes, r)
    )


class TestSupportCount:
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80)
    def test_weight_identity(self, sizes, m):
        total = sum(
            support_count([sizes[i] for i in support], m)
            for s in range(1, len(sizes) + 1)
            for support in itertools.combinations(range(len(sizes)), s)
        )
        assert total == comb(sum(sizes), m)

    def test_matches_brute_force(self):
        for k in range(1, 5):
            for sizes in itertools.combinations_with_replacement(range(1, 5), k):
                class_of = [i for i, size in enumerate(sizes) for _ in range(size)]
                n = len(class_of)
                for m in range(1, n + 1):
                    seen = Counter(
                        frozenset(class_of[v] for v in subset)
                        for subset in itertools.combinations(range(n), m)
                    )
                    for s in range(1, k + 1):
                        for support in itertools.combinations(range(k), s):
                            got = support_count([sizes[i] for i in support], m)
                            assert got == seen[frozenset(support)], (sizes, support, m)


class TestSupportHistogram:
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80)
    def test_total_is_weighted_support_count(self, sizes, seed, m):
        # Every support of every size, each with its own weight, weighed in
        # chunks of one support size at a time.
        rng = random.Random(seed)
        hist = np.zeros(sum(sizes) + 1, dtype=np.int64)
        expected = 0
        for s in range(1, len(sizes) + 1):
            supports = list(itertools.combinations(range(len(sizes)), s))
            held = np.array([[sizes[i] for i in S] for S in supports], dtype=np.int64)
            w = np.array([rng.randint(0, 40) for _ in supports], dtype=np.int64)
            _add_support_weights(hist, held, w)
            expected += sum(support_count(row, m) * x for row, x in zip(held.tolist(), w.tolist()))
        assert hist.dtype == np.int64
        assert sum(comb(t, m) * int(h) for t, h in enumerate(hist.tolist())) == expected

    @pytest.mark.parametrize("span", [1, 4, 16, 1 << 12])
    def test_gray_code_steps(self, span, monkeypatch):
        # Spans below the subset count step through the classes beyond the
        # first few in Gray-code order; a span of 1 steps through all.
        monkeypatch.setattr(reduced, "_SCATTER_SPAN", span)
        rng = random.Random(span)
        for s in range(1, 8):
            held = [[rng.randint(1, 6) for _ in range(s)] for _ in range(5)]
            w = [rng.randint(-3, 40) for _ in range(5)]
            hist = np.zeros(max(map(sum, held)) + 1, dtype=np.int64)
            _add_support_weights(hist, np.array(held, dtype=np.int64), np.array(w, dtype=np.int32))
            for m in range(1, len(hist)):
                expected = sum(support_count(row, m) * x for row, x in zip(held, w))
                assert sum(comb(t, m) * int(h) for t, h in enumerate(hist.tolist())) == expected

    def test_no_supports(self):
        hist = np.zeros(5, dtype=np.int64)
        _add_support_weights(hist, np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert not hist.any()

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_single_class(self, n):
        # k = 1: one complete class, one support of one class; the kernel
        # streams no level, and the support is added in closed form.
        g = complete_graph(n)
        d = twin_partition(g)
        assert d.k == 1
        for m in range(1, n + 1):
            assert engines_agree(d, m) == steiner_wiener_naive(g, m) == (m - 1) * comb(n, m)

    @pytest.mark.parametrize("n", [2, 5])
    def test_single_edgeless_class_rejected(self, n):
        # k = 1 with an edgeless class: G is disconnected, though H is one vertex.
        d = twin_partition(empty_graph(n))
        assert d.k == 1
        for engine in ENGINES:
            with forced(engine), pytest.raises(DisconnectedGraph, match="requires a connected graph"):
                steiner_wiener_reduced(d, 2)

    def test_edgeless_classes(self):
        for parts in [(1, 5), (2, 3), (3, 3, 3), (1, 1, 4)]:
            g = complete_multipartite_graph(parts)
            d = twin_partition(g)
            assert any(kind.name == "EMPTY" for kind in d.kinds)
            for m in range(1, g.n + 1):
                assert engines_agree(d, m) == steiner_wiener_naive(g, m)

    def test_supports_larger_than_m(self):
        # k = 6 classes, so every m < 6 leaves supports of more than m classes
        # out of the sum.
        g = generalized_composition(
            path_graph(6),
            (
                complete_graph(2), empty_graph(3), complete_graph(1),
                empty_graph(2), complete_graph(3), empty_graph(1),
            ),
        )
        d = twin_partition(g)
        assert d.k == 6
        for m in range(1, 6):
            assert engines_agree(d, m) == steiner_wiener_naive(g, m)

    def test_m_equals_n(self, rng):
        # The only n-subset is V, spanned by any spanning tree.
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(1, 9), 0.4)
            assert engines_agree(twin_partition(g), g.n) == g.n - 1


@contextmanager
def scattered():
    """Force the kernel and record the class sizes of every support it sends to the scatter."""
    held = []

    def spy(hist, rows, w):
        held.extend(rows.tolist())
        real(hist, rows, w)

    real = reduced._add_support_weights
    with forced("kernel"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced, "_add_support_weights", spy)
        yield held


class TestExactSupportFold:
    """Supports holding exactly m vertices (N_S = 1) go to ``hist[m]``, not to the scatter."""

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_single_class(self, n):
        g = complete_graph(n)
        for m in range(1, n + 1):
            with scattered() as held:
                assert steiner_wiener_reduced(twin_partition(g), m) == steiner_wiener_naive(g, m)
            assert all(sum(row) > m for row in held)

    def test_edgeless_classes(self):
        for parts in [(1, 5), (2, 3), (3, 3, 3), (1, 1, 4)]:
            g = complete_multipartite_graph(parts)
            d = twin_partition(g)
            for m in range(1, g.n + 1):
                with scattered() as held:
                    assert steiner_wiener_reduced(d, m) == steiner_wiener_naive(g, m)
                assert all(sum(row) > m for row in held)

    def test_level_with_both_kinds(self):
        # Classes of 1, 2 and 3 vertices at m = 3: among the two-class
        # supports, {1, 2} holds exactly 3 vertices and is folded, while
        # {1, 3} and {2, 3} hold more and are scattered. The class of 3 is
        # folded too.
        factors = (complete_graph(1), empty_graph(2), complete_graph(3))
        g = generalized_composition(path_graph(3), factors)
        d = twin_partition(g)
        assert sorted(d.class_sizes()) == [1, 2, 3]
        with scattered() as held:
            value, stats = steiner_wiener_reduced_with_stats(d, 3)
        assert value == steiner_wiener_naive(g, 3)
        assert stats.num_profiles == 4
        assert sorted(map(sorted, held)) == [[1, 2, 3], [1, 3], [2, 3]]

    def test_twin_free_scatters_nothing(self, rng):
        g = twin_free_graph(rng, 12)
        for m in (2, 3, 4):
            with scattered() as held:
                value, stats = steiner_wiener_reduced_with_stats(twin_partition(g), m)
            assert value == steiner_wiener_naive(g, m)
            assert stats.num_profiles == comb(12, m)
            assert held == []

    def test_every_connected_graph_on_six_vertices(self):
        graphs = [g for g in graphs_up_to_isomorphism(6) if is_connected(g)]
        assert len(graphs) == 112
        for g in graphs:
            d = twin_partition(g)
            for m in range(1, 7):
                with scattered():
                    assert steiner_wiener_reduced(d, m) == steiner_wiener_naive(g, m)


def class_distance(d, terminals) -> int:
    """The per-set lemma: ``d_G(S)`` from the twin classes S meets.

    One terminal costs 0. Within a single class, a clique spans S with a
    star (``m - 1`` edges) and an edgeless class needs a common outside
    neighbour (``m`` edges). Across classes it is the Steiner distance of
    the support in H plus one edge for each further terminal.
    """
    m = len(terminals)
    support = sorted({d.class_index[t] for t in terminals})
    if m == 1:
        return 0
    if len(support) == 1:
        return m if d.kinds[support[0]].name == "EMPTY" else m - 1
    return steiner_distance(d.reduced, support) + m - len(support)


class TestPerSetDistance:
    def test_single_complete_class(self):
        g = power_graph(cyclic_group(6))
        d = twin_partition(g)
        assert class_distance(d, {0, 1, 5}) == steiner_distance(g, {0, 1, 5}) == 2

    def test_single_empty_class(self):
        g = power_graph(dihedral_group(6))
        d = twin_partition(g)
        assert class_distance(d, {6, 8, 10}) == steiner_distance(g, {6, 8, 10}) == 3

    def test_multi_class(self):
        g = power_graph(cyclic_group(6))
        d = twin_partition(g)
        assert class_distance(d, {2, 3, 4}) == steiner_distance(g, {2, 3, 4}) == 3

    def test_matches_direct_computation(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 7), 0.5)
            d = twin_partition(g)
            for size in range(1, g.n + 1):
                for s in itertools.combinations(range(g.n), size):
                    assert class_distance(d, s) == steiner_distance(g, s)


class TestReducedIndex:
    def test_z6_power_graph(self):
        d = twin_partition(power_graph(cyclic_group(6)))
        assert steiner_wiener_reduced(d, 3) == 41

    def test_q8_power_graph(self):
        d = twin_partition(power_graph(quaternion_group()))
        assert steiner_wiener_reduced(d, 6) == 141

    def test_ideal_based_graph_of_z24(self):
        r = zmod(24)
        g = ideal_zero_divisor_graph(r, ideal_generated(r, [8]))
        assert steiner_wiener_reduced(twin_partition(g), 8) == 63

    def test_comaximal_graph_of_z2z2z4(self):
        g = comaximal_ideal_graph(ring_from_spec("Z2xZ2xZ4"))
        assert steiner_wiener_reduced(twin_partition(g), 8) == 65

    def test_m1_is_zero(self):
        d = twin_partition(power_graph(cyclic_group(6)))
        assert engines_agree(d, 1) == 0

    def test_single_complete_class(self):
        d = twin_partition(complete_graph(6))
        assert steiner_wiener_reduced(d, 4) == 3 * comb(6, 4)

    def test_disconnected_rejected(self):
        for engine in ENGINES:
            with forced(engine):
                with pytest.raises(DisconnectedGraph):
                    steiner_wiener_reduced(twin_partition(new_graph(2, [])), 2)
                with pytest.raises(DisconnectedGraph):
                    steiner_wiener_reduced(twin_partition(new_graph(3, [(0, 1)])), 2)

    def test_raises_exactly_on_disconnected_graphs(self):
        # Both engines run only once is_connected has found H connected; a
        # DFS over G's edges, written in the tests, is the oracle.
        for engine in ENGINES:
            with forced(engine):
                for g in connectivity_sweep():
                    d = twin_partition(g)
                    for m in (1, min(2, g.n)):
                        if connected_by_dfs(g):
                            assert steiner_wiener_reduced(d, m) == steiner_wiener_naive(g, m)
                        else:
                            with pytest.raises(DisconnectedGraph):
                                steiner_wiener_reduced(d, m)

    def test_bad_subset_size(self):
        for engine in ENGINES:
            with forced(engine), pytest.raises(BadSubsetSize):
                steiner_wiener_reduced(twin_partition(complete_graph(3)), 5)

    def test_matches_naive_on_random_graphs(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 7), 0.45)
            d = twin_partition(g)
            for m in range(1, g.n + 1):
                assert steiner_wiener_reduced(d, m) == steiner_wiener_naive(g, m)

    def test_singleton_fold_is_consequence_free(self):
        # singleton center class of the star: folding it into the complete
        # branch contributes binom(1, m) = 0 for every m >= 2
        g = star_graph(5)
        d = twin_partition(g)
        for m in range(2, 6):
            assert steiner_wiener_reduced(d, m) == steiner_wiener_naive(g, m)

    def test_representative_independence(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 8), 0.5)
            d = twin_partition(g)
            # H on any one member of each class, not the least, in class order.
            reps = [rng.choice(cls) for cls in d.classes]
            edges = [
                (i, j) for i, u in enumerate(reps) for j, v in enumerate(reps) if v in g.neighbors(u)
            ]
            alt = TwinDecomposition(g, d.classes, d.kinds, new_graph(d.k, edges), d.class_index)
            for m in range(1, g.n + 1):
                assert steiner_wiener_reduced(alt, m) == steiner_wiener_reduced(d, m)

    def test_stats_reported(self):
        d = twin_partition(power_graph(cyclic_group(6)))
        for value, stats in by_engine(d, 3):
            assert value == 41
            assert stats.num_classes == 3
            assert stats.num_profiles == 4
            assert stats.dh_cache_hits == 0

    def test_twin_free_m4(self, rng):
        # Every class is one vertex, so supports of 2 or 3 classes hold fewer
        # than m = 4 vertices: they have N_S = 0 and never reach the kernel.
        n = 10
        g = twin_free_graph(rng, n)
        for value, stats in by_engine(twin_partition(g), 4):
            assert value == steiner_wiener_naive(g, 4)
            assert stats.num_profiles == comb(n, 4)
        assert support_count((1, 1), 4) == support_count((1, 1, 1), 4) == 0

    def test_kernel_progress(self, rng, monkeypatch):
        # Classes of 1 to 3 vertices over 14 classes, the top level cut into
        # many chunks: after each, progress counts the top level's supports,
        # C(k, m) of them, not the C(n, m) subsets of G.
        k, m = 14, 4
        factors = [rng.choice([complete_graph, empty_graph])(rng.randint(1, 3)) for _ in range(k)]
        g = generalized_composition(twin_free_graph(rng, k, 0.3), factors)
        d = twin_partition(g)
        assert d.k == k < g.n
        monkeypatch.setattr(steiner, "CHUNK_BYTES", steiner._BUFFER_BYTES + 40_000)
        calls = []
        with forced("kernel"):
            value, stats = steiner_wiener_reduced_with_stats(
                d, m, progress=lambda *call: calls.append(call)
            )
        assert value == steiner_wiener_naive(g, m)
        # index --json writes the stats, so the count is a Python int.
        assert type(stats.num_profiles) is int
        done = [done for done, _ in calls]
        assert len(calls) > 1 and done == sorted(set(done))
        assert {total for _, total in calls} == {comb(k, m)}
        assert calls[-1] == (comb(k, m), comb(k, m))

    def test_z480_shared_table_budget(self, monkeypatch):
        # H has k = 23 vertices. Supports of up to m classes share one table
        # of 4 * 23 * sum_{r=2}^{m-2} C(22, r) bytes: at m = 11 that is over
        # the 64 MiB budget, so the query raises before allocating; at m = 10
        # it is about 56 MB and fits. Answering m = 10 takes about 47 s, so
        # only its budget check runs here, with no subset streamed.
        d = twin_partition(power_graph(cyclic_group(480)))
        assert d.k == 23
        with pytest.raises(TerminalCapExceeded):
            steiner_wiener_reduced(d, 11)
        monkeypatch.setattr(steiner, "_subsets", lambda *args: iter(()))
        assert len(steiner_levels(distance_matrix(d.reduced), 23, 10)) == 9


class TestConnectivityFirst:
    """Every index route checks connectivity before it builds anything of size n^2 or 2^k."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        """Make every distance matrix and class-set array an index route builds raise."""
        def built(*args):
            raise AssertionError("built before the connectivity check")

        for module, name in [(steiner, "distance_matrix"), (reduced, "distance_matrix"),
                             (reduced, "_connected_sets")]:
            monkeypatch.setattr(module, name, built)

    def test_disconnected_refused_before_building(self, nothing_built):
        matching = new_graph(8, [(v, v + 1) for v in range(0, 8, 2)])
        for g in (matching, new_graph(3, [(0, 1)])):
            with pytest.raises(DisconnectedGraph):
                steiner_wiener_naive(g, 2)
            with pytest.raises(DisconnectedGraph):
                wiener_index(g)
            for engine in ENGINES:
                with forced(engine), pytest.raises(DisconnectedGraph):
                    steiner_wiener_reduced(twin_partition(g), 2)

    def test_m1_runs_no_engine(self, nothing_built):
        d = twin_partition(path_graph(5))
        for engine in ENGINES:
            with forced(engine):
                assert steiner_wiener_reduced(d, 1) == 0
        assert steiner_wiener_naive(path_graph(5), 1) == 0

    def test_m1_disconnected_refused(self, nothing_built):
        # m = 1 costs 0 on a connected graph only: both routes refuse a
        # disconnected one first, and a bad size before that.
        g = new_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            steiner_wiener_naive(g, 1)
        for engine in ENGINES:
            with forced(engine), pytest.raises(DisconnectedGraph):
                steiner_wiener_reduced(twin_partition(g), 1)
        with pytest.raises(BadSubsetSize):
            steiner_wiener_naive(g, 0)


@st.composite
def planted_compositions(draw):
    """A random connected base on 2-6 vertices, each vertex blown up into a
    clique or an edgeless graph on 1-6 vertices."""
    base_n = draw(st.integers(min_value=2, max_value=6))
    base = random_connected_graph(random.Random(draw(st.integers(0, 2**32 - 1))), base_n, 0.5)
    factors = tuple(
        draw(st.sampled_from([complete_graph, empty_graph]))(draw(st.integers(1, 6)))
        for _ in range(base_n)
    )
    return generalized_composition(base, factors)


class TestPlantedCompositions:
    @given(planted_compositions())
    @example(complete_graph(7))  # k = 1
    @example(complete_multipartite_graph((3, 4)))  # two edgeless classes
    @example(star_graph(6))  # a singleton class beside an edgeless one
    @example(  # classes smaller than m beside larger ones
        generalized_composition(path_graph(3), (empty_graph(1), complete_graph(5), empty_graph(2)))
    )
    @settings(max_examples=60, deadline=None)
    def test_reduced_matches_naive(self, g):
        d = twin_partition(g)
        for m in range(1, min(g.n, 3 if g.n > 16 else 5) + 1):
            assert engines_agree(d, m) == steiner_wiener_naive(g, m)


def _benchmark_rows():
    """``(spec, m, value)``: the benchmark's golden rows and the pairs it leaves out (value None)."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    rows = [(r["spec"], r["m"], r["value"]) for r in json.loads((root / "golden.json").read_text())["rows"]]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return rows + [(family, m, None) for family, m, _ in module.LEFT_OUT]


class TestEngines:
    """The connected-set transform and the level-shared kernel answer every query alike."""

    def test_every_small_connected_graph(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                if not is_connected(g):
                    continue
                d = twin_partition(g)
                for m in range(1, n + 1):
                    assert engines_agree(d, m) == steiner_wiener_naive(g, m)

    def test_trivial_partition(self):
        # Every vertex its own class and H = G: the reduced route with no
        # twin reduction at all.
        graphs = [g for g in graphs_up_to_isomorphism(6) if is_connected(g)]
        assert len(graphs) == 112
        for g in graphs:
            d = TwinDecomposition(
                g, tuple((v,) for v in range(g.n)), (ClassKind.SINGLETON,) * g.n, g,
                tuple(range(g.n)),
            )
            for m in range(1, g.n + 1):
                assert engines_agree(d, m) == steiner_wiener_naive(g, m), (g, m)

    def test_direct_engine_calls(self, rng):
        # The engines read only the class sizes and H; no decomposition is
        # built. Their histograms differ where the kernel leaves out supports
        # of more than m classes (N_S = 0), but not in the weighted sum the
        # formula reads.
        for _ in range(40):
            k = rng.randint(1, 8)
            sizes = np.array([rng.randint(1, 4) for _ in range(k)], dtype=np.int64)
            h = random_connected_graph(rng, k, 0.4)
            for m in range(2, int(sizes.sum()) + 1):
                results = [
                    reduced._kernel_histogram(sizes, h, m),
                    reduced._transform_histogram(sizes, reduced._connected_sets(h.masks), m),
                ]
                (hist, supports), (other, other_supports) = results
                assert len(hist) == len(other) == sizes.sum() + 1
                weighted = [
                    sum(comb(t, m) * int(x[t]) for t in range(m, len(x))) for x, _ in results
                ]
                assert weighted[0] == weighted[1], (sizes, h, m)
                assert supports == other_supports, (sizes, h, m)
                if len(hist) <= 10:
                    # Complete classes: SW_m = m * binom(n, m) + the weighted sum.
                    g = generalized_composition(h, [complete_graph(int(s)) for s in sizes])
                    assert m * comb(g.n, m) + weighted[0] == steiner_wiener_naive(g, m)

    def test_reference_checks(self):
        for check in REFERENCE_CHECKS:
            assert engines_agree(twin_partition(family_graph(check.family)), check.m) == check.expected

    def test_benchmark_pairs(self):
        # Every golden row and left-out pair whose H has at most 20 classes;
        # the transform over 2^23 class sets of power:Z480 is over budget.
        for spec, m, value in _benchmark_rows():
            d = twin_partition(family_graph(spec))
            if d.k <= 20:
                got = engines_agree(d, m)
                assert value is None or got == value, (spec, m)

    def test_left_out_values(self):
        # Values pinned when both engines first agreed on them.
        for spec, m, value in [
            ("zdg:Z180", 5, 1727967184),
            ("power:Z240", 5, 26124975280),
            ("comax:Z2xZ3xZ5xZ7", 5, 10368),
            ("power:Q8xZ15", 6, 20026851296),
            ("power:Z120", 10, 1045390925342623),
        ]:
            assert engines_agree(twin_partition(family_graph(spec)), m) == value

    def test_engine_choice(self):
        # Up to 8 classes the transform answers every m from 3 on, and m = 2
        # up to 6 classes; from k = 7 on, the kernel's one pass over H's
        # distances answers m = 2 at least as fast.
        for k in range(2, 9):
            for m in range(2 if k <= 6 else 3, 3 * k + 2):
                assert reduced._transform_chosen(k, m), (k, m)
        assert not reduced._transform_chosen(7, 2)
        # The benchmark's twin-free shapes stay on the kernel.
        for k in range(20, 35):
            for m in (2, 3, 4):
                assert not reduced._transform_chosen(k, m), (k, m)

    def test_transform_budget(self):
        # Two int32 arrays over 2^23 class sets alone fill DP_BYTE_BUDGET, so
        # power:Z480 (k = 23) stays on the kernel at every m; k = 21 fits.
        assert not any(reduced._transform_chosen(23, m) for m in range(2, 24))
        assert reduced._transform_chosen(21, 10)

    def test_transform_memory(self, rng):
        # The transform's peak over 2^k class sets stays within what the
        # budget charges for them.
        g = twin_free_graph(rng, 16, 0.3)
        d = twin_partition(g)
        with forced("transform"):
            tracemalloc.start()
            try:
                steiner_wiener_reduced(d, 6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= reduced._TRANSFORM_SET_BYTES << d.k

    def test_kernel_chunk_memory(self, rng, monkeypatch):
        # Weighing a chunk of supports takes at most half a chunk beside the
        # kernel's distances, so it adds nothing to the peak of a
        # kernel-chosen query. Classes of 2 or 3 vertices over a twin-free
        # base leave supports that hold more than m vertices to weigh.
        k, m = 24, 5
        factors = [rng.choice([complete_graph, empty_graph])(rng.randint(2, 3)) for _ in range(k)]
        d = twin_partition(generalized_composition(twin_free_graph(rng, k, 0.3), factors))
        assert d.k == k and not reduced._transform_chosen(k, m)

        def peak():
            tracemalloc.start()
            try:
                steiner_wiener_reduced(d, m)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with scattered() as held:
            peak()
        assert len(held) > comb(k, m)
        weighed = peak()
        monkeypatch.setattr(reduced, "_add_support_weights", lambda hist, held, w: None)
        assert weighed <= peak() + CHUNK_BYTES // 64

    def test_twin_free_top_level_in_one_chunk(self, rng):
        # Each 2-subset R yields only the subsets R | {c} above its largest
        # member, so at m = 3 the whole top level of k <= 34 classes fits in
        # one chunk.
        for k in range(20, 35):
            dist = distance_matrix(twin_free_graph(rng, k, 0.3))
            chunks = list(steiner_levels(dist, k, 3)[-1])
            assert len(chunks) == 1 and len(expanded(chunks[0])[0]) == comb(k, 3)

    def test_top_chunks_hold_both_kinds_of_support(self, rng, monkeypatch):
        # Classes of 1 to 3 vertices over a twin-free base on 24 vertices,
        # with the top level cut into at least ten chunks: within one
        # factored chunk, some supports hold exactly m vertices (folded into
        # h[m]) and others hold more (scattered). Supports of a lower level
        # that hold more than m vertices are scattered too.
        k = 24
        factors = [rng.choice([complete_graph, empty_graph])(rng.randint(1, 3)) for _ in range(k)]
        g = generalized_composition(twin_free_graph(rng, k, 0.3), factors)
        d = twin_partition(g)
        assert d.k == k
        naive = {m: steiner_wiener_naive(g, m) for m in (3, 4)}
        monkeypatch.setattr(steiner, "CHUNK_BYTES", steiner._BUFFER_BYTES + 40_000)
        real = reduced._weigh_chunk
        for m, value in naive.items():
            kinds = []

            def spy(hist, sizes, m, chunk):
                n_s = sizes[expanded(chunk)[0]].sum(axis=1)
                kinds.append((chunk[0].shape[1] + 1, bool((n_s == m).any()), bool((n_s > m).any())))
                return real(hist, sizes, m, chunk)

            monkeypatch.setattr(reduced, "_weigh_chunk", spy)
            with forced("kernel"):
                assert steiner_wiener_reduced(d, m) == value
            top = [kind[1:] for kind in kinds if kind[0] == m]
            assert len(top) >= 10, (m, len(top))
            assert (True, True) in top, m
            assert any(more for s, _, more in kinds if 1 < s < m), m

    @pytest.mark.parametrize("k,m", [(34, 3), (24, 5), (24, 4), (30, 4)])
    def test_kernel_chunk_within_chunk_bytes(self, rng, k, m):
        # Beside its table, every level of the kernel works in one chunk,
        # read as the reduced route reads it: each chunk weighed by
        # _weigh_chunk, with one vertex a class and with two (every
        # top-level support then holds over m), and kept alive while the
        # next chunk is built.
        dist = distance_matrix(twin_free_graph(rng, k, 0.3))
        table = 4 * k * sum(comb(k - 1, r) for r in range(2, m - 1))
        for size in (1, 2):
            sizes = np.full(k, size, dtype=np.int64)
            hist = np.zeros(size * k + 1, dtype=np.int64)
            tracemalloc.start()
            try:
                for level in steiner_levels(dist, k, m):
                    for chunk in level:
                        reduced._weigh_chunk(hist, sizes, m, chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - table <= CHUNK_BYTES, size


class TestWienerReduced:
    def test_ideal_based_graph_of_z6z2(self):
        r = ring_from_spec("Z6xZ2")
        g = ideal_zero_divisor_graph(r, ideal_generated(r, [r.label_index["(0,1)"]]))
        assert steiner_wiener_reduced(twin_partition(g), 2) == 22

    def test_comaximal_graph_of_z8z9(self):
        g = comaximal_ideal_graph(ring_from_spec("Z8xZ9"))
        assert steiner_wiener_reduced(twin_partition(g), 2) == 14

    def test_comaximal_graph_of_z3z5z9(self):
        g = comaximal_ideal_graph(ring_from_spec("Z3xZ5xZ9"))
        assert steiner_wiener_reduced(twin_partition(g), 2) == 69

    def test_equals_other_routes(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 9), 0.5)
            assert steiner_wiener_reduced(twin_partition(g), 2) == wiener_index(g)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            steiner_wiener_reduced(twin_partition(new_graph(2, [])), 2)


class TestMultipartiteClosedForm:
    def test_k333(self):
        assert sw_complete_multipartite((3, 3, 3), 5) == 504

    def test_m2_is_wiener_formula(self):
        parts = (2, 3, 4)
        n = sum(parts)
        expected = comb(n, 2) + sum(comb(p, 2) for p in parts)
        assert sw_complete_multipartite(parts, 2) == expected
        assert wiener_index(complete_multipartite_graph(parts)) == expected

    def test_matches_naive(self, rng):
        for parts in [(1, 2), (2, 2), (3, 3, 3), (1, 3, 4), (2, 2, 2, 2)]:
            g = complete_multipartite_graph(parts)
            for m in range(1, sum(parts) + 1):
                assert sw_complete_multipartite(parts, m) == steiner_wiener_naive(g, m)

    def test_needs_two_parts(self):
        with pytest.raises(NeedTwoParts):
            sw_complete_multipartite((5,), 2)
        with pytest.raises(NeedTwoParts):
            sw_complete_multipartite((5, 0), 2)

    def test_bad_subset_size(self):
        with pytest.raises(BadSubsetSize):
            sw_complete_multipartite((2, 2), 5)


class TestCompletelyJoinedBound:
    def test_wheel_wiener_bound(self):
        for n in range(3, 8):
            g = wheel_graph(n)
            assert wiener_index(g) <= (n + 1) * n
            assert sw_completely_joined_bound(n + 1, 2) == (n + 1) * n

    def test_complete_graph_slack(self):
        for n, m in [(5, 2), (6, 3), (7, 4)]:
            bound = sw_completely_joined_bound(n, m)
            actual = steiner_wiener_naive(complete_graph(n), m)
            assert bound - actual == comb(n, m)

    @pytest.mark.parametrize("n,m", [(5, 0), (5, 6), (0, 1)])
    def test_bad_subset_size(self, n, m):
        with pytest.raises(BadSubsetSize):
            sw_completely_joined_bound(n, m)

    def test_k333_within_bound(self):
        assert sw_complete_multipartite((3, 3, 3), 5) == 504 <= sw_completely_joined_bound(9, 5)
        assert sw_completely_joined_bound(9, 5) == 630

    def test_random_completely_joined_graphs(self, rng):
        for _ in range(12):
            g = _random_completely_joined(rng, max_total=8)
            for m in range(1, g.n + 1):
                assert steiner_wiener_naive(g, m) <= sw_completely_joined_bound(g.n, m)


def _random_completely_joined(rng: random.Random, max_total: int):
    p = rng.randint(2, 4)
    sizes = []
    remaining = max_total - p
    for _ in range(p):
        extra = rng.randint(0, max(0, remaining))
        sizes.append(1 + extra)
        remaining -= extra
    factors = []
    for s in sizes:
        edges = [(u, v) for u in range(s) for v in range(u + 1, s) if rng.random() < 0.5]
        factors.append(new_graph(s, edges))
    return generalized_composition(complete_graph(p), factors)
