"""Steiner distances (DP vs brute force) and brute-force index sums."""

import functools
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
    VertexOutOfRange,
    new_graph,
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
)
from twindex.algebra import cyclic_group, dihedral_group
from twindex import reduced, steiner
from twindex.steiner import (
    CHUNK_BYTES,
    DP_BYTE_BUDGET,
    _BUFFER_BYTES,
    _level_bytes,
    distance_matrix,
    steiner_levels,
)

from conftest import (
    all_graphs,
    connected_by_dfs,
    connectivity_sweep,
    expanded,
    permuted,
    random_connected_graph,
    twin_free_graph,
)


def components(g):
    """The vertex sets of ``g``'s connected components."""
    dist = distance_matrix(g)
    seen, out = set(), []
    for v in range(g.n):
        if v not in seen:
            comp = [u for u in range(g.n) if dist[v, u] < g.n]
            seen.update(comp)
            out.append(comp)
    return out


def universe_first(g, universe):
    """``g``'s distance matrix with the vertices reordered so that ``universe`` comes first."""
    order = list(universe) + [v for v in range(g.n) if v not in universe]
    return distance_matrix(g)[np.ix_(order, order)]


def check_levels(g, universe, top, oracle):
    """Every subset ``steiner_levels`` yields, once each and none missing, equals ``oracle``.

    The kernel runs on the distance matrix reordered so that ``universe``
    comes first, and member ``i`` of a subset is ``universe[i]``. It yields
    levels 2 to ``top``, every subset of two or more members. The levels
    are read top first, so no level relies on an earlier one having been
    read; each chunk is expanded into its subsets. Returns the number of
    chunks of each level from 2 to ``top``.
    """
    levels = steiner_levels(universe_first(g, universe), len(universe), top)
    assert len(levels) == max(0, top - 1)
    chunks = [0] * len(levels)
    for s in range(top, 1, -1):
        seen = set()
        for chunk in levels[s - 2]:
            subsets, distances = expanded(chunk)
            chunks[s - 2] += 1
            assert subsets.shape == (len(distances), s)
            assert distances.dtype == np.int32 and distances.ndim == 1
            for row, value in zip(subsets.tolist(), distances.tolist()):
                assert row == sorted(set(row)) and 0 <= row[0] and row[-1] < len(universe)
                members = frozenset(universe[i] for i in row)
                assert members not in seen
                seen.add(members)
                assert value == oracle(members), (g.edges(), universe, top, members)
        assert len(seen) == comb(len(universe), s)
    return chunks


def beside_far_component(rng, first, b):
    """``first`` and a random connected graph on ``b`` vertices, labels interleaved.

    Returns the graph and the labels ``first``'s vertices got.
    """
    a = first.n
    labels = list(range(a + b))
    rng.shuffle(labels)
    parts = [first, random_connected_graph(rng, b, 0.4)]
    edges = [
        (labels[u + shift], labels[v + shift])
        for part, shift in zip(parts, (0, a))
        for u, v in part.edges()
    ]
    return new_graph(a + b, edges), labels[:a]


def colex_last(size, s):
    """Largest member of each ``(s - 1)``-subset of ``range(size - 1)``, in colex order."""
    for b in range(s - 2, size - 1):
        yield from [b] * comb(b, s - 2)


def level_rows(n, size, s):
    """Rows per chunk of level ``s``: the most first rows whose bytes fit the chunk, at least one."""
    fixed, row, out = _level_bytes(n, size, s)
    budget = steiner.CHUNK_BYTES - _BUFFER_BYTES - fixed
    spent = itertools.accumulate(row + out * (size - 1 - b) for b in colex_last(size, s))
    return max(1, sum(1 for _ in itertools.takewhile(lambda x: x <= budget, spent)))


def rows_chunk_bytes(n, size, s, rows):
    """The ``CHUNK_BYTES`` that holds exactly the first ``rows`` rows of level ``s``."""
    fixed, row, out = _level_bytes(n, size, s)
    first = itertools.islice(colex_last(size, s), rows)
    return _BUFFER_BYTES + fixed + sum(row + out * (size - 1 - b) for b in first)


def expected_chunks(n, size, top):
    """Chunks of every level of ``steiner_levels``, 2 to ``top``, over ``size`` of ``n`` vertices.

    Every level s streams one chunk per chunk of the ``(s - 1)``-subsets of
    all but the last member.
    """
    return [-(-comb(size - 1, s - 1) // level_rows(n, size, s)) for s in range(2, top + 1)]


def top_by_member(dist, rows):
    """Counts and distances of a top-level chunk of 3 or 4 members over ``rows``, one member at a time.

    Three terminals meet at one vertex v. Four pair off, one pair at u and
    the other at v: ``min_v P(p, q, v) + d(r, v) + d(s, v)`` with
    ``P(p, q, v) = min_u d(p, u) + d(q, u) + d(u, v)``, over the three
    pairings (Steiner points may coincide with each other or a terminal).
    """
    size = dist.shape[0]
    d = dist.astype(np.int64)
    if rows.shape[1] == 3:
        pair = (d[:, None, :, None] + d[None, :, :, None] + d[None, None]).min(axis=2)
    counts, out = [], []
    for c in range(size):
        held = rows[rows[:, -1] < c]
        counts.append(len(held))
        t = [held[:, i] for i in range(rows.shape[1])] + [np.full(len(held), c)]
        if len(t) == 3:
            value = (d[t[0]] + d[t[1]] + d[t[2]]).min(axis=1)
        else:
            value = np.minimum.reduce([
                (pair[t[a], t[b]] + d[t[x]] + d[t[y]]).min(axis=1)
                for a, b, x, y in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
            ])
        out.extend(value.tolist())
    return counts, out


class TestSteinerDistance:
    def test_path_endpoints(self):
        assert steiner_distance(path_graph(4), {0, 3}) == 3

    def test_z6_power_graph_triple(self):
        g = power_graph(cyclic_group(6))
        assert steiner_distance(g, {2, 3, 4}) == 3

    def test_single_terminal(self):
        assert steiner_distance(path_graph(5), {2}) == 0

    def test_single_terminal_builds_no_matrix(self, monkeypatch):
        # One terminal costs 0 without a distance matrix; the terminals are
        # still validated first.
        def built(g):
            raise AssertionError("distance matrix built for one terminal")

        monkeypatch.setattr(steiner, "distance_matrix", built)
        g = new_graph(4, [(0, 1)])
        for v in range(g.n):
            assert steiner_distance(g, [v, v]) == 0
        with pytest.raises(VertexOutOfRange):
            steiner_distance(g, {4})
        with pytest.raises(EmptyTerminalSet):
            steiner_distance(g, set())

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
        # 4 * 40 * (2^19 - 40) table bytes: about 84 MB.
        with pytest.raises(TerminalCapExceeded):
            steiner_distance(complete_graph(40), range(20))


class TestKernel:
    def test_every_subset_of_tiny_graphs(self):
        # Every labelled graph with n <= 5; each component is one universe,
        # so the others are unreachable from it.
        for n in range(1, 6):
            for g in all_graphs(n):
                oracle = functools.cache(lambda s, g=g: steiner_distance_bruteforce(g, s))
                for comp in components(g):
                    for top in range(1, len(comp) + 1):
                        check_levels(g, comp, top, oracle)

    def test_every_top_on_random_graphs(self, rng):
        for n in range(1, 11):
            for _ in range(2):
                g = random_connected_graph(rng, n, rng.choice([0.25, 0.5]))
                oracle = functools.cache(lambda s, g=g: steiner_distance_bruteforce(g, s))
                universe = list(range(n))
                rng.shuffle(universe)
                for top in range(1, n + 1):
                    check_levels(g, universe, top, oracle)

    def test_universes_beside_unreachable_components(self, rng):
        # Two components with interleaved labels; universes are shuffled
        # subsets of the first. In the first case the first is a path on 8
        # vertices, all of them in the universe, beside a far component: at
        # top = 8 the sums at anchors in the far component reach their
        # largest, 3 * _INF plus a few hop counts, which int32 must hold.
        for case in range(12):
            a, b = (8 if case == 0 else rng.randint(1, 8)), rng.randint(1, 6)
            first = path_graph(a) if case == 0 else random_connected_graph(rng, a, 0.4)
            g, labels = beside_far_component(rng, first, b)
            oracle = functools.cache(lambda s, g=g: steiner_distance_bruteforce(g, s))
            universe = rng.sample(labels, a if case == 0 else rng.randint(1, a))
            for top in range(1, len(universe) + 1):
                check_levels(g, universe, top, oracle)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_universes(self, rng, size):
        # Every ordered universe of 1, 2 or 3 vertices beside a far
        # component, at every top: no level below two members is streamed,
        # and every level, such as a top of two members over two vertices,
        # is one chunk. Level 2's rows are the single members but the last.
        g, labels = beside_far_component(rng, random_connected_graph(rng, 5, 0.4), 3)
        oracle = functools.cache(lambda s: steiner_distance_bruteforce(g, s))
        for universe in itertools.permutations(labels, size):
            for top in range(1, size + 1):
                chunks = check_levels(g, list(universe), top, oracle)
                assert chunks == expected_chunks(g.n, size, top) == [1] * (top - 1)
                if top > 1:
                    level = steiner_levels(universe_first(g, universe), size, top)[0]
                    rows, counts, _ = next(level)
                    assert rows.tolist() == [[p] for p in range(size - 1)]
                    assert counts.tolist() == list(range(size))

    def test_no_level_below_two_members(self, rng):
        # A one-member set costs 0, which every caller answers itself: a top
        # below two streams nothing, over any universe.
        g = random_connected_graph(rng, 6, 0.4)
        dist = distance_matrix(g)
        for size in range(1, g.n + 1):
            assert steiner_levels(dist, size, 1) == []
            assert len(steiner_levels(dist, size, size)) == size - 1

    @pytest.mark.parametrize("rows", [1, 3])
    def test_shared_top_across_chunk_boundaries(self, rng, monkeypatch, rows):
        # The top level merges each (top - 1)-subset R once, in R-chunks of
        # 1 or 3 rows here, so the prefix of rows that each last member c
        # extends spans many chunks. The last graph is a path on 8 vertices,
        # all in the universe, beside a far component: at top = 8 its sums
        # reach 3 * _INF plus a few hop counts.
        cases = [random_connected_graph(rng, n, rng.choice([0.25, 0.5])) for n in range(3, 11)]
        cases = [(g, list(range(g.n))) for g in cases]
        cases.append(beside_far_component(rng, path_graph(8), 2))
        for g, universe in cases:
            oracle = functools.cache(lambda s, g=g: steiner_distance_bruteforce(g, s))
            rng.shuffle(universe)
            size = len(universe)
            for top in range(3, size + 1):
                monkeypatch.setattr(steiner, "CHUNK_BYTES", rows_chunk_bytes(g.n, size, top, rows))
                assert level_rows(g.n, size, top) == min(rows, comb(size - 1, top - 1))
                chunks = check_levels(g, universe, top, oracle)
                assert chunks == expected_chunks(g.n, size, top)
                assert chunks[-1] == -(-comb(size - 1, top - 1) // rows)

    def test_batches_match_single_rows_and_bruteforce(self, rng, monkeypatch):
        # Whole levels, chunks of a few rows and chunks of one row yield the
        # same subsets, each once and equal to the oracle, in exactly the
        # chunks the byte accounting gives. A few rows are two of the top
        # level, whose rows are the heaviest, so the lower levels take at
        # least two. Every level streams R-major, not in colex order, so the
        # pairs are compared sorted.
        def stream(dist, n, chunk_bytes):
            monkeypatch.setattr(steiner, "CHUNK_BYTES", chunk_bytes)
            chunks = [
                (s.tolist(), d.tolist())
                for level in steiner_levels(dist, n, min(n, 7))
                for s, d in map(expanded, level)
            ]
            pairs = [(tuple(r), v) for rows, values in chunks for r, v in zip(rows, values)]
            assert len(set(r for r, _ in pairs)) == len(pairs)
            assert len(chunks) == sum(expected_chunks(n, n, min(n, 7)))
            return len(chunks), sorted(pairs)

        for n in range(1, 11):
            top = min(n, 7)
            g = random_connected_graph(rng, n, rng.choice([0.25, 0.5]))
            dist = distance_matrix(g)
            whole_chunks, whole = stream(dist, n, CHUNK_BYTES)
            few_chunks, few = stream(dist, n, rows_chunk_bytes(n, n, top, 2) if n > 1 else 1)
            single_chunks, single = stream(dist, n, 1)
            assert whole == few == single
            assert len(whole) == sum(comb(n, s) for s in range(2, top + 1))
            assert single_chunks == sum(comb(n - 1, s - 1) for s in range(2, top + 1))
            assert whole_chunks == top - 1
            assert n < 6 or whole_chunks < few_chunks < single_chunks
            for row, value in whole:
                assert steiner_distance_bruteforce(g, row) == value

    @pytest.mark.parametrize("r", range(1, 8))
    def test_submask_ranks(self, rng, r):
        # Row q of the submask-major ranks holds, for each row of positions,
        # the colex rank sum_j C(p_j, j + 1) over q's members p_j, computed
        # here in plain Python. The rows include the first and last colex
        # rows; a single row is checked on its own.
        size = 12
        binom = np.array([[comb(c, j) for c in range(size)] for j in range(r + 1)], dtype=np.int64)
        colex = sorted(itertools.combinations(range(size), r), key=lambda t: t[::-1])
        middle = rng.sample(colex[1:-1], min(20, len(colex) - 2))
        for rows in ([colex[0], *middle, colex[-1]], [rng.choice(colex)]):
            ranks = steiner._submask_rows(np.array(rows, dtype=np.intp), binom)
            assert ranks.shape == (1 << r, len(rows))
            for q in range(1 << r):
                for b, row in enumerate(rows):
                    members = [p for i, p in enumerate(row) if q >> i & 1]
                    expected = sum(comb(p, j + 1) for j, p in enumerate(members))
                    assert ranks[q, b] == expected, (q, row)

    @pytest.mark.parametrize(
        "kind,n,top,rows",
        [
            # A twin-free graph, whose chunks hold at least as many rows as
            # anchors (anchor-major): the whole level, or k + 3 rows a chunk.
            *[
                ("twin-free", k, top, rows)
                for k, top in [(20, 3), (27, 3), (34, 3), (20, 4), (24, 4)]
                for rows in (None, k + 3)
            ],
            # A long path, whose chunks hold fewer rows than anchors (row-major).
            ("path", 240, 3, None),
            ("path", 240, 3, 40),
        ],
    )
    def test_member_blocks_match_one_member_at_a_time(self, rng, monkeypatch, kind, n, top, rows):
        # Each top-level chunk's counts and distances equal a reference that
        # extends its rows by one member at a time, in the same member-major
        # order. Early members, which extend few rows, share blocks; on the
        # path the first chunks hold those, and later every block is one
        # member.
        g = twin_free_graph(rng, n, 0.3) if kind == "twin-free" else path_graph(n)
        dist = distance_matrix(g)
        if rows is not None:
            monkeypatch.setattr(steiner, "CHUNK_BYTES", rows_chunk_bytes(n, n, top, rows))
        assert (level_rows(n, n, top) >= n) == (kind == "twin-free")
        chunks = steiner_levels(dist, n, top)[-1]
        for held, counts, distances in itertools.islice(chunks, 6 if kind == "path" else None):
            expected_counts, expected = top_by_member(dist, held)
            assert counts.tolist() == expected_counts
            assert distances.dtype == np.int32 and distances.tolist() == expected

    @pytest.mark.parametrize("rows,n", [(12, 5), (5, 12)])
    def test_extend_is_the_minimum_over_anchors(self, rng, rows, n):
        # Anchor-major (rows >= n) and row-major, with members in blocks of
        # one, of several and all in one: every entry a member extends is
        # its minimum over the anchors (the others are left unset).
        gen = np.random.default_rng(rng.randrange(1 << 30))
        merged = gen.integers(0, 50, (rows, n), dtype=np.int32)
        dist = gen.integers(0, 50, (n, n), dtype=np.int32)
        first = 2
        counts = np.zeros(n, dtype=np.intp)
        counts[first:] = np.sort(gen.integers(1, rows + 1, n - first))
        for cap in (1, rows, rows * n):
            out = steiner._extend(merged, dist, counts, first, cap)
            assert out.shape == (n - first, rows) and out.dtype == np.int32
            for c in range(first, n):
                p = counts[c]
                assert out[c - first, :p].tolist() == (merged[:p] + dist[c]).min(axis=1).tolist()

    @pytest.mark.parametrize("rows", [None, 210])
    def test_member_major_array_within_chunk_bytes(self, rng, monkeypatch, rows):
        # The top level's (members, rows) array is widest where a chunk spans
        # many largest members: at m = 3 on a twin-free graph of 34 vertices,
        # the whole level in one chunk (32 members by 528 rows), or a chunk
        # of the first 210 rows, whose largest members run from 1 to 20. Each
        # chunk is read as the reduced route reads it: weighed by
        # _weigh_chunk, with one vertex a class and with two, and kept alive
        # while the next chunk is built.
        k = 34
        dist = distance_matrix(twin_free_graph(rng, k, 0.3))
        if rows is not None:
            monkeypatch.setattr(steiner, "CHUNK_BYTES", rows_chunk_bytes(k, k, 3, rows))
        assert level_rows(k, k, 3) == (comb(k - 1, 2) if rows is None else rows)
        for size in (1, 2):
            sizes = np.full(k, size, dtype=np.int64)
            hist = np.zeros(size * k + 1, dtype=np.int64)
            tracemalloc.start()
            try:
                for chunk in steiner_levels(dist, k, 3)[-1]:
                    reduced._weigh_chunk(hist, sizes, 3, chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= steiner.CHUNK_BYTES, size

    def test_row_over_chunk_streams_one_row_per_chunk(self, monkeypatch):
        # A chunk one byte short of the first top-level row still takes one
        # row and streams every row in turn (a chunk of 1 byte is in
        # test_batches_match_single_rows_and_bruteforce).
        n, m = 12, 4
        monkeypatch.setattr(steiner, "CHUNK_BYTES", rows_chunk_bytes(n, n, m, 1) - 1)
        assert level_rows(n, n, m) == 1
        levels = steiner_levels(distance_matrix(cycle_graph(n)), n, m)
        chunks = [len(expanded(chunk)[0]) for chunk in levels[-1]]
        assert len(chunks) == comb(n - 1, m - 1)
        assert sum(chunks) == comb(n, m)

    def test_naive_path_in_chunks_of_few_rows(self, monkeypatch):
        # Three vertices of a path are spanned by the path between the outer
        # two. The C(n, 3) subsets, summed in chunks of four 2-subsets R, each
        # extended by up to 58 later vertices, equal the closed form.
        n, rows = 60, 4
        monkeypatch.setattr(steiner, "CHUNK_BYTES", rows_chunk_bytes(n, n, 3, rows))
        calls = []
        value = steiner_wiener_naive(path_graph(n), 3, progress=lambda *call: calls.append(call))
        assert value == sum((n - d) * d * (d - 1) for d in range(2, n))
        assert len(calls) == -(-comb(n - 1, 2) // rows)

    def test_top_chunk_within_chunk_bytes_on_long_path(self):
        # Each of the first top-level rows on 240 vertices yields over 200
        # subsets; the level still works in one chunk, read as the reduced
        # route reads it: each chunk weighed by _weigh_chunk, with the
        # previous chunk alive while the next is built. With one vertex a
        # class every support holds m; with two, every one holds more and
        # its class sizes are gathered. The first chunks are the heaviest,
        # so they are the ones read here.
        n = 240
        dist = distance_matrix(path_graph(n))
        assert expected_chunks(n, n, 3)[-1] > 4
        for size in (1, 2):
            sizes = np.full(n, size, dtype=np.int64)
            hist = np.zeros(size * n + 1, dtype=np.int64)
            tracemalloc.start()
            try:
                for chunk in itertools.islice(steiner_levels(dist, n, 3)[-1], 4):
                    reduced._weigh_chunk(hist, sizes, 3, chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= CHUNK_BYTES, size

    def test_lower_levels_within_chunk_bytes_on_long_path(self):
        # Levels 2 and 3 of the path on 240 vertices at m = 4 read each row
        # R of dist or of the table at every later vertex, one gather per
        # chunk, and are read as the reduced route reads them: each chunk
        # weighed by _weigh_chunk, once with one vertex a class and once with
        # two (level 3's supports then hold over m). The table is built
        # before tracing starts.
        n, m = 240, 4
        dist = distance_matrix(path_graph(n))
        assert all(chunks > 4 for chunks in expected_chunks(n, n, m)[:2])
        reads = [(np.full(n, size, dtype=np.int64), np.zeros(size * n + 1, dtype=np.int64)) for size in (1, 2)]
        levels = steiner_levels(dist, n, m)
        tracemalloc.start()
        try:
            for level in levels[:2]:
                for chunk in level:
                    for sizes, hist in reads:
                        reduced._weigh_chunk(hist, sizes, m, chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_BYTES

    @pytest.mark.parametrize("s", [3, 4, 8])
    def test_byte_budget_boundary(self, s, monkeypatch):
        # s terminals on n vertices keep (2^(s-1) - s - 1) * n int32 entries,
        # one per subset of 2 to s - 2 of the first s - 1, beside one chunk of
        # CHUNK_BYTES.
        g = cycle_graph(16)
        terminals = range(0, 2 * s, 2)
        need = 4 * 16 * ((1 << (s - 1)) - s - 1) + CHUNK_BYTES
        monkeypatch.setattr(steiner, "DP_BYTE_BUDGET", need)
        assert steiner_distance(g, terminals) == 2 * (s - 1)
        monkeypatch.setattr(steiner, "DP_BYTE_BUDGET", need - 1)
        with pytest.raises(TerminalCapExceeded):
            steiner_distance(g, terminals)

    def test_two_terminals_keep_no_table(self, monkeypatch):
        monkeypatch.setattr(steiner, "DP_BYTE_BUDGET", 0)
        assert steiner_distance(cycle_graph(16), {3, 11}) == 8
        assert steiner_wiener_naive(cycle_graph(16), 2) == wiener_index(cycle_graph(16))

    def test_byte_budget_checked_before_allocating(self):
        # 18 terminals on 128 vertices: the table alone fills all but 18 KiB
        # of the 64 MiB, so with one chunk's working set it is just over.
        g = cycle_graph(128)
        tracemalloc.start()
        try:
            with pytest.raises(TerminalCapExceeded):
                steiner_distance(g, range(18))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < DP_BYTE_BUDGET // 16

    @pytest.mark.parametrize("n,m", [(322, 4), (101, 5), (54, 6), (38, 7), (30, 8)])
    def test_naive_queries_over_budget(self, n, m, monkeypatch):
        # The smallest over budget at each m, as the README lists them: one
        # vertex fewer passes the check (no subset is streamed).
        with pytest.raises(TerminalCapExceeded):
            steiner_wiener_naive(path_graph(n), m)
        monkeypatch.setattr(steiner, "_subsets", lambda *args: iter(()))
        assert steiner_wiener_naive(path_graph(n - 1), m) == 0


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
                for size in range(1, n + 1):
                    for s in itertools.combinations(range(n), size):
                        expected = steiner_distance_bruteforce(g, s)
                        assert steiner_distance(g, s) == expected

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
        assert steiner_wiener_naive(power_graph(cyclic_group(6)), 3) == 41

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
        # One call per chunk of the (m - 1)-subsets that the top level merges.
        rows = level_rows(n, n, m)
        assert len(calls) == expected_chunks(n, n, m)[-1] == -(-comb(n - 1, m - 1) // rows) > 1
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


class TestConnectivityFromMatrix:
    """The whole-graph routes refuse a disconnected graph before building its distance matrix."""

    DISCONNECTED = {
        "zero_isolated": new_graph(4, [(1, 2), (2, 3)]),
        "zero_in_larger": new_graph(5, [(0, 1), (1, 2), (3, 4)]),
    }
    ROUTES = {
        "naive": lambda g: steiner_wiener_naive(g, min(2, g.n)),
        "wiener": wiener_index,
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("graph", list(DISCONNECTED))
    def test_disconnected_rejected(self, route, graph):
        with pytest.raises(DisconnectedGraph):
            self.ROUTES[route](self.DISCONNECTED[graph])

    def test_wiener_of_trivial_graphs(self):
        assert wiener_index(new_graph(0)) == 0
        assert wiener_index(new_graph(1)) == 0

    @pytest.mark.parametrize("graph", list(DISCONNECTED))
    def test_bad_subset_size_before_disconnected(self, graph):
        g = self.DISCONNECTED[graph]
        for m in (0, g.n + 1):
            with pytest.raises(BadSubsetSize):
                steiner_wiener_naive(g, m)

    def test_raises_exactly_on_disconnected_graphs(self):
        # is_connected is the routes' own rule, so a DFS written in the tests is the oracle.
        routes = (
            lambda g: steiner_wiener_naive(g, 1),
            lambda g: steiner_wiener_naive(g, min(2, g.n)),
            wiener_index,
        )
        for g in connectivity_sweep():
            if connected_by_dfs(g):
                assert steiner_wiener_naive(g, 1) == 0
                assert steiner_wiener_naive(g, min(2, g.n)) == wiener_index(g)
            else:
                for route in routes:
                    with pytest.raises(DisconnectedGraph):
                        route(g)
