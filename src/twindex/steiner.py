"""Exact Steiner distances and brute-force index computation.

``steiner_distances`` is the one Steiner kernel: a Dreyfus-Wagner dynamic
program over (terminal-subset, anchor-vertex) states that answers a whole
batch of equal-size terminal sets with one numpy call sequence, under a fixed
byte budget checked before allocation. ``steiner_distance`` is its one-row
case, ``steiner_wiener_naive`` streams every m-subset through it, and the
twin-class reduction answers its supports with it. ``steiner_distance_bruteforce``
minimizes over connected vertex supersets and is the independent oracle the
kernel and the twin-class reduction formula are validated against. All index
values are exact Python integers.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    BadSubsetSize,
    DisconnectedGraph,
    DisconnectedTerminals,
    EmptyTerminalSet,
    GraphTooLargeForBruteForce,
    TerminalCapExceeded,
)
from .graph import Graph, all_pairs_distances, is_connected

BRUTE_FORCE_VERTEX_CAP = 16
# Largest kernel allocation one query row may need (see ``_row_bytes``);
# checked before any DP state is allocated.
DP_BYTE_BUDGET = 1 << 26
# Bytes per kernel batch. Small enough that the DP stays in cache and memory
# stays flat, large enough that each numpy call spans many rows.
BATCH_BYTES = 1 << 20

# Larger than any hop count, small enough that sums of a few never overflow
# int64.
_INF = 1 << 40


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop counts as an int64 array with ``_INF`` for unreachable."""
    mat = np.array(all_pairs_distances(g), dtype=np.float64).reshape(g.n, g.n)
    mat[mat == np.inf] = _INF
    return mat.astype(np.int64)


def _row_bytes(s: int, n: int) -> int:
    """Peak kernel bytes per query row of ``s`` terminals on ``n`` vertices.

    The DP table and the submask-merge temporary together stay below
    ``2^s * n`` int64 entries; from ``s = 4`` on, the min-plus relax adds an
    ``(n, n)`` temporary per row. One or two terminals need only the row's
    indices and its answer.
    """
    if s <= 2:
        return 8 * (s + 1)
    return 8 * n * ((1 << s) + (n if s > 3 else 0))


def batch_rows(s: int, n: int) -> int:
    """Query rows of ``s`` terminals per kernel batch: as many as fit ``BATCH_BYTES``."""
    return max(1, BATCH_BYTES // _row_bytes(s, n))


def subset_batches(n: int, s: int) -> Iterator[np.ndarray]:
    """Every ``s``-subset of ``range(n)`` in lexicographic order, as ``(B, s)`` arrays.

    Each array holds :func:`batch_rows` ``(s, n)`` rows (the last may hold
    fewer), so a stream of any length fills kernel batches with flat memory.
    """
    subsets = itertools.combinations(range(n), s)
    row_type = np.dtype((np.intp, s))
    step = batch_rows(s, n)
    while len(batch := np.fromiter(itertools.islice(subsets, step), dtype=row_type)):
        yield batch


def _dp_table(dist: np.ndarray, terminals: np.ndarray) -> np.ndarray:
    """Dreyfus-Wagner table for a batch of terminal rows, shape ``(2^s, B, n)``.

    For every mask but the full one, ``dp[mask, b, v]`` is the Steiner
    distance of ``{terminals[b, i] : i in mask} | {v}``. Masks are processed
    in increasing order: each one takes the cheapest merge of two
    complementary submasks at every anchor, across the whole batch at once,
    then one min-plus relax through the exact distance matrix (one pass
    suffices because hop counts satisfy the triangle inequality). The full
    mask keeps its merge unrelaxed: its minimum over anchors is the same, and
    adding a root's distance row to it yields the root's column.
    """
    rows, s = terminals.shape
    full = (1 << s) - 1
    dp = np.empty((full + 1, rows, dist.shape[0]), dtype=np.int64)
    for i in range(s):
        dp[1 << i] = dist[terminals[:, i]]
    for mask in range(3, full + 1):
        low = mask & -mask
        if mask == low:
            continue
        # Each unordered split once: the part holding the lowest bit.
        subs = []
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                subs.append(sub)
            sub = (sub - 1) & mask
        merged = dp[subs]
        merged += dp[[mask ^ sub for sub in subs]]
        best = merged.min(axis=0)
        if mask == full:
            dp[mask] = best
        else:
            dp[mask] = (best[:, :, None] + dist).min(axis=1)
    return dp


def steiner_distances(dist: np.ndarray, terminals: np.ndarray) -> np.ndarray:
    """Steiner distances of ``B`` terminal rows of equal size, as int64.

    ``terminals`` is a ``(B, s)`` integer array of distinct vertices per row,
    all in one component of the graph whose hop counts ``dist`` holds. One
    terminal costs 0 and two cost their matrix entry. From three terminals on,
    the last terminal of each row is the root of a Dreyfus-Wagner table over
    the other ``s - 1`` (:func:`_dp_table`); for ``s = 3`` that is
    ``min_v sum_i d(t_i, v)`` with no relax step. Rows are answered in
    batches of :func:`batch_rows`. Raises :class:`TerminalCapExceeded`,
    before allocating, when one row alone needs more than
    ``DP_BYTE_BUDGET`` bytes.
    """
    terminals = np.asarray(terminals, dtype=np.intp)
    count, s = terminals.shape
    if s == 1:
        return np.zeros(count, dtype=np.int64)
    if s == 2:
        return dist[terminals[:, 0], terminals[:, 1]]
    n = dist.shape[0]
    need = _row_bytes(s, n)
    if need > DP_BYTE_BUDGET:
        raise TerminalCapExceeded(
            f"{s} terminals on {n} vertices need {need} bytes of DP state, "
            f"over the budget of {DP_BYTE_BUDGET}"
        )
    step = batch_rows(s, n)
    out = np.empty(count, dtype=np.int64)
    for lo in range(0, count, step):
        batch = terminals[lo : lo + step]
        dp = _dp_table(dist, batch[:, :-1])
        out[lo : lo + step] = (dp[-1] + dist[batch[:, -1]]).min(axis=1)
    return out


def _validated_terminals(g: Graph, terminals: Iterable[int]) -> tuple[int, ...]:
    ts = tuple(sorted(set(terminals)))
    if not ts:
        raise EmptyTerminalSet("terminal set must be non-empty")
    for t in ts:
        g._check_vertex(t)
    return ts


def _check_reachable(dist: np.ndarray, ts: tuple[int, ...]) -> None:
    t0 = ts[0]
    for t in ts[1:]:
        if dist[t0, t] >= _INF:
            raise DisconnectedTerminals(
                f"terminals {t0} and {t} lie in different components"
            )


def steiner_distance(g: Graph, terminals: Iterable[int]) -> int:
    """Exact Steiner distance of a terminal set (edges of the smallest subtree).

    A one-row call of :func:`steiner_distances`: a single terminal costs 0,
    two terminals cost their shortest-path distance. Raises
    :class:`DisconnectedTerminals` when the terminals span several
    components, and :class:`TerminalCapExceeded` when the DP would need more
    than ``DP_BYTE_BUDGET`` bytes.
    """
    ts = _validated_terminals(g, terminals)
    dist = distance_matrix(g)
    _check_reachable(dist, ts)
    return int(steiner_distances(dist, np.array([ts]))[0])


def steiner_distance_bruteforce(g: Graph, terminals: Iterable[int]) -> int:
    """Independent Steiner-distance oracle: scan connected vertex supersets.

    The smallest subtree containing ``S`` has vertex set ``W`` with
    ``G[W]`` connected and ``|W| - 1`` edges, so the minimum of ``|W| - 1``
    over connected supersets is the Steiner distance. Exponential in ``n``;
    capped at ``n <= 16``.
    """
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise GraphTooLargeForBruteForce(
            f"brute force needs n <= {BRUTE_FORCE_VERTEX_CAP}, got {g.n}"
        )
    ts = _validated_terminals(g, terminals)
    base = 0
    for t in ts:
        base |= 1 << t
    others = [v for v in range(g.n) if not base & (1 << v)]
    best: int | None = None
    for extra_bits in range(1 << len(others)):
        mask = base
        for i, v in enumerate(others):
            if extra_bits >> i & 1:
                mask |= 1 << v
        size = mask.bit_count()
        if best is not None and size - 1 >= best:
            continue
        if _induced_connected(g, mask):
            best = size - 1
    if best is None:
        raise DisconnectedTerminals("terminals lie in different components")
    return best


def _induced_connected(g: Graph, mask: int) -> bool:
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            bit = 1 << w
            if mask & bit and not seen & bit:
                seen |= bit
                stack.append(w)
    return seen == mask


def _validate_index_args(g: Graph, m: int) -> None:
    if not 1 <= m <= g.n:
        raise BadSubsetSize(f"subset size {m} not in [1, {g.n}]")
    if not is_connected(g):
        raise DisconnectedGraph("index computation requires a connected graph")


def steiner_wiener_naive(
    g: Graph,
    m: int,
    *,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """m-Steiner Wiener index by summing Steiner distances of every m-subset.

    This is the definition, evaluated literally: every m-subset is one
    Steiner query. The subsets stream from :func:`subset_batches`, each
    chunk answered by one :func:`steiner_distances` call, so memory stays
    flat however many there are. ``progress(done, total)`` is invoked after
    every chunk when given.
    """
    _validate_index_args(g, m)
    dist = distance_matrix(g)
    total = comb(g.n, m)
    value = done = 0
    for batch in subset_batches(g.n, m):
        value += int(steiner_distances(dist, batch).sum())
        done += len(batch)
        if progress is not None:
            progress(done, total)
    return value


def wiener_index(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    if not is_connected(g):
        raise DisconnectedGraph("the Wiener index requires a connected graph")
    rows = all_pairs_distances(g)
    return sum(int(rows[u][v]) for u in range(g.n) for v in range(u + 1, g.n))


def all_steiner_distances(g: Graph) -> dict[frozenset[int], int]:
    """Steiner distance of every non-empty vertex subset (test helper).

    One :func:`_dp_table` run with the full vertex set as terminals yields
    the answer for all ``2^n - 1`` subsets at once, as each mask's minimum
    over anchors; only sensible for tiny graphs.
    """
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise GraphTooLargeForBruteForce(
            f"all-subsets table needs n <= {BRUTE_FORCE_VERTEX_CAP}, got {g.n}"
        )
    if not is_connected(g):
        raise DisconnectedGraph("all-subsets table requires a connected graph")
    n = g.n
    dp = _dp_table(distance_matrix(g), np.arange(n)[None, :])
    lowest = dp[1:, 0].min(axis=1).tolist()
    out: dict[frozenset[int], int] = {}
    for mask in range(1, 1 << n):
        members = frozenset(v for v in range(n) if mask >> v & 1)
        out[members] = lowest[mask - 1]
    return out
