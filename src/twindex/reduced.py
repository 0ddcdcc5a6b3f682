"""Wiener and m-Steiner Wiener indices through twin classes.

The Steiner distance of an m-subset depends only on its *support* S, the set
of twin classes it meets. Inside one class it is ``m - 1`` for a complete
class and ``m`` for an edgeless one; across classes it is ``d_H(S) + m - |S|``,
where ``d_H`` is the Steiner distance of the class representatives in the
reduced graph H and each further vertex hangs off that tree by one edge. So
the defining sum over all ``binom(n, m)`` subsets collapses to one sum over
the supports of at most ``m`` classes::

    SW_m = sum_S N_S * w(S) + sum_{i edgeless} binom(n_i, m),
    w(S) = d_H(S) + m - |S|

``N_S``, the number of m-subsets with support exactly S, is the
inclusion-exclusion sum of ``(-1)^{|S|-|T|} binom(n_T, m)`` over the subsets
T of S, where ``n_T`` counts the vertices of T's classes. Swapping the two
finite sums gives ``sum_t binom(t, m) * h[t]``, at most ``n + 1`` exact terms,
where the int64 histogram ``h[t]`` collects ``(-1)^{|S|-|T|} * w(S)`` over the
pairs with ``n_T = t``. A one-class support has ``d_H = 0``, so the per-class
terms come out of the same sum. The level-shared kernel
:func:`twindex.steiner.steiner_levels` answers every support on H's distance
matrix: distances are needed only in the (usually much smaller) reduced
graph, once per support. That is the entire speedup of the reduction.

H's distance matrix is built once per query; its row 0 also tells whether G
is connected. The kernel's int32 distances enter the histogram as int64
weights, scattered in one flat ``np.add.at``, and the final sum is taken in
exact Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .errors import BadSubsetSize, DisconnectedGraph, EmptyTerminalSet, NeedTwoParts
from .graph import is_connected
from .steiner import _INF, distance_matrix, steiner_distance, steiner_levels
from .twins import ClassKind, TwinDecomposition


@dataclass
class ReducedIndexStats:
    """Diagnostics from one reduced-formula evaluation.

    ``num_profiles`` counts the supports of two or more classes that hold at
    least ``m`` vertices (``N_S > 0``), the ones weighed into the histogram.
    ``dh_cache_hits`` is always 0, because each support is answered once.
    The two names are kept for the readers of ``index --json``.
    """

    num_classes: int = 0
    num_profiles: int = 0
    dh_cache_hits: int = 0


def steiner_distance_via_classes(d: TwinDecomposition, terminals: Iterable[int]) -> int:
    """Steiner distance from the twin classes the terminals meet.

    Within a single complete class the optimum is a star (``m - 1`` edges);
    within a single edgeless class every terminal must reach a common outside
    neighbor (``m`` edges, for ``m >= 2``); across classes it is the reduced
    graph's Steiner distance of the support's representatives plus one edge
    for each of the other ``m - |support|`` terminals.
    """
    ts = tuple(set(terminals))
    if not ts:
        raise EmptyTerminalSet("terminal set must be non-empty")
    for t in ts:
        d.source._check_vertex(t)
    if not _connected_via_reduced(d, is_connected(d.reduced)):
        raise DisconnectedGraph("class-based Steiner distance requires a connected graph")
    m = len(ts)
    if m == 1:
        return 0
    support = sorted({d.class_of(t) for t in ts})
    if len(support) == 1:
        kind = d.kinds[support[0]]
        return m if kind is ClassKind.EMPTY else m - 1
    return steiner_distance(d.reduced, support) + m - len(support)


def _connected_via_reduced(d: TwinDecomposition, h_connected: bool) -> bool:
    """Whether ``d.source`` is connected, given whether H is.

    One class is connected iff it is a single vertex or a clique; with two or
    more classes G is connected iff H is, since each class is joined
    completely to every class adjacent to it.
    """
    if d.k == 1:
        size = len(d.classes[0])
        return size <= 1 or d.kinds[0] is not ClassKind.EMPTY
    return h_connected


def _add_support_weights(hist: np.ndarray, held: np.ndarray, w: np.ndarray) -> None:
    """Add ``(-1)^{|S - T|} * w(S)`` into ``hist[n_T]`` for every subset T of every support S.

    ``held`` holds the class sizes of B supports, ``(B, s)``, and ``w`` their
    weights; ``sum_t C(t, m) * hist[t]`` then grows by ``sum_S N_S * w(S)``.
    """
    rows, s = held.shape
    counts = np.zeros((rows, 1 << s), dtype=np.int64)
    signs = np.full(1 << s, (-1) ** s, dtype=np.int64)
    for i in range(s):
        low = 1 << i
        counts[:, low : 2 * low] = counts[:, :low] + held[:, i : i + 1]
        signs[low : 2 * low] = -signs[:low]
    # One flat scatter: numpy's 1-D add.at is several times faster than a 2-D index.
    np.add.at(hist, counts.ravel(), (w[:, None] * signs).ravel())


def steiner_wiener_reduced_with_stats(
    d: TwinDecomposition, m: int
) -> tuple[int, ReducedIndexStats]:
    """Like :func:`steiner_wiener_reduced` but also returns diagnostics."""
    stats = ReducedIndexStats(num_classes=d.k)
    n = d.source.n
    if not 1 <= m <= n:
        raise BadSubsetSize(f"subset size {m} not in [1, {n}]")
    # Row 0 of H's distance matrix tells whether H is connected, so H is
    # walked once.
    dist = distance_matrix(d.reduced)
    if not _connected_via_reduced(d, bool(dist[0].max() < _INF)):
        raise DisconnectedGraph("index computation requires a connected graph")
    if m == 1:
        return 0, stats

    sizes = np.array(d.class_sizes(), dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)
    # A support holding fewer than m vertices has N_S = 0; so has every
    # support of a level whose s largest classes hold fewer.
    largest = np.sort(sizes)[::-1].cumsum()
    levels = steiner_levels(dist, range(d.k), min(m, d.k))
    for s, level in enumerate(levels, 1):
        if largest[s - 1] < m:
            continue
        for supports, dh in level:
            held = sizes[supports]
            keep = held.sum(axis=1) >= m
            stats.num_profiles += int(keep.sum()) if s > 1 else 0
            _add_support_weights(hist, held[keep], dh[keep] + m - s)
    edgeless = [size for size, kind in zip(sizes.tolist(), d.kinds) if kind is ClassKind.EMPTY]
    total = sum(comb(size, m) for size in edgeless)
    total += sum(comb(t, m) * int(hist[t]) for t in (np.flatnonzero(hist[m:]) + m).tolist())
    return total, stats


def steiner_wiener_reduced(d: TwinDecomposition, m: int) -> int:
    """m-Steiner Wiener index via the twin-class formula.

    Complete (and singleton) classes contribute ``(m-1) * binom(n_i, m)``,
    edgeless classes ``m * binom(n_i, m)``, and every multi-class support S
    ``N_S * (d_H(S) + m - |S|)``. Always equals
    :func:`twindex.steiner.steiner_wiener_naive` on the source graph.
    """
    value, _ = steiner_wiener_reduced_with_stats(d, m)
    return value


def wiener_reduced(d: TwinDecomposition) -> int:
    """Wiener index via twin classes: :func:`steiner_wiener_reduced` at ``m = 2``."""
    if d.source.n < 2:
        return 0
    return steiner_wiener_reduced(d, 2)


def sw_complete_multipartite(part_sizes: Iterable[int], m: int) -> int:
    """Closed form for ``SW_m`` of the complete multipartite graph.

    ``binom(n, m) * (m - 1) + sum_i binom(n_i, m)``: every m-subset spans a
    tree with ``m - 1`` edges except those inside one part, which need one
    extra vertex.
    """
    parts = tuple(part_sizes)
    if len(parts) < 2:
        raise NeedTwoParts(f"need at least two parts, got {len(parts)}")
    if any(p < 1 for p in parts):
        raise NeedTwoParts("every part must be non-empty")
    n = sum(parts)
    if not 1 <= m <= n:
        raise BadSubsetSize(f"subset size {m} not in [1, {n}]")
    if m == 1:
        return 0
    return comb(n, m) * (m - 1) + sum(comb(p, m) for p in parts)


def sw_completely_joined_bound(n: int, m: int) -> int:
    """Upper bound ``m * binom(n, m)`` on ``SW_m`` of any complete-base composition.

    Holds for every graph of the form ``K_p[G_1, ..., G_p]`` on ``n``
    vertices, independent of the factors' structure.
    """
    if not 1 <= m <= n:
        raise BadSubsetSize(f"subset size {m} not in [1, {n}]")
    return comb(n, m) * m
