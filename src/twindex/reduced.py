"""Wiener and m-Steiner Wiener indices through twin classes.

The Steiner distance of a subset depends only on how many vertices it takes
from each twin class, so the defining sum over all ``binom(n, m)`` subsets
collapses to a sum over *class profiles* ``(t_1, ..., t_k)`` weighted by
``prod_i binom(n_i, t_i)``. Distances are then needed only in the (usually
much smaller) reduced graph H, once per distinct support set: the supports
are grouped by size and each group is answered in batches by the Steiner
kernel :func:`twindex.steiner.steiner_distances` on H's distance matrix.
This grouping is the entire speedup of the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BadSubsetSize, DisconnectedGraph, EmptyTerminalSet, NeedTwoParts
from .graph import is_connected
from .steiner import distance_matrix, steiner_distance, steiner_distances
from .twins import ClassKind, TwinDecomposition


class ClassProfile(NamedTuple):
    """Per-class intersection counts of a vertex subset, plus their support."""

    counts: tuple[int, ...]
    support: tuple[int, ...]


@dataclass
class ReducedIndexStats:
    """Diagnostics from one reduced-formula evaluation."""

    num_classes: int = 0
    num_profiles: int = 0
    dh_cache_hits: int = 0


def profiles(sizes: Iterable[int], m: int) -> Iterator[ClassProfile]:
    """All vectors ``t`` with ``0 <= t_i <= sizes[i]`` and ``sum(t) == m``.

    Emitted in descending lexicographic order, each exactly once. The number
    of m-subsets realizing a profile is ``prod_i binom(sizes[i], t_i)``, and
    those weights sum to ``binom(sum(sizes), m)`` over the whole stream.
    """
    sizes = tuple(sizes)
    total = sum(sizes)
    if m < 1 or m > total:
        raise BadSubsetSize(f"subset size {m} not in [1, {total}]")
    suffix = [0] * (len(sizes) + 1)
    for i in range(len(sizes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(sizes):
            yield prefix
            return
        hi = min(sizes[i], remaining)
        lo = max(0, remaining - suffix[i + 1])
        for t in range(hi, lo - 1, -1):
            yield from rec(i + 1, remaining - t, prefix + (t,))

    for counts in rec(0, m, ()):
        support = tuple(i for i, t in enumerate(counts) if t > 0)
        yield ClassProfile(counts, support)


def _profile_of(d: TwinDecomposition, vertices: Iterable[int]) -> ClassProfile:
    counts = [0] * d.k
    for v in vertices:
        counts[d.class_of(v)] += 1
    return ClassProfile(tuple(counts), tuple(i for i, t in enumerate(counts) if t > 0))


def steiner_distance_via_classes(d: TwinDecomposition, terminals: Iterable[int]) -> int:
    """Steiner distance from the class profile alone.

    Within a single complete class the optimum is a star (``m - 1`` edges);
    within a single edgeless class every terminal must reach a common outside
    neighbor (``m`` edges, for ``m >= 2``); across classes it is the reduced
    graph's Steiner distance of the support's representatives plus
    ``t_i - 1`` extra edges per intersected class.
    """
    ts = tuple(set(terminals))
    if not ts:
        raise EmptyTerminalSet("terminal set must be non-empty")
    for t in ts:
        d.source._check_vertex(t)
    if not is_connected(d.source):
        raise DisconnectedGraph("class-based Steiner distance requires a connected graph")
    m = len(ts)
    if m == 1:
        return 0
    counts, support = _profile_of(d, ts)
    if len(support) == 1:
        kind = d.kinds[support[0]]
        return m if kind is ClassKind.EMPTY else m - 1
    base = steiner_distance(d.reduced, support)
    return base + sum(counts[i] - 1 for i in support)


def _connected_via_reduced(d: TwinDecomposition) -> bool:
    if d.k == 1:
        size = len(d.classes[0])
        return size <= 1 or d.kinds[0] is not ClassKind.EMPTY
    return is_connected(d.reduced)


def _reduced_core(d: TwinDecomposition, m: int) -> tuple[int, ReducedIndexStats]:
    stats = ReducedIndexStats(num_classes=d.k)
    n = d.source.n
    if not 1 <= m <= n:
        raise BadSubsetSize(f"subset size {m} not in [1, {n}]")
    if not _connected_via_reduced(d):
        raise DisconnectedGraph("index computation requires a connected graph")
    if m == 1:
        return 0, stats

    sizes = d.class_sizes()
    total = 0
    for size, kind in zip(sizes, d.kinds):
        if kind is ClassKind.EMPTY:
            total += m * comb(size, m)
        else:
            total += (m - 1) * comb(size, m)

    dist_h = distance_matrix(d.reduced)
    multi = [p for p in profiles(sizes, m) if len(p.support) > 1]
    stats.num_profiles = len(multi)
    by_size: dict[int, set[tuple[int, ...]]] = {}
    for profile in multi:
        by_size.setdefault(len(profile.support), set()).add(profile.support)
    dh: dict[tuple[int, ...], int] = {}
    for group in by_size.values():
        supports = list(group)
        dh.update(zip(supports, steiner_distances(dist_h, np.array(supports)).tolist()))
    stats.dh_cache_hits = len(multi) - len(dh)

    for counts, support in multi:
        weight = 1
        for i in support:
            weight *= comb(sizes[i], counts[i])
        # The t_i - 1 extra edges per intersected class sum to m - |support|.
        total += weight * (dh[support] + m - len(support))
    return total, stats


def steiner_wiener_reduced(d: TwinDecomposition, m: int) -> int:
    """m-Steiner Wiener index via the twin-class formula.

    Complete (and singleton) classes contribute ``(m-1) * binom(n_i, m)``,
    edgeless classes ``m * binom(n_i, m)``, and every multi-class profile
    its weighted ``d_H(support) + sum(t_i - 1)`` term. Always equals
    :func:`twindex.steiner.steiner_wiener_naive` on the source graph.
    """
    value, _ = _reduced_core(d, m)
    return value


def steiner_wiener_reduced_with_stats(
    d: TwinDecomposition, m: int
) -> tuple[int, ReducedIndexStats]:
    """Like :func:`steiner_wiener_reduced` but also returns diagnostics."""
    return _reduced_core(d, m)


def wiener_reduced(d: TwinDecomposition) -> int:
    """Wiener index via twin classes (the ``m = 2`` specialization)."""
    if not _connected_via_reduced(d):
        raise DisconnectedGraph("index computation requires a connected graph")
    sizes = d.class_sizes()
    total = 0
    for size, kind in zip(sizes, d.kinds):
        pairs = comb(size, 2)
        total += 2 * pairs if kind is ClassKind.EMPTY else pairs
    dist_h = distance_matrix(d.reduced)
    for i in range(d.k):
        for j in range(i + 1, d.k):
            total += sizes[i] * sizes[j] * int(dist_h[i, j])
    return total


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
