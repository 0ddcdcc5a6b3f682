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
T of S, where ``n_T`` counts the vertices of T's classes. Since the ``N_S``
add up to ``binom(n, m)``, and swapping the two finite sums moves the signs
onto the weights::

    SW_m = m * binom(n, m) + sum_t binom(t, m) * h[t] + sum_{i edgeless} binom(n_i, m)

where the int64 histogram ``h[t]`` sums ``û(T)``, the superset Möbius
transform of ``u(S) = d_H(S) - |S|``, over the class sets with ``n_T = t``.
``u`` does not depend on m. The sum has at most ``n + 1`` terms and is
taken in exact Python integers.

Two engines fill ``h``; :func:`_transform_chosen` picks one per query from
``(k, m)``. Each reads only the class sizes and H, as the reduction theorem
does, and returns ``h`` with the number of supports it weighed:

* The connected-set transform answers all ``2^k`` class sets at once in
  ``O(k * 2^k)``: a connectivity indicator over the class sets, a
  superset-min that turns it into every ``d_H(S)``, and the Möbius
  transform (Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets
  Möbius: fast subset convolution", STOC 2007). It never builds H's
  distance matrix. It wins at small k and large m.
* The level-shared kernel :func:`twindex.steiner.steiner_levels` answers
  the supports of two to ``m`` classes from H's distance matrix, and each
  support's signed subset sums go into ``h``; a one-class support,
  ``d_H = 0``, is added in closed form; supports with ``N_S = 0`` are
  left out, which leaves the sum unchanged. A support that holds exactly
  ``m`` vertices has ``N_S = 1``: every proper subset T holds fewer, so
  ``binom(n_T, m) = 0``, and its weight goes to ``h[m]`` alone. On a
  twin-free graph every support kept is such a one. Every level of the
  kernel comes in factored chunks, rows R and how many of them each
  member c extends, so ``n_S`` is one class-size sum per R plus c's size,
  and class sizes are gathered per support only where ``n_S > m``. The
  kernel wins at large k and small m, as on twin-free graphs, and reports
  progress after each top-level chunk.

Neither engine runs until :func:`twindex.graph.is_connected` has found H
connected. Either way distances are needed only in the (usually much
smaller) reduced graph, which is the entire speedup of the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

import numpy as np

from .errors import BadSubsetSize, DisconnectedGraph, NeedTwoParts
from .graph import is_connected
from .steiner import DP_BYTE_BUDGET, distance_matrix, steiner_levels
from .steiner import steiner_distance  # noqa: F401  -- not called; perfbench/tracing.py patches it
from .twins import ClassKind, TwinDecomposition

# Peak bytes per class set of the connected-set transform, measured with
# tracemalloc (the ``_connected_sets`` pass is the largest).
_TRANSFORM_SET_BYTES = 32
# Kernel merges that one transform step costs, and the kernel's fixed numpy
# cost, in merges, per query and per level from 3 on (each builds table rows
# or merges). Fitted on timed queries (CHANGES.md).
_MERGES_PER_STEP = 5 / 3
_QUERY_MERGES = 1 << 10
_LEVEL_MERGES = 1 << 16
# Least number of values that one ``add.at`` of ``_add_support_weights``
# scatters, unless the supports have fewer subsets in all.
_SCATTER_SPAN = 1 << 12


@dataclass
class ReducedIndexStats:
    """Diagnostics from one reduced-formula evaluation.

    ``num_profiles`` counts the supports of two to ``m`` classes that hold at
    least ``m`` vertices (``N_S > 0``); both engines return the same count.
    ``dh_cache_hits`` is always 0, because each support is answered once.
    The two names are kept for the readers of ``index --json``.
    """

    num_classes: int = 0
    num_profiles: int = 0
    dh_cache_hits: int = 0


def _transform_chosen(k: int, m: int) -> bool:
    """Whether the connected-set transform answers ``SW_m`` over ``k`` classes.

    Its work, ``k * 2^k`` steps, is weighed against the kernel's merges,
    ``sum_{s=2}^{min(m, k)} C(k, s) * 2^(s-1) * k``, plus the kernel's
    fixed costs, which decide small queries. The transform counts only
    while its arrays fit ``DP_BYTE_BUDGET``, which holds up to k = 21.
    """
    if _TRANSFORM_SET_BYTES << k > DP_BYTE_BUDGET:
        return False
    top = min(m, k)
    merges = sum(k * comb(k, s) << (s - 1) for s in range(2, top + 1))
    merges += _QUERY_MERGES + _LEVEL_MERGES * max(0, top - 2)
    return _MERGES_PER_STEP * (k << k) <= merges


def _add_support_weights(hist: np.ndarray, held: np.ndarray, w: np.ndarray) -> None:
    """Add ``(-1)^{|S - T|} * w(S)`` into ``hist[n_T]`` for every subset T of every support S.

    ``held`` holds the class sizes of B supports, ``(B, s)``, and ``w`` their
    weights; ``sum_t C(t, m) * hist[t]`` then grows by ``sum_S N_S * w(S)``.
    The subsets of the first ``low`` classes are laid out side by side, as
    ``(B, 2^low)`` int64 sums and signed weights with ``B * 2^low`` at most
    ``_SCATTER_SPAN``. The subsets of the other classes come in Gray-code
    order: each step adds or removes one class in every sum, which flips
    the sign, and is one 1-D ``add.at``. So the arrays take at most 24 bytes
    a support or ``24 * _SCATTER_SPAN`` bytes, and every ``add.at`` spans
    at least half of ``_SCATTER_SPAN`` values or all of them.
    """
    rows, s = held.shape
    low = min(s, max(0, (_SCATTER_SPAN // max(rows, 1)).bit_length() - 1))
    n_t = np.zeros((rows, 1 << low), dtype=np.int64)
    signs = np.full(1 << low, (-1) ** low, dtype=np.int64)
    for i in range(low):
        b = 1 << i
        np.add(n_t[:, :b], held[:, i : i + 1], out=n_t[:, b : 2 * b])
        signs[b : 2 * b] = -signs[:b]
    plus = w[:, None] * signs
    signed = (plus.ravel(), -plus.ravel())
    for step in range(1 << (s - low)):
        if step:
            i = (step & -step).bit_length() - 1
            column = held[:, low + i : low + i + 1]
            if (step ^ step >> 1) >> i & 1:
                n_t += column
            else:
                n_t -= column
        np.add.at(hist, n_t.ravel(), signed[(s - low - step) & 1])


def _weigh_chunk(hist: np.ndarray, sizes: np.ndarray, m: int, chunk: tuple) -> int:
    """Add one kernel chunk's supports into ``hist``; return how many have ``N_S > 0``.

    ``chunk`` is a factored ``(rows, counts, d_H)`` of
    :func:`twindex.steiner.steiner_levels`: member c extends the first
    ``counts[c]`` rows R in turn, so ``n_S`` is one class-size sum per R plus
    c's size. A support that holds exactly ``m`` vertices has ``N_S = 1``:
    every proper subset holds fewer, so only ``hist[m]`` gains ``u(S)``. A
    larger support adds ``(-1)^{|S - T|} * u(S)`` at ``n_T`` for every
    T ⊆ S (:func:`_add_support_weights`), and only these supports' class
    sizes are gathered. The others have ``N_S = 0``.
    """
    rows, counts, dh = chunk
    s = rows.shape[1] + 1
    # Support i is rows[at[i]] plus one member, in the order d_H lists them.
    at = np.arange(len(dh)) - np.repeat(counts.cumsum() - counts, counts)
    # One gather per column, the columns summed in Python: numpy's sum along
    # a short last axis is slow.
    columns = sizes[rows.T]
    n_s = sum(columns)[at] + np.repeat(sizes, counts)
    exact = n_s == m
    more = n_s > m
    n_exact, n_more = int(np.count_nonzero(exact)), int(np.count_nonzero(more))
    hist[m] += int(dh.sum(where=exact)) - s * n_exact
    if n_more:
        # By column too, into a column-major (n_more, s): numpy gathers one
        # column faster than whole rows.
        held = np.empty((s, n_more), dtype=sizes.dtype)
        np.take(columns, at[more], axis=1, out=held[:-1])
        held[-1] = np.repeat(sizes, counts)[more]
        _add_support_weights(hist, held.T, dh[more] - s)
    return n_exact + n_more


def _kernel_histogram(
    sizes: np.ndarray,
    dist: np.ndarray,
    m: int,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[np.ndarray, int]:
    """The weight histogram ``h`` and the support count, from the kernel's supports.

    ``sizes`` holds the class sizes and ``dist`` H's distance matrix. A
    support ``{i}`` of one class has ``d_H = 0``, so ``u = -1`` at
    ``n_T = n_i``; its ``T = ∅`` term lands at ``t = 0``, which the sum
    never reads, as it reads no ``t < m``. So every one-class support is one
    scatter into ``h``, in closed form. Every support S of two to ``m`` classes that
    holds at least ``m`` vertices is one ``d_H`` from
    :func:`twindex.steiner.steiner_levels`, weighed by :func:`_weigh_chunk`.
    ``progress(done, total)`` is called after each top-level chunk, counting
    the top level's supports.
    """
    k = len(sizes)
    top = min(m, k)
    hist = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
    np.subtract.at(hist, sizes, 1)
    supports = done = 0
    total = comb(k, top)
    # A support holding fewer than m vertices has N_S = 0; so has every
    # support of a level whose s largest classes hold fewer.
    largest = np.sort(sizes)[::-1].cumsum()
    for s, level in enumerate(steiner_levels(dist, k, top), 2):
        if largest[s - 1] < m:
            continue
        for chunk in level:
            supports += _weigh_chunk(hist, sizes, m, chunk)
            if s == top and progress is not None:
                done += len(chunk[-1])
                progress(done, total)
    return hist, supports


def _connected_sets(masks: list[int]) -> np.ndarray:
    """Whether H is connected on each class set W, as a bool array indexed by W's bitmask.

    ``nbr[X]``, the OR of the members' neighbour masks, is built by
    doubling. Each W grows from its lowest member by
    ``reach = (nbr[reach] & W) | reach`` until it stops; W is connected iff
    it reaches all of W. Only the sets that grew are gathered again.
    """
    nbr = np.zeros(1 << len(masks), dtype=np.int32)
    for i, mask in enumerate(masks):
        low = 1 << i
        np.bitwise_or(nbr[:low], mask, out=nbr[low : 2 * low])
    sets = np.arange(len(nbr), dtype=np.int32)
    reach = sets & -sets
    growing = sets
    while len(growing):
        old = reach[growing]
        grown = nbr[old]
        grown &= growing
        grown |= old
        moved = grown != old
        growing = growing[moved]
        reach[growing] = grown[moved]
    return reach == sets


def _transform_histogram(
    sizes: np.ndarray, connected: np.ndarray, m: int
) -> tuple[np.ndarray, int]:
    """``h`` and the support count from every class set at once.

    ``h[t]`` sums ``û(T)`` over the class sets with ``n_T = t``, where
    ``sizes`` holds the class sizes and ``connected`` is
    :func:`_connected_sets` of H. ``d_H(S)`` is the least ``|W| - 1`` over
    the connected ``W ⊇ S``: a superset-min over ``|W| - 1`` on the
    connected sets. ``û`` is the superset Möbius transform of
    ``u(S) = d_H(S) - |S|``. Distances are int8 (``d_H < k``) and ``û``
    int32 (``|û(T)| <= k * 2^k``); the histogram is int64.
    """
    k = len(sizes)
    size = np.zeros(1 << k, dtype=np.int8)
    n_t = np.zeros(1 << k, dtype=np.int32)
    for i, n_i in enumerate(sizes.tolist()):
        low = 1 << i
        np.add(size[:low], 1, out=size[low : 2 * low])
        np.add(n_t[:low], n_i, out=n_t[low : 2 * low])
    supports = int(np.count_nonzero((size >= 2) & (size <= m) & (n_t >= m)))
    dh = np.where(connected, size - 1, k).astype(np.int8)
    for i in range(k):
        pair = dh.reshape(-1, 2, 1 << i)
        np.minimum(pair[:, 0], pair[:, 1], out=pair[:, 0])
    u = np.subtract(dh, size, dtype=np.int32)
    for i in range(k):
        pair = u.reshape(-1, 2, 1 << i)
        pair[:, 0] -= pair[:, 1]
    hist = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
    np.add.at(hist, n_t, u.astype(np.int64))
    return hist, supports


def steiner_wiener_reduced_with_stats(
    d: TwinDecomposition, m: int, *, progress: Callable[[int, int], None] | None = None
) -> tuple[int, ReducedIndexStats]:
    """Like :func:`steiner_wiener_reduced` but also returns diagnostics.

    When the kernel answers, ``progress(done, total)`` is called after each
    chunk of its top level, counting the ``C(k, min(m, k))`` supports there;
    the transform answers at once and reports nothing.
    """
    n = d.source.n
    if not 1 <= m <= n:
        raise BadSubsetSize(f"subset size {m} not in [1, {n}]")
    # One class is connected iff it is a single vertex or a clique; more are
    # iff H is, as each class is joined completely to every adjacent class.
    if not is_connected(d.reduced) or d.kinds == (ClassKind.EMPTY,):
        raise DisconnectedGraph("index computation requires a connected graph")
    if m == 1:
        return 0, ReducedIndexStats(num_classes=d.k)
    sizes = np.array(d.class_sizes(), dtype=np.int64)
    if _transform_chosen(d.k, m):
        hist, supports = _transform_histogram(sizes, _connected_sets(d.reduced.masks), m)
    else:
        hist, supports = _kernel_histogram(sizes, distance_matrix(d.reduced), m, progress)
    edgeless = [size for size, kind in zip(sizes.tolist(), d.kinds) if kind is ClassKind.EMPTY]
    total = m * comb(n, m) + sum(comb(size, m) for size in edgeless)
    total += sum(comb(t, m) * int(hist[t]) for t in (np.flatnonzero(hist[m:]) + m).tolist())
    return total, ReducedIndexStats(num_classes=d.k, num_profiles=supports)


def steiner_wiener_reduced(d: TwinDecomposition, m: int) -> int:
    """m-Steiner Wiener index via the twin-class formula.

    Complete (and singleton) classes contribute ``(m-1) * binom(n_i, m)``,
    edgeless classes ``m * binom(n_i, m)``, and every multi-class support S
    ``N_S * (d_H(S) + m - |S|)``. Always equals
    :func:`twindex.steiner.steiner_wiener_naive` on the source graph.
    """
    value, _ = steiner_wiener_reduced_with_stats(d, m)
    return value


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
