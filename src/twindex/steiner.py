"""Exact Steiner distances and brute-force index computation.

``distance_matrix`` is the package's one all-pairs routine: Seidel's
algorithm, which squares the boolean matrix of closed neighbourhoods until
every component is a clique and then recovers each distance bit by bit with
one matrix product a level. The products run in BLAS on float copies of
boolean levels, exact because no entry reaches ``n^2``; the levels are kept
as bool. The result is an int32 matrix, ``_INF`` where no path exists.

``steiner_levels`` is the one Steiner kernel: Dreyfus-Wagner tables shared
by every subset of the first ``size`` vertices up to a given size, under a
byte budget checked before allocation. It indexes only by position and colex
rank: level j of the DP is one array read at the colex rank of a j-subset,
and level 1 is the distance matrix itself. It streams the sets of two or
more members, level by level; a one-member set costs 0, which each caller
answers itself. Every level comes in one chunk format, factored: its rows R
of one member fewer, how many leading rows each member c extends, and the
distances of ``R | {c}``, with no position array per subset. The DP step is
one function, ``_extend``: the minimum over anchors v of a merged row at v
plus ``d(c, v)``, for a block of members c at once. A table level extends
by every anchor; the top level merges each R once and extends it by every
later member (Dreyfus and Wagner, "The Steiner problem in graphs",
*Networks* 1, 1971). Every level yields one member-major array, from
``_extend`` or sliced from the table under it, masked to the rows each
member extends. Every gather reads contiguous rows:
binomials are stored one row per level, a chunk's submask ranks one row per
submask. None of these indices depends on the graph, only on the universe
size and the level, so a level whose rows fit in one chunk has a plan, built
once per shape and kept: its rows, ``counts``, the mask of the rows each
member extends and, at a merged top or a table level, its submask ranks;
the binomials are kept per ``(top, size)``. The plans live in one
process-wide LRU whose read-only arrays total at most ``CHUNK_BYTES``,
memory outside each query's ``DP_BYTE_BUDGET``. A level of several chunks
streams chunk by chunk through the same builder and is never kept.
``steiner_distance`` reorders the distance matrix so that the terminals come
first and reads its top level over them, ``steiner_wiener_naive`` sums the
distances of level m over all vertices, and the twin-class reduction reads
every level over the reduced graph.
``steiner_distance_bruteforce`` is the independent oracle the kernel and the
twin-class reduction formula are validated against: the least ``|W| - 1``
over the vertex sets ``W`` that hold the terminals and induce a connected
subgraph. It shares nothing with Dreyfus-Wagner or the twin reduction. All
index values are exact Python integers.

The kernel runs in the narrowest integer type its sums fit, chosen once per
call from a bound it can prove (:func:`_state_dtype`). Inside a universe that
lies in one component of n vertices, every entry it stores is the Steiner
distance of at most ``top`` vertices, so at most ``min(n - 1, (top - 1) * D)``
for the largest hop count D, and every sum it forms has at most three terms,
two split parts and one distance row. So ``B = 3 * min(n - 1, (top - 1) * D)``
bounds every value: the state is int8 up to ``B = 127``, int16 up to 32767
and int32 beyond. A distance matrix that holds an
``_INF`` entry, beside a far component, keeps int32: ``_INF = 2^29``, every
table entry is then at most ``_INF + 2n`` (an anchor outside the component
costs ``_INF`` plus the Steiner distance of the subset), and a sum of three
stays below ``3 * _INF + 4n < 2^31`` for every ``n < 2^27``. The byte budget
still charges the 4 bytes of int32 an entry, whatever the dtype: the budget
is what bounds a query's time until there is a time budget, and charging the
narrow itemsize would admit naive queries that run for minutes.
"""

from __future__ import annotations

from collections import OrderedDict
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
from .graph import Graph, induces_connected, is_connected

BRUTE_FORCE_VERTEX_CAP = 16
# Largest kernel table plus one chunk's working set (see ``steiner_levels``);
# checked before any DP state is allocated.
DP_BYTE_BUDGET = 1 << 26
# Working bytes per kernel chunk. Small enough that memory stays flat, large
# enough that each numpy call spans many rows.
CHUNK_BYTES = 1 << 20

# Scratch that numpy's iterators hold while one operation runs: at most two
# buffers of ``getbufsize()`` int64 (measured with tracemalloc).
_BUFFER_BYTES = 16 * np.getbufsize()
# The dtype of distances, and of DP state past the narrow bounds; its itemsize
# is what the budget charges per entry, whatever the kernel runs in. Submask
# ranks stay int64 (8 bytes).
_DIST = np.dtype(np.int32)
# Larger than any hop count; three of it plus a few hop counts stay below
# 2^31 (see the module docstring).
_INF = 1 << 29
# Index plans of the levels that fit in one chunk, by shape, least recently
# used first. Their arrays are read-only and total at most ``CHUNK_BYTES``
# (:func:`_keep`).
_PLANS: OrderedDict[tuple, tuple[np.ndarray, ...]] = OrderedDict()


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop counts as an int32 array with ``_INF`` for unreachable.

    Seidel's algorithm ("On the all-pairs-shortest-path problem in unweighted
    undirected graphs", *JCSS* 51, 1995) over closed neighbourhoods. Level i
    is the boolean matrix ``R_i`` of pairs at most ``2^i`` apart:
    ``R_0 = A | I`` and ``R_{i+1} = R_i @ R_i > 0``, squared until no pair is
    added; every component then closes to a clique. From ``T = R_L - I``
    each level down doubles T and takes one off the pairs ``(u, v)`` that
    are an odd number of ``R_i`` steps apart: those where ``(R_i @ T)[u, v]``,
    the sum of T over u's closed neighbourhood in ``R_i``, falls below
    ``T[u, v] * |N[u]|``. The test never holds on the diagonal, where T is
    0, nor between components. Pairs outside ``R_L`` are ``_INF``.

    Exact: every product entry is a sum of at most n integers each at most
    n, so below ``n^2``, and the products run in float32 while ``n^2 < 2^24``
    and in float64 (exact below ``2^53``) past that. The level stack is kept
    as bool, one byte an entry; only the level in flight is a float copy.
    """
    n = g.n
    ftype = np.float32 if n * n < 1 << 24 else np.float64
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in g.masks), np.uint8)
    reach = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
    reach.flat[:: n + 1] = True
    levels = [reach]
    count = np.count_nonzero(reach)
    while count < n * n:
        square = reach.astype(ftype)
        reach = square @ square > 0
        grown = np.count_nonzero(reach)
        if grown == count:
            break
        levels.append(reach)
        count = grown
    closure = levels.pop()
    dist = closure.astype(ftype)
    dist.flat[:: n + 1] = 0
    while levels:
        level = levels.pop()
        degree = level.sum(axis=1, dtype=ftype)
        odd = level.astype(ftype) @ dist < dist * degree[:, None]
        dist *= 2
        dist -= odd
    out = dist.astype(_DIST)
    out[~closure] = _INF
    return out


def _subsets(size: int, s: int, rows: int, binom: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Every ``s``-subset of ``range(size)`` in colex order, as ``(lo, pos)`` chunks.

    ``pos`` is a ``(rows, s)`` array of ascending members whose colex ranks
    run from ``lo``. Unranked: member ``j`` is the largest ``c`` with
    ``C(c, j + 1)`` at most what remains of the rank, found by one
    ``searchsorted`` on the contiguous row ``binom[j + 1]`` of the
    level-major binomials (``binom[j, c] = C(c, j)``), and the first member
    is the remainder.
    """
    total = comb(size, s)
    for lo in range(0, total, rows):
        rank = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        pos = np.empty((len(rank), s), dtype=np.intp)
        for j in range(s, 1, -1):
            pos[:, j - 1] = member = binom[j].searchsorted(rank, side="right") - 1
            rank -= binom[j, member]
        pos[:, 0] = rank
        yield lo, pos


def _keep(key: tuple, plan: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Make ``plan``'s arrays read-only and keep it under ``key``; return it.

    The least recently used plans go first, until every kept plan's bytes
    fit in ``CHUNK_BYTES``; a plan larger than that is returned unkept.
    """
    for a in plan:
        a.flags.writeable = False
    nbytes = sum(a.nbytes for a in plan)
    if nbytes <= CHUNK_BYTES:
        held = sum(a.nbytes for kept in _PLANS.values() for a in kept)
        while held + nbytes > CHUNK_BYTES:
            held -= sum(a.nbytes for a in _PLANS.popitem(last=False)[1])
        _PLANS[key] = plan
    return plan


def _kept(key: tuple) -> tuple[np.ndarray, ...] | None:
    """The plan kept under ``key``, now the most recently used, or None."""
    plan = _PLANS.get(key)
    if plan is not None:
        _PLANS.move_to_end(key)
    return plan


def _binomials(top: int, size: int) -> np.ndarray:
    """Level-major binomials ``binom[j, c] = C(c, j)`` for ``j <= top`` and ``c < size``, kept per shape."""
    key = ("binom", top, size)
    plan = _kept(key)
    if plan is None:
        binom = np.zeros((top + 1, size), dtype=np.int64)
        binom[0] = 1
        for j in range(1, top + 1):
            binom[j, 1:] = binom[j - 1, :-1].cumsum()
        plan = _keep(key, (binom,))
    return plan[0]


def _planned(
    key: tuple,
    size: int,
    s: int,
    rows: int,
    binom: np.ndarray,
    build: Callable[[np.ndarray], tuple[np.ndarray, ...]],
) -> Iterator[tuple[int, tuple[np.ndarray, ...]]]:
    """``(lo, build(pos))`` for every chunk ``(lo, pos)`` of :func:`_subsets`.

    A level whose ``C(size, s)`` subsets fit in one chunk of ``rows`` is
    built once per ``key`` and then read from the kept plans. It is kept
    only when its one chunk holds every subset, so a short chunk is never
    read as a whole level. Whether the level fits is decided on every call,
    from the ``rows`` the caller computed under the current ``CHUNK_BYTES``;
    a level of several chunks is built chunk by chunk and never kept.
    """
    total = comb(size, s)
    whole = rows >= total
    plan = _kept(key) if whole else None
    if plan is not None:
        yield 0, plan
        return
    for lo, pos in _subsets(size, s, rows, binom):
        if whole and len(pos) == total:
            yield lo, _keep(key, build(pos))
        else:
            yield lo, build(pos)


def _level_bytes(n: int, size: int, s: int) -> tuple[int, int, int]:
    """Working bytes of a chunk of level ``s``: its fixed part, each row's, and each output's.

    A row is an ``(s - 1)``-subset R of ``range(size - 1)``. With largest
    member ``b`` it merges once or reads its stored row (:func:`_row_bytes`)
    and yields the ``size - 1 - b`` subsets ``R | {c}``. Each of those is
    charged ``s`` positions and a distance, the same again for the previous
    chunk, and 8 bytes more. The factored chunk keeps only the distance; the
    rest bounds what a reader builds per subset beside the previous chunk,
    such as the row and ``n_S`` arrays of ``reduced._weigh_chunk``. The fixed
    part holds, per member c, ``s + 1`` binomials, c's entries of
    ``extended`` and ``counts`` (int64), c's count in a chunk's Python list
    (a slot and an int, 40 bytes), and 16 bytes to spare. The member-major
    array a chunk's distances are read from, at most one int32 per member a
    row, and its boolean mask take the place of the anchor rows that
    :func:`_extend` has freed by then; below the top the array is a view of
    the table.
    """
    fixed = size * (8 * (s + 1) + 2 * 8 + 40 + 16)
    return fixed, _row_bytes(n, s), 2 * (8 * s + _DIST.itemsize) + 8


def _level_rows(n: int, size: int, s: int) -> int:
    """Rows per chunk of level ``s``: as many of its first rows as fit in ``CHUNK_BYTES``, at least one.

    The ``C(b, s - 2)`` rows whose largest member is ``b`` each yield
    ``size - 1 - b`` subsets. Colex order never raises that count, so the
    first rows are the level's heaviest run, and every chunk takes as many.
    """
    fixed, row, out = _level_bytes(n, size, s)
    budget = CHUNK_BYTES - _BUFFER_BYTES - fixed
    rows = 0
    for b in range(s - 2, size - 1):
        group, each = comb(b, s - 2), row + out * (size - 1 - b)
        if group * each > budget:
            return max(1, rows + budget // each)
        rows += group
        budget -= group * each
    return rows


def _row_bytes(n: int, s: int, relax: bool = False) -> int:
    """Peak working bytes of one merged row on ``n`` anchors, before any output.

    Every row keeps ``2s + 4`` int64: its positions and the previous chunk's,
    which the loop still holds, ``_subsets``' rank and member, and a last
    member. A table row of ``s`` members (``relax``) adds ``2^s`` ranks,
    then twice their bytes or, if more, what :func:`_extend` holds for it in
    its one block: its ``(n, n)`` share of the sum, the merged row or its
    anchor-major copy, and its ``n`` minima. A top-level row is an
    ``(s - 1)``-subset R: it adds ``2^(s-1)`` ranks and at most as many
    gather temporaries or ``_merge``'s three anchor rows, then two anchor
    rows more. In the place of those five, ``_extend`` holds the merged row
    or its copy, the row's share of a block's sum (at most ``B * n``
    entries) and its column of the member-major output: one row to spare.
    Where a call's arguments live until it returns (Python 3.10), the merged
    row stays beside its copy: in that spare row at the top, one anchor row
    over the charge in a table row. The subsets ``R | {c}`` a row yields are
    charged apart (:func:`_level_bytes`).
    """
    if relax:
        ranks = 8 << s
        work = max(2 * ranks, _DIST.itemsize * (n * n + 2 * n))
    else:
        ranks = 4 << s
        work = max(ranks, _DIST.itemsize * 3 * n) + _DIST.itemsize * 2 * n
    return 8 * (2 * s + 4) + ranks + work


def _chunk_rows(row_bytes: int) -> int:
    """Rows per chunk: as many rows of ``row_bytes`` as fit beside numpy's buffers."""
    return max(1, (CHUNK_BYTES - _BUFFER_BYTES) // row_bytes)


def _submask_rows(pos: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colex rank of submask ``q`` of each ascending row of ``pos``, submask-major, ``(2^r, B)``.

    The rank of a submask is ``sum_j C(p_j, j + 1)`` over its ascending
    members ``p_j``, so a single member's is the member itself. Bit ``i``
    joins every submask of the lower bits as their largest member, so step
    ``i`` fills rows ``[2^i, 2^(i+1))``: it gathers ``C(p_i, j + 1)`` for the
    ``i + 1`` member counts j of the lower submasks, each from a contiguous
    binomial row, and copies one of those rows per submask. Row ``q`` is
    contiguous, so :func:`_merge` reads each split part's ranks in one run.
    """
    rows, r = pos.shape
    ranks = np.zeros((1 << r, rows), dtype=np.int64)
    # Members of each submask, by doubling.
    count = np.zeros(1 << r, dtype=np.intp)
    for i in range(r):
        low = 1 << i
        joined = binom[1 : i + 2].take(pos[:, i], axis=1)
        np.add(ranks[:low], joined.take(count[:low], axis=0), out=ranks[low : 2 * low])
        count[low : 2 * low] = count[:low] + 1
    return ranks


def _merge(tables: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Cheapest split of each row's full mask at every anchor, each split once (holding bit 0).

    ``idx`` holds the submask-major ranks of :func:`_submask_rows`. A part
    ``q`` of ``j`` members is read from ``tables[j]`` at the ranks in the
    contiguous row ``idx[q]``, one table row per merged row.
    """
    full = idx.shape[0] - 1
    def row(q: int) -> np.ndarray:
        return tables[q.bit_count()].take(idx[q], axis=0)

    best = row(1)
    best += row(full ^ 1)
    for part in range(3, full, 2):
        pair = row(part)
        pair += row(full ^ part)
        np.minimum(best, pair, out=best)
    return best


def _state_dtype(bound: int) -> np.dtype:
    """The narrowest of int8, int16 and int32 that holds every integer in ``[0, bound]``."""
    for dtype in (np.int8, np.int16):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return _DIST


def _extend(merged: np.ndarray, dist: np.ndarray, counts: np.ndarray, first: int, cap: int) -> np.ndarray:
    """The Dreyfus-Wagner step: ``min_v merged[r, v] + dist[c, v]``, member-major.

    ``merged`` holds B rows over the ``n`` anchors, and member c extends its
    first ``counts[c]`` rows, a count that never falls as c grows. Returns
    a ``(len(counts) - first, B)`` array whose entry ``[c - first, r]`` is
    set for every ``r < counts[c]``; the others are left unset. Members
    ``c0 .. c1 - 1`` form one block while ``(c1 + 1 - c0) * counts[c1]``
    is at most ``cap``, and a block is one sum over the ``counts[c1 - 1]``
    rows it needs and one minimum over the anchors. With at least as many
    rows as anchors the sum is anchor-major, over a copy of ``merged.T``,
    so that minimum is ``n`` elementwise steps over runs of rows; with
    fewer, as on long paths, it is row-major and runs along each row. The
    output and every sum take ``dist``'s dtype, the kernel's, which holds
    every such sum (module docstring).
    """
    rows, n = merged.shape
    major = rows >= n
    if major:
        merged = merged.T.copy()
    per = counts.tolist()
    size = len(per)
    out = np.empty((size - first, rows), dtype=dist.dtype)
    c0 = first
    while c0 < size:
        c1 = c0 + 1
        while c1 < size and (c1 + 1 - c0) * per[c1] <= cap:
            c1 += 1
        p = per[c1 - 1]
        block = out[c0 - first : c1 - first, :p]
        if major:
            np.minimum.reduce(merged[:, None, :p] + dist[c0:c1].T[:, :, None], axis=0, out=block)
        else:
            np.minimum.reduce(merged[None, :p] + dist[c0:c1, None], axis=2, out=block)
        c0 = c1
    return out


def steiner_levels(
    dist: np.ndarray, size: int, top: int
) -> list[Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Steiner distance of every subset of the first ``size`` vertices with at most ``top`` members.

    The universe ``range(size)`` lies in one component of ``dist``. Returns
    one lazy stream per level ``s`` from 2 to ``top``, none when ``top < 2``
    (a one-member set costs 0), of factored chunks
    ``(rows, counts, distances)``. ``rows`` are ``(s - 1)``-subsets R of
    ``range(size - 1)`` in a colex chunk, ascending members of shape
    ``(len(rows), s - 1)``. For every member c, ``counts[c]`` is the number
    of leading rows whose largest member is below c, and ``distances`` holds
    the Steiner distances of ``R | {c}`` for each c in turn over its
    ``counts[c]`` rows in order. So each level streams R-chunk-major, not in
    colex order of its subsets.

    Level ``j`` of the DP is one array ``tables[j]`` whose row at the colex
    rank of a ``j``-subset R of ``range(size - 1)`` holds ``Steiner(R | {v})``
    for every anchor ``v``; ``tables[1]`` is ``dist`` itself, since the rank
    of ``{p}`` is ``p``. A chunk of rows unranks them by the level-major
    binomials, ``binom[j, c] = C(c, j)``, and merges the cheapest split of
    each at every anchor (:func:`_merge`). The one DP step, :func:`_extend`,
    extends merged rows by members. Levels 2 to ``top - 2`` are tables, each
    chunk extended by every anchor in one block, which relaxes it through
    ``dist`` (hop counts obey the triangle inequality). At ``top > 2`` the
    top level merges each R once and extends it by every later member c, in
    blocks within the chunk's ``B * n`` sum; three members give
    ``min_v sum_i d(t_i, v)``. Below ``top``, and at a top of two members,
    ``d(R | {c})`` is R's row of ``tables[s - 1]`` at c. Either way a chunk's
    distances are one ``(members, rows)`` array, read through the mask of
    the rows each member extends. Every chunk of a level takes as many rows
    as the level's first rows fit in ``CHUNK_BYTES``, and at least one
    (:func:`_level_rows`).

    A level that fits in one chunk reads its rows, ``counts``, mask and
    submask ranks from a plan kept per ``(size, s, merged top)``, and a
    table level its submask ranks per ``(size, r)``; both are built on the
    first call of that shape (:func:`_planned`). Whether a level fits is
    decided on every call, and a level of several chunks builds each chunk
    afresh. Kept plans are read-only, so are the rows and counts yielded
    from them, and all of them together hold at most ``CHUNK_BYTES``, which
    the budget below does not charge.

    ``dist`` is cast once to the state dtype, which the tables, every sum
    and the yielded distances share: the narrowest of int8, int16 and int32
    that holds ``B = 3 * min(n - 1, (top - 1) * D)`` for the largest hop
    count ``D``, and int32 when ``dist`` holds ``_INF`` (module docstring).
    So a caller passes the int32 matrix on and keeps no reference to it.
    Raises :class:`TerminalCapExceeded`, before allocating, when the tables
    and one chunk's working set need more than ``DP_BYTE_BUDGET`` bytes,
    charging 4 bytes an entry in any dtype.
    """
    n = dist.shape[0]
    top = min(top, size)
    entries = sum(comb(size - 1, r) for r in range(2, top - 1))
    row = _row_bytes(n, top - 2, relax=True) if top > 3 else 0
    if top > 2:
        # A chunk fits CHUNK_BYTES or is one row. A level's first row, with
        # largest member s - 2, is its heaviest, and its bytes never fall as
        # the level s grows, so the top level's bounds every level's.
        fixed, merge, out = _level_bytes(n, size, top)
        row = max(row, fixed + merge + out * (size + 1 - top))
    need = _DIST.itemsize * n * entries + max(CHUNK_BYTES, _BUFFER_BYTES + row)
    if top > 2 and need > DP_BYTE_BUDGET:
        raise TerminalCapExceeded(
            f"subsets of up to {top} of {size} terminals on {n} vertices need "
            f"{need} bytes of DP state, over the budget of {DP_BYTE_BUDGET}"
        )
    hops = int(dist.max())
    bound = 3 * min(n - 1, (top - 1) * hops) if hops < _INF else _INF
    dist = dist.astype(_state_dtype(bound), copy=False)
    binom = _binomials(top, size)
    # Level 0, the empty set, is never read.
    tables = [None, dist]
    for r in range(2, top - 1):
        tables.append(table := np.empty((comb(size - 1, r), n), dtype=dist.dtype))
        rows = _chunk_rows(_row_bytes(n, r, relax=True))
        for lo, (ranks,) in _planned(
            ("table", size, r), size - 1, r, rows, binom, lambda pos: (_submask_rows(pos, binom),)
        ):
            # Every anchor is a member that extends every row, all in one block.
            b = ranks.shape[1]
            table[lo : lo + b] = _extend(_merge(tables, ranks), dist, np.full(n, b), 0, b * n).T
            # Freed before the next chunk is built.
            del ranks
    extended = np.arange(size)

    def level(s: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        merged = s == top > 2

        def plan(rpos: np.ndarray) -> tuple[np.ndarray, ...]:
            # Colex order sorts the rows by their largest member, so the rows
            # that c extends, those whose largest member is below c, are a
            # prefix: empty up to the first row's largest member, then growing.
            counts = rpos[:, -1].searchsorted(extended)
            held = np.arange(len(rpos)) < counts[int(rpos[0, -1]) + 1 :, None]
            return (rpos, counts, held, _submask_rows(rpos, binom)) if merged else (rpos, counts, held)

        key = ("level", size, s, merged)
        for lo, (rpos, counts, held, *ranks) in _planned(
            key, size - 1, s - 1, _level_rows(n, size, s), binom, plan
        ):
            first = int(rpos[0, -1]) + 1
            b = len(rpos)
            if merged:
                # Popped, so that ranks no plan keeps are freed before _extend.
                members = _extend(_merge(tables, ranks.pop()), dist, counts, first, b)
            else:
                # R's stored row at each later member.
                members = tables[s - 1][lo : lo + b, first:size].T
            out = members[held]
            # Freed before the next chunk is built.
            del members, held
            yield rpos, counts, out

    return [level(s) for s in range(2, top + 1)]


def _validated_terminals(g: Graph, terminals: Iterable[int]) -> tuple[int, ...]:
    ts = tuple(sorted(set(terminals)))
    if not ts:
        raise EmptyTerminalSet("terminal set must be non-empty")
    for t in ts:
        g._check_vertex(t)
    return ts


def steiner_distance(g: Graph, terminals: Iterable[int]) -> int:
    """Exact Steiner distance of a terminal set (edges of the smallest subtree).

    The top level of :func:`steiner_levels` over the ``s`` terminals, moved
    to the front of the distance matrix; its tables beside the matrix hold
    ``(2^(s-1) - s - 1) * n`` entries. One terminal costs 0 and builds no
    distance matrix; two cost their shortest-path distance. Raises
    :class:`DisconnectedTerminals` when the terminals span several
    components, and :class:`TerminalCapExceeded` when the DP would need more
    than ``DP_BYTE_BUDGET`` bytes.
    """
    ts = _validated_terminals(g, terminals)
    if len(ts) == 1:
        return 0
    dist = distance_matrix(g)
    far = [t for t in ts if dist[ts[0], t] >= _INF]
    if far:
        raise DisconnectedTerminals(f"terminals {ts[0]} and {far[0]} lie in different components")
    # The terminals first, so that they are the kernel's universe.
    order = np.concatenate((ts, np.setdiff1d(np.arange(g.n), ts)))
    levels = steiner_levels(dist.take(order, 0).take(order, 1), len(ts), len(ts))
    del dist
    *_, value = next(levels[-1])
    return int(value[0])


def steiner_distance_bruteforce(g: Graph, terminals: Iterable[int]) -> int:
    """Independent Steiner-distance oracle: scan connected vertex supersets.

    The smallest subtree containing ``S`` has vertex set ``W`` with
    ``G[W]`` connected and ``|W| - 1`` edges, so the minimum of ``|W| - 1``
    over connected supersets is the Steiner distance. Each superset, ``S``
    plus a submask of the others stepped by ``extra = (extra - 1) & rest``,
    is tested by :func:`twindex.graph.induces_connected`. Exponential in
    ``n``; capped at ``n <= 16``.
    """
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise GraphTooLargeForBruteForce(
            f"brute force needs n <= {BRUTE_FORCE_VERTEX_CAP}, got {g.n}"
        )
    ts = _validated_terminals(g, terminals)
    base = sum(1 << t for t in ts)
    rest = ((1 << g.n) - 1) ^ base
    best = g.n  # above every |W| - 1
    extra = rest
    while True:
        mask = base | extra
        if mask.bit_count() <= best and induces_connected(g, mask):
            best = mask.bit_count() - 1
        if not extra:
            break
        extra = (extra - 1) & rest
    if best == g.n:
        raise DisconnectedTerminals("terminals lie in different components")
    return best


def steiner_wiener_naive(
    g: Graph,
    m: int,
    *,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """m-Steiner Wiener index by summing Steiner distances of every m-subset.

    This is the definition, evaluated literally: every m-subset is one
    Steiner query, answered by the top level of :func:`steiner_levels` over
    all vertices; at m = 1 every subset costs 0. The subsets stream in
    chunks, so memory stays flat however many there are.
    ``progress(done, total)`` is invoked after every chunk of m-subsets when
    given.
    """
    if not 1 <= m <= g.n:
        raise BadSubsetSize(f"subset size {m} not in [1, {g.n}]")
    if not is_connected(g):
        raise DisconnectedGraph("index computation requires a connected graph")
    if m == 1:
        return 0
    total = comb(g.n, m)
    value = done = 0
    for *_, distances in steiner_levels(distance_matrix(g), g.n, m)[-1]:
        value += int(distances.sum(dtype=np.int64))
        done += len(distances)
        if progress is not None:
            progress(done, total)
    return value


def wiener_index(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    if not is_connected(g):
        raise DisconnectedGraph("the Wiener index requires a connected graph")
    return int(np.triu(distance_matrix(g), 1).sum())
