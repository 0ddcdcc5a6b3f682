"""Shared helpers for the test suite."""

import itertools
import random

import numpy as np
import pytest

from twindex import BadParameter, Graph, VertexOutOfRange, is_connected, new_graph, twin_partition


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return new_graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5):
    """Rejection-sample a connected graph; densify if unlucky."""
    for attempt in range(200):
        g = random_graph(rng, n, min(0.95, p + attempt * 0.01))
        if is_connected(g):
            return g
    raise AssertionError(f"could not sample a connected graph on {n} vertices")


def twin_free_graph(rng, n, p=0.4):
    """A random connected graph on ``n`` vertices without twins: its own reduced graph."""
    return next(
        g
        for g in (random_connected_graph(rng, n, p) for _ in range(200))
        if twin_partition(g).k == n
    )


def with_labels(g: Graph, labels):
    """Copy of ``g`` carrying the given per-vertex labels."""
    labels = tuple(str(s) for s in labels)
    if len(labels) != g.n:
        raise VertexOutOfRange(f"expected {g.n} labels, got {len(labels)}")
    return Graph(g.masks, labels)


def permuted(g: Graph, perm):
    """Relabel ``g`` by ``perm`` (``perm[old] = new``); labels move along."""
    if sorted(perm) != list(range(g.n)):
        raise VertexOutOfRange("perm must be a permutation of 0..n-1")
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    labels = [""] * g.n
    for old, new in enumerate(perm):
        labels[new] = g.labels[old]
    return new_graph(g.n, edges, labels)


def cyclic_subgroup(g, a: int) -> frozenset[int]:
    """All powers of ``a`` in the group ``g``: the cyclic subgroup it generates.

    The power-graph reference: it walks the powers one product at a time.
    """
    if not 0 <= a < g.order:
        raise BadParameter(f"element {a} out of range for {g!r}")
    seen = {g.identity}
    x = a
    while x not in seen:
        seen.add(x)
        x = g.op(x, a)
    return frozenset(seen)


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^binom(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield new_graph(n, edges)


def graphs_up_to_isomorphism(n: int):
    """One graph per isomorphism class on n vertices, each its least edge mask.

    Bit i of an edge mask is the i-th pair of ``itertools.combinations``. A
    vertex permutation moves each edge bit to the bit of the image pair, so
    every mask's least image over all ``n!`` permutations names its class.
    """
    pairs = list(itertools.combinations(range(n), 2))
    bit_of = {pair: i for i, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    bits = masks[:, None] >> np.arange(len(pairs)) & 1
    least = masks.copy()
    for perm in itertools.permutations(range(n)):
        image = [bit_of[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        np.minimum(least, bits @ (1 << np.array(image, dtype=np.int64)), out=least)
    for mask in np.unique(least).tolist():
        yield new_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def connectivity_sweep():
    """Every labeled graph on 1 to 5 vertices, then one per isomorphism class on 6 (156)."""
    for n in range(1, 6):
        yield from all_graphs(n)
    yield from graphs_up_to_isomorphism(6)


def connected_by_dfs(g: Graph) -> bool:
    """Whether ``g`` is connected, by a depth-first search over ``g.edges()``.

    It shares no code with ``twindex.is_connected``, the index routes' own
    rule, so it can be their oracle.
    """
    if not g.n:
        return True
    adjacent = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def expanded(chunk):
    """``(subsets, distances)`` of one chunk ``(rows, counts, distances)`` of ``steiner_levels``.

    For each member c in turn, the chunk lists the subsets ``R | {c}`` of
    the first ``counts[c]`` rows R, in row order; they are rebuilt here one
    by one.
    """
    rows, counts, distances = chunk
    subsets = [r + [c] for c, p in enumerate(counts.tolist()) for r in rows[:p].tolist()]
    return np.array(subsets, dtype=np.intp).reshape(len(subsets), rows.shape[1] + 1), distances


# Group and ring specs that the table-driven code is checked on exhaustively.
GROUP_SWEEP = (
    [f"Z{n}" for n in range(1, 65)]
    + [f"D{n}" for n in range(6, 41, 2)]
    + ["Q8", "Q8xZ3", "Z2xZ30"]
    + [f"E2^{k}" for k in range(1, 6)]
)
RING_SWEEP = [f"Z{n}" for n in range(2, 65)] + [
    "Z2xZ2xZ4",
    "Z4xZ9",
    "Z2[x]/(x^3)",
    "Z3[x]/(x^2)xZ2",
]
# Larger groups, each also checked against the reference implementations.
LARGE_GROUPS = ["Z480", "D240", "Q8xZ15", "Q8xQ8", "D12xZ3"]


@pytest.fixture
def rng():
    return random.Random(0x5EED)
