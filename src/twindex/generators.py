"""Graph families: algebraic constructions and standard parametric graphs.

The algebraic generators return a plain :class:`Graph` whose labels name the
group element, ring element, or ideal each vertex came from. They read
adjacency off the operation tables as one boolean matrix. Vertex order is
always deterministic (element index order, or ideal (size, elements)
order), so repeated runs are bit-identical.
"""

from __future__ import annotations

import warnings
from math import gcd
from typing import Sequence

import numpy as np

from .errors import BadParameter, ImproperIdeal, LocalRingUnsupported
from .algebra import (
    FiniteGroup,
    FiniteRing,
    Ideal,
    _ideal_masks,
    _maximal_rows,
)
from .graph import Graph, generalized_composition, new_graph


def graph_from_matrix(adj: np.ndarray, labels: Sequence[str]) -> Graph:
    """The graph of a symmetric boolean adjacency matrix; its diagonal is ignored.

    Raises :class:`BadParameter` for an asymmetric matrix, or unless there is
    exactly one label per row and the labels are unique.
    """
    adj = np.array(adj, dtype=bool)
    labels = tuple(labels)
    if adj.shape != (len(labels), len(labels)):
        raise BadParameter(f"{len(labels)} labels for an adjacency matrix of shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise BadParameter("adjacency matrix must be symmetric")
    if len(set(labels)) != len(labels):
        raise BadParameter("vertex labels must be unique")
    np.fill_diagonal(adj, False)
    rows = np.packbits(adj, axis=1, bitorder="little")
    return Graph(tuple(int.from_bytes(row.tobytes(), "little") for row in rows), labels)


# --- algebraic families ---------------------------------------------------------


def power_graph(g: FiniteGroup) -> Graph:
    """Power graph: distinct elements adjacent iff one is a power of the other.

    ``x`` is a power of ``a`` iff ``x`` lies in the cyclic subgroup ``<a>``, and
    the generators ``a^k`` (``gcd(k, ord a) = 1``) of ``<a>`` share its row. So
    the powers are walked once per distinct cyclic subgroup, and each element
    reads its row from one (subgroups x n) membership matrix.
    """
    n, table = g.order, g._table
    subgroup = np.full(n, -1, dtype=np.int64)  # subgroup[a]: row of <a> in member
    rows = []
    for a in range(n):
        if subgroup[a] >= 0:
            continue
        powers, x = [a], table.item(a, a)
        while x != a:
            powers.append(x)
            x = table.item(x, a)
        order = len(powers)
        subgroup[[p for k, p in enumerate(powers, 1) if gcd(k, order) == 1]] = len(rows)
        rows.append(powers)
    member = np.zeros((len(rows), n), dtype=bool)
    for c, powers in enumerate(rows):
        member[c, powers] = True
    is_power = member[subgroup]  # is_power[a, x]: x is a power of a
    return graph_from_matrix(is_power | is_power.T, g.element_labels)


def zero_divisor_graph(r: FiniteRing) -> Graph:
    """Zero-divisor graph: nonzero zero divisors, adjacent iff product is zero.

    Rings without zero divisors yield the empty graph plus a warning, so
    batch pipelines over ring families keep going.
    """
    g = _product_in_graph(r, np.arange(r.size) == r.zero)
    if g.n == 0:
        warnings.warn(f"{r!r} has no nonzero zero divisors; returning the empty graph")
    return g


def ideal_zero_divisor_graph(r: FiniteRing, ideal: Ideal) -> Graph:
    """Ideal-based zero-divisor graph: ``x ~ y`` iff ``x * y`` lands in the ideal.

    Vertices are the elements outside the ideal whose product with some
    outside element, itself included, falls into it. With the zero ideal this coincides with
    :func:`zero_divisor_graph`.
    """
    if ideal.ring is not r:
        raise ImproperIdeal("ideal does not belong to the given ring")
    if not ideal.is_proper():
        raise ImproperIdeal("the whole ring is not a proper ideal")
    inside = np.zeros(r.size, dtype=bool)
    inside[list(ideal.elements)] = True
    return _product_in_graph(r, inside)


def _product_in_graph(r: FiniteRing, inside: np.ndarray) -> Graph:
    """Graph on the elements outside ``inside``, adjacent iff their product is inside.

    An element is a vertex only if its product with some outside element,
    itself included, lies inside.
    """
    outside = np.flatnonzero(~inside)
    # np.take, not inside[...]: indexing by the int16 products casts them in
    # small buffers, about three times slower.
    hits = np.take(inside, r._mul[np.ix_(outside, outside)])
    keep = hits.any(axis=1)
    vertices = outside[keep]
    return graph_from_matrix(hits[np.ix_(keep, keep)], [r.element_labels[x] for x in vertices])


def comaximal_ideal_graph(r: FiniteRing) -> Graph:
    """Comaximal ideal graph: proper ideals outside the Jacobson radical,
    adjacent iff their sum is the whole ring.

    Local rings are rejected (:class:`LocalRingUnsupported`): with a single
    maximal ideal every candidate vertex sits inside the radical.
    """
    masks = _ideal_masks(r)
    maxima = _maximal_rows(masks)
    if len(maxima) < 2:
        raise LocalRingUnsupported(
            f"{r!r} is local; its comaximal ideal graph has no vertices"
        )
    radical = masks[maxima].all(axis=0)
    proper = masks[:-1]  # the last row is the whole ring
    vertices = proper[(proper & ~radical).any(axis=1)]
    # I + J holds one iff some a in I has one - a in J.
    one_minus = np.argmax(r._add == r.one, axis=1)
    labels = [Ideal(r, tuple(np.flatnonzero(row).tolist())).label() for row in vertices]
    return graph_from_matrix(vertices @ vertices[:, one_minus].T, labels)


# --- standard parametric families ------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise BadParameter(f"need n >= 0, got {n}")
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise BadParameter(f"need n >= 0, got {n}")
    return new_graph(n, [])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameter(f"need n >= 1, got {n}")
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadParameter(f"need n >= 3, got {n}")
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """``K_{1, n-1}``: vertex 0 is the center."""
    if n < 1:
        raise BadParameter(f"need n >= 1, got {n}")
    return new_graph(n, [(0, v) for v in range(1, n)])


def complete_multipartite_graph(part_sizes) -> Graph:
    """Parts in the given order; all cross-part pairs adjacent."""
    parts = list(part_sizes)
    if not parts or any(p < 1 for p in parts):
        raise BadParameter(f"part sizes must be positive, got {parts}")
    return generalized_composition(complete_graph(len(parts)), [empty_graph(p) for p in parts])


def wheel_graph(n: int) -> Graph:
    """Wheel on ``n + 1`` vertices, built literally as ``K_2[C_n, K_1]``."""
    if n < 3:
        raise BadParameter(f"need rim size n >= 3, got {n}")
    return generalized_composition(complete_graph(2), (cycle_graph(n), complete_graph(1)))


def multipartite_sizes(spec: str) -> tuple[int, ...] | None:
    """Part sizes of a ``multipartite:<s1,s2,...>`` spec; ``None`` for any other family.

    The one parser of the sizes, for :func:`family_graph` and the closed form.
    """
    kind, _, rest = spec.partition(":")
    if kind != "multipartite":
        return None
    try:
        sizes = tuple(int(s) for s in rest.split(","))
    except ValueError:
        raise BadParameter(f"bad part sizes in {spec!r}") from None
    if any(p < 1 for p in sizes):
        raise BadParameter(f"part sizes must be positive, got {list(sizes)}")
    return sizes


def family_graph(spec: str) -> Graph:
    """Build a graph from a compact family spec string.

    Supported forms: ``power:<group>``, ``zdg:<ring>``,
    ``izdg:<ring>:I=(<gens>)``, ``comax:<ring>``, ``multipartite:<s1,s2,...>``,
    ``wheel:<n>``, ``star:<n>``, ``complete:<n>``, ``empty:<n>``,
    ``path:<n>``, ``cycle:<n>``.
    """
    from .algebra import group_from_spec, ideal_from_spec, ring_from_spec

    kind, _, rest = spec.partition(":")
    if not rest:
        raise BadParameter(f"family spec {spec!r} needs a ':<parameters>' part")
    if kind == "power":
        return power_graph(group_from_spec(rest))
    if kind == "zdg":
        return zero_divisor_graph(ring_from_spec(rest))
    if kind == "izdg":
        ring_spec, _, ideal_spec = rest.partition(":")
        if not ideal_spec.startswith("I="):
            raise BadParameter(f"izdg spec needs ':I=(...)', got {spec!r}")
        ring = ring_from_spec(ring_spec)
        ideal = ideal_from_spec(ring, ideal_spec[2:])
        return ideal_zero_divisor_graph(ring, ideal)
    if kind == "comax":
        return comaximal_ideal_graph(ring_from_spec(rest))
    if kind == "multipartite":
        return complete_multipartite_graph(multipartite_sizes(spec))
    scalar_families = {
        "wheel": wheel_graph,
        "star": star_graph,
        "complete": complete_graph,
        "empty": empty_graph,
        "path": path_graph,
        "cycle": cycle_graph,
    }
    if kind in scalar_families:
        try:
            n = int(rest)
        except ValueError:
            raise BadParameter(f"bad size in {spec!r}") from None
        return scalar_families[kind](n)
    raise BadParameter(f"unknown family kind {kind!r} in {spec!r}")
