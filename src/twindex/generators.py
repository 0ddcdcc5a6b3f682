"""Graph families: algebraic constructions and standard parametric graphs.

The algebraic generators return a plain :class:`Graph` whose labels name the
group element, ring element, or ideal each vertex came from. Every graph is
one boolean adjacency matrix passed to :func:`graph_from_matrix`. Vertex
order is always deterministic (element index order, or ideal (size,
elements) order), so repeated runs are bit-identical.

Power graphs, and the ring graphs of a :class:`FiniteRing`, read adjacency
off operation tables. :func:`family_graph` builds the ring graphs of a
product of ``Z_n`` (``zdg:Z180``, ``comax:Z4xZ9xZ5``) from residue
arithmetic instead, with no table: an element is a tuple of residues, the
ideals are the products ``prod d_i Z_{n_i}`` over divisors ``d_i | n_i``, and
``x y`` lies in such an ideal iff ``d_i | x_i y_i`` in every component. That
path gives the graph the table path gives, with the same labels and vertex
order, and raises the same errors; polynomial quotients keep the table path.
"""

from __future__ import annotations

import itertools
import warnings
from functools import reduce
from math import gcd, prod
from typing import Sequence

import numpy as np

from .errors import BadParameter, ImproperIdeal, LocalRingUnsupported
from .algebra import (
    FiniteGroup,
    FiniteRing,
    Ideal,
    _check_ideal_cap,
    _ideal_masks,
    _is_prime,
    _maximal_rows,
    ideal_spec_labels,
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
    return _warn_if_empty(_product_in_graph(r, np.arange(r.size) == r.zero), repr(r))


def _warn_if_empty(g: Graph, ring: str) -> Graph:
    """``g``, with a warning that ``ring`` has no zero divisors when ``g`` is empty."""
    if g.n == 0:
        warnings.warn(f"{ring} has no nonzero zero divisors; returning the empty graph")
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
        raise _local_ring(repr(r))
    radical = masks[maxima].all(axis=0)
    proper = masks[:-1]  # the last row is the whole ring
    vertices = proper[(proper & ~radical).any(axis=1)]
    # I + J holds one iff some a in I has one - a in J.
    one_minus = np.argmax(r._add == r.one, axis=1)
    labels = [Ideal(r, tuple(np.flatnonzero(row).tolist())).label() for row in vertices]
    return graph_from_matrix(vertices @ vertices[:, one_minus].T, labels)


def _local_ring(ring: str) -> LocalRingUnsupported:
    """The error for the comaximal ideal graph of a local ring."""
    return LocalRingUnsupported(f"{ring} is local; its comaximal ideal graph has no vertices")


# --- products of Z_n from residue arithmetic -------------------------------------


def _residue_labels(moduli: Sequence[int], elements: np.ndarray) -> list[str]:
    """The labels of ``elements`` of ``Z_{n_1} x ... x Z_{n_k}``, by row-major
    index: ``str(x)`` for one factor, ``"(a,b,...)"`` for more, as the tables
    label them."""
    digits = (a.tolist() for a in np.unravel_index(elements, moduli))
    return [_residue_label(x) for x in zip(*digits)]


def _residue_label(x: Sequence[int]) -> str:
    return str(x[0]) if len(x) == 1 else "(" + ",".join(map(str, x)) + ")"


def _residue_ideal(moduli: Sequence[int], ideal_spec: str) -> list[int]:
    """The ``d_i`` of the ideal ``prod d_i Z_{n_i}`` that the generator labels of
    ``ideal_spec`` generate: ``d_i`` is the gcd of ``n_i`` and their components.

    A label that names no element raises :class:`BadParameter`, as
    :func:`~twindex.algebra.ideal_from_spec` does.
    """
    d = list(moduli)
    for label in ideal_spec_labels(ideal_spec):
        inner = label[1:-1] if len(moduli) > 1 else label
        try:
            x = [int(a) for a in inner.split(",")]
        except ValueError:
            x = []
        valid = len(x) == len(moduli) and all(0 <= a < n for a, n in zip(x, moduli))
        if not (valid and _residue_label(x) == label):
            raise BadParameter(f"unknown element label {label!r} in {_residue_name(moduli)}")
        d = [gcd(di, a) for di, a in zip(d, x)]
    return d


def _residue_name(moduli: Sequence[int]) -> str:
    return "x".join(f"Z{n}" for n in moduli)


def _residue_product_graph(moduli: Sequence[int], d: Sequence[int]) -> Graph:
    """:func:`_product_in_graph` of ``Z_{n_1} x ... x Z_{n_k}`` and the ideal
    ``prod d_i Z_{n_i}``, from residue arithmetic; ``d = moduli`` is the zero ideal.

    ``x y`` lies in the ideal iff ``d_i | x_i y_i`` in every component, and
    ``d | x y`` iff ``d | gcd(x, d) gcd(y, d)``. So an element's class is its
    tuple of ``gcd(x_i, d_i)``, one boolean table over the classes says which
    products lie in the ideal, and the adjacency matrix gathers that table's
    rows and columns by the vertices' classes: no temporary is larger than the
    boolean matrix itself.
    """
    classes = np.zeros(1, dtype=np.intp)  # each element's class, row-major
    table = np.ones((1, 1), dtype=bool)  # [c, e]: classes c and e multiply into the ideal
    for n, di in zip(moduli, d):
        divisors, component = np.unique(np.gcd(np.arange(n), di), return_inverse=True)
        classes = np.add.outer(classes * len(divisors), component).ravel()
        part = np.multiply.outer(divisors, divisors) % di == 0
        table = table[:, None, :, None] & part[None, :, None, :]
        table = table.reshape(table.shape[0] * table.shape[1], -1)
    # Every divisor of d_i is some gcd(x_i, d_i), so every class has members;
    # the last, gcd(x_i, d_i) = d_i everywhere, is the ideal itself.
    outside = np.arange(len(table)) < len(table) - 1
    vertex_class = outside & (table & outside).any(axis=1)
    vertices = np.flatnonzero(vertex_class[classes])
    of_vertex = classes[vertices]
    return graph_from_matrix(table[np.ix_(of_vertex, of_vertex)], _residue_labels(moduli, vertices))


def _residue_comax_graph(moduli: Sequence[int]) -> Graph:
    """:func:`comaximal_ideal_graph` of ``Z_{n_1} x ... x Z_{n_k}``, from the
    divisor tuples of its ideals.

    The ideals are ``I_d = prod d_i Z_{n_i}`` over ``d_i | n_i``. The maximal
    ones have one prime ``d_i`` and 1 elsewhere, so the Jacobson radical is
    ``I_r`` with ``r_i`` the product of the primes dividing ``n_i``, and
    ``I_d`` lies inside it iff ``r_i | d_i`` everywhere. ``I_d + I_e`` is
    ``I_gcd(d, e)``, the whole ring iff ``gcd(d_i, e_i) = 1`` in every
    component. The vertices are sorted like the rows of
    :func:`~twindex.algebra._ideal_masks`, by (size, element list), and the
    ring is refused as there: above the enumeration cap, then if local.
    """
    size = prod(moduli)
    _check_ideal_cap(size)
    primes = [[p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)] for n in moduli]
    if sum(map(len, primes)) < 2:
        raise _local_ring(_residue_name(moduli))
    radical = [prod(ps) for ps in primes]
    strides = [size // prod(moduli[: j + 1]) for j in range(len(moduli))]
    divisors = [[c for c in range(1, n + 1) if n % c == 0] for n in moduli]
    ideals = []
    for d in itertools.product(*divisors):
        proper = any(di > 1 for di in d)
        if proper and not all(di % ri == 0 for di, ri in zip(d, radical)):
            axes = [np.arange(0, n, di) * s for n, di, s in zip(moduli, d, strides)]
            members = reduce(np.add.outer, axes).ravel().tolist()
            ideals.append((len(members), members, d))
    ideals.sort()
    labels = _residue_labels(moduli, np.arange(size))
    tuples = np.array([d for _, _, d in ideals])
    adj = np.ones((len(ideals), len(ideals)), dtype=bool)
    for column in tuples.T:
        adj &= np.gcd.outer(column, column) == 1
    return graph_from_matrix(
        adj, ["{" + ",".join(labels[x] for x in members) + "}" for _, members, _ in ideals]
    )


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
    from .algebra import group_from_spec, ideal_from_spec, ring_from_spec, zmod_moduli

    kind, _, rest = spec.partition(":")
    if not rest:
        raise BadParameter(f"family spec {spec!r} needs a ':<parameters>' part")
    if kind == "power":
        return power_graph(group_from_spec(rest))
    if kind == "zdg":
        moduli = zmod_moduli(rest)
        if moduli is None:
            return zero_divisor_graph(ring_from_spec(rest))
        return _warn_if_empty(_residue_product_graph(moduli, moduli), _residue_name(moduli))
    if kind == "izdg":
        ring_spec, _, ideal_spec = rest.partition(":")
        if not ideal_spec.startswith("I="):
            raise BadParameter(f"izdg spec needs ':I=(...)', got {spec!r}")
        moduli = zmod_moduli(ring_spec)
        if moduli is None:
            ring = ring_from_spec(ring_spec)
            return ideal_zero_divisor_graph(ring, ideal_from_spec(ring, ideal_spec[2:]))
        d = _residue_ideal(moduli, ideal_spec[2:])
        if all(di == 1 for di in d):
            raise ImproperIdeal("the whole ring is not a proper ideal")
        return _residue_product_graph(moduli, d)
    if kind == "comax":
        moduli = zmod_moduli(rest)
        if moduli is None:
            return comaximal_ideal_graph(ring_from_spec(rest))
        return _residue_comax_graph(moduli)
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
