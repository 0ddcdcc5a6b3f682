"""Graph families: algebraic constructions and standard parametric graphs.

The algebraic generators return a plain :class:`Graph` whose labels name the
group element, ring element, or ideal each vertex came from. Vertex order is
always deterministic (element index order, or ideal (size, elements)
order), so repeated runs are bit-identical.

Power graphs of a :class:`FiniteGroup`, and the ring graphs of a
:class:`FiniteRing`, read adjacency off operation tables. :func:`family_graph`
builds every ``power:`` spec with no table, from the power map of each
factor of the group (:func:`~twindex.algebra.group_power_rules`, which
reads the spec once), and the ring graphs of a product of ``Z_n``
(``zdg:Z180``, ``comax:Z4xZ9xZ5``) from residue arithmetic. The power
graph of one ``Z_n`` (``n >= 2``) or of one dihedral group
(``power:Z480``, ``power:D120``) needs no walk: :func:`_divisor_power_graph`
reads it off the divisors of ``n``. Every other group spec (products,
``Q8``, ``E2^k``, ``Z1``; ``power:Q8xZ15``, ``power:Z2xZ30``) goes to
:func:`_factor_power_graph`, which finds the classes of elements that
generate the same cyclic subgroup as orbits of the units mod the group's
exponent, in a fixed number of numpy passes. For the rings, an element is
a tuple of residues, the ideals are the products ``prod d_i Z_{n_i}``
over divisors ``d_i | n_i``, and ``x y`` lies in such an ideal iff
``d_i | x_i y_i`` in every component. Polynomial quotients keep the table
path.

:func:`power_graph` walks the powers through a group's table once per
cyclic subgroup; the tests take it as the reference for every ``power:``
spec. For the ring families, the two representations supply only what
depends on how the ring is stored, and one function per family does the
rest for both. :func:`_product_graph` (``zdg``, ``izdg``) takes a class table: each
element's class, which pairs of classes multiply into the ideal and which
classes lie in it. On the table path every element is its own class; on the
residue path an element's class is its tuple of ``gcd(x_i, d_i)``. The
vertex rule, and the refusal of the whole ring as an ideal, are stated there
once. They and every power graph build the graph from a table over pairs
of classes, :func:`_class_graph`, which packs one mask per class
and builds no ``n x n`` matrix. :func:`_comax_graph` takes the ideals as
membership rows sorted like :func:`~twindex.algebra._ideal_masks` and each
element's ``1 - a``, reads the maximal ideals, the Jacobson radical, the
local-ring refusal and comaximality off those rows, and passes the
adjacency matrix to :func:`graph_from_matrix`. Element and ideal labels
have one format each (:func:`~twindex.algebra._product_labels`,
:func:`~twindex.algebra._set_label`), and a generator label names an element
iff it is in the ring's label list, on both paths. So the residue path gives
the graph the table path gives, with the same labels and vertex order, and
raises the same errors.
"""

from __future__ import annotations

import warnings
from functools import cache
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from .errors import BadParameter, ImproperIdeal, LocalRingUnsupported
from .algebra import (
    FiniteGroup,
    FiniteRing,
    Ideal,
    PowerRule,
    _check_ideal_cap,
    _ideal_masks,
    _maximal_rows,
    _product_labels,
    _residue_labels,
    _set_label,
    _sorted_ideals,
    ideal_spec_generators,
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

    ``x`` is a power of ``a`` iff ``x`` lies in the cyclic subgroup ``<a>``.
    The powers ``a, a^2, ..., a^ord(a)`` are walked through the composition
    table, once per distinct cyclic subgroup, from the least element not yet
    placed; the generators ``a^k`` (``gcd(k, ord a) = 1``) of ``<a>`` get its
    class. ``x ~ y`` iff ``<x>`` and ``<y>`` are nested, which one
    (subgroups x n) membership matrix gives at the subgroups' first elements.
    """
    table, n = g._table, g.order
    subgroup = np.full(n, -1, dtype=np.intp)  # subgroup[a]: the class of <a>
    walks = []
    for a in range(n):
        if subgroup[a] >= 0:
            continue
        walk, x = [a], table.item(a, a)
        while x != a:
            walk.append(x)
            x = table.item(x, a)
        subgroup[[p for k, p in enumerate(walk, 1) if gcd(k, len(walk)) == 1]] = len(walks)
        walks.append(walk)
    member = np.zeros((len(walks), n), dtype=bool)
    for c, walk in enumerate(walks):
        member[c, walk] = True
    contains = member[:, [walk[0] for walk in walks]]  # [c, e]: <e> lies in <c>
    return _class_graph(contains | contains.T, subgroup, g.element_labels)


def _factor_power_graph(rules: Sequence[PowerRule]) -> Graph:
    """The power graph of the direct product of the groups whose power maps
    are ``rules``, from those maps, with no table and no walk.

    Elements are tuples in row-major order, labeled as
    :func:`~twindex.algebra.group_product` labels them, and ``x^c`` is taken
    componentwise. Let ``E`` be the lcm of the factors' exponents. ``x`` and
    ``y`` generate the same cyclic subgroup iff ``y = x^c`` for a unit ``c``
    mod ``E`` (every unit mod ``ord(x)`` lifts to one mod ``E``), so the
    classes are the orbits of the units. Each orbit's least member is found
    by pointer jumping over a generating set of the units, and the classes
    are ordered by it, as :func:`power_graph` orders them. The cyclic
    subgroups of ``<x>`` are the ``<x^d>`` over the divisors ``d`` of ``E``,
    which gives which classes contain which.
    """
    sizes = [len(rule.labels) for rule in rules]
    exponent = lcm(*(rule.exponent for rule in rules))

    def power(digits: Sequence[np.ndarray], c) -> np.ndarray:
        """The indices of ``x^c`` for the elements ``x`` with components
        ``digits``, and for every ``c`` of an array ``c`` broadcast against them."""
        return np.ravel_multi_index([rule.power(d, c) for rule, d in zip(rules, digits)], sizes)

    n = prod(sizes)
    digits = np.unravel_index(np.arange(n), sizes)
    least = np.arange(n)  # least[x]: the least member of x's orbit found so far
    for unit, steps in _unit_generators(exponent):
        jump = power(digits, unit)  # x -> x^(unit^(2^s)) after s steps
        for _ in range(steps):
            np.minimum(least, least[jump], out=least)
            jump = jump[jump]
    reps = np.flatnonzero(least == np.arange(n))
    classes = np.searchsorted(reps, least)
    below = classes[power([d[reps] for d in digits], _divisors(exponent)[:, None])]  # [d, c]
    pairs = np.zeros((len(reps), len(reps)), dtype=bool)  # [c, e]: <c> and <e> are nested
    pairs[np.arange(len(reps)), below] = pairs[below, np.arange(len(reps))] = True
    return _class_graph(pairs, classes, _product_labels([rule.labels for rule in rules]))


@cache
def _unit_generators(e: int) -> tuple[tuple[int, int], ...]:
    """A greedy generating set of the units mod ``e``, each unit ``g`` with
    ``ceil(log2 t)``, where ``g^t`` is its least power in the subgroup that
    the units before it generate: the pointer-jumping steps that cover
    ``g^0 .. g^(t-1)``."""
    reached, gens = {1}, []
    for g in range(2, e):
        if g in reached or gcd(g, e) != 1:
            continue
        cosets, x = [reached], g
        while x not in reached:
            cosets.append({r * x % e for r in reached})
            x = x * g % e
        reached = set().union(*cosets)
        gens.append((g, (len(cosets) - 1).bit_length()))
    return tuple(gens)


def _divisor_power_graph(rule: PowerRule) -> Graph:
    """The power graph of ``Z_n``, or of the dihedral group of order ``2n``,
    whose :class:`~twindex.algebra.PowerRule` ``rule`` has ``divisors``
    ``(n, dihedral)``, from the divisors of ``n``, on the rule's labels.

    In ``Z_n``, ``<a> = <gcd(a, n)>``, and ``<d>`` lies in ``<e>`` iff ``e | d``;
    so ``a``'s class is ``gcd(a, n)``, and two classes are joined iff one
    divides the other. The dihedral group's rotations are ``Z_n``, on the
    same indices; each of its ``n`` reflections generates only itself and
    the identity. So the reflections form one more class, edgeless, joined
    only to the identity's class, the divisor ``n``.
    """
    n, dihedral = rule.divisors
    divisors = _divisors(n)
    classes = np.searchsorted(divisors, np.gcd(np.arange(n), n))
    pairs = divisors[:, None] % divisors == 0
    pairs |= pairs.T
    if dihedral:
        k = len(divisors)
        pairs = np.pad(pairs, (0, 1))
        pairs[k, k - 1] = pairs[k - 1, k] = True
        classes = np.concatenate([classes, np.full(n, k)])
    return _class_graph(pairs, classes, rule.labels)


def _divisors(n: int) -> np.ndarray:
    """The divisors of ``n``, ascending."""
    return np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1


def _class_graph(pairs: np.ndarray, classes: np.ndarray, labels: Sequence[str]) -> Graph:
    """The graph on ``labels`` whose vertices ``x`` and ``y`` are adjacent iff
    ``pairs[classes[x], classes[y]]``, for a symmetric boolean ``pairs``.

    Raises :class:`BadParameter`, as :func:`graph_from_matrix` does, for an
    asymmetric ``pairs``, or unless there is exactly one label per vertex and
    the labels are unique. Each class's row of ``pairs``, taken at every
    vertex's class, is packed into one mask. A vertex's mask is its class's
    with its own bit cleared; that bit is set only where the class is joined
    to itself, so every other vertex shares its class's mask.
    """
    labels = tuple(labels)
    if len(labels) != len(classes):
        raise BadParameter(f"{len(labels)} labels for {len(classes)} vertices")
    if not np.array_equal(pairs, pairs.T):
        raise BadParameter("adjacency matrix must be symmetric")
    if len(set(labels)) != len(labels):
        raise BadParameter("vertex labels must be unique")
    rows = np.packbits(pairs.take(classes, axis=1), axis=1, bitorder="little")
    row_masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    loops = np.diagonal(pairs).tolist()
    return Graph(
        tuple(row_masks[c] ^ (1 << v) if loops[c] else row_masks[c] for v, c in enumerate(classes.tolist())),
        labels,
    )


def zero_divisor_graph(r: FiniteRing) -> Graph:
    """Zero-divisor graph: nonzero zero divisors, adjacent iff product is zero.

    Rings without zero divisors yield the empty graph plus a warning, so
    batch pipelines over ring families keep going.
    """
    return _warn_if_empty(_table_product_graph(r, np.arange(r.size) == r.zero), repr(r))


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
    inside = np.zeros(r.size, dtype=bool)
    inside[list(ideal.elements)] = True
    return _table_product_graph(r, _proper(inside))


def _table_product_graph(r: FiniteRing, inside: np.ndarray) -> Graph:
    """:func:`_product_graph` of ``r`` and the ideal ``inside``, every element its own class."""
    # np.take, not inside[...]: indexing by the int16 products casts them in
    # small buffers, about three times slower.
    return _product_graph(np.arange(r.size), np.take(inside, r._mul), inside, r.element_labels)


def comaximal_ideal_graph(r: FiniteRing) -> Graph:
    """Comaximal ideal graph: proper ideals outside the Jacobson radical,
    adjacent iff their sum is the whole ring.

    Local rings are rejected (:class:`LocalRingUnsupported`): with a single
    maximal ideal every candidate vertex sits inside the radical.
    """
    one_minus = np.argmax(r._add == r.one, axis=1)
    return _comax_graph(_ideal_masks(r), one_minus, r.element_labels, repr(r))


# --- the ring families, from an operation table or from residues -----------------


def _product_graph(
    classes: np.ndarray, hits: np.ndarray, inside: np.ndarray, labels: Sequence[str]
) -> Graph:
    """Graph on the elements outside an ideal, adjacent iff their product lies in it.

    ``classes[x]`` is element ``x``'s class, ``hits[c, e]`` says that the
    product of a member of class ``c`` and one of class ``e`` lies in the
    ideal, and ``inside[c]`` that class ``c`` lies in it; ``labels`` are the
    elements' labels. An element is a vertex iff its product with some
    outside element, itself included, lies inside.
    """
    outside = ~inside
    of_vertex = outside & (hits & outside).any(axis=1)  # the vertices' classes
    vertices = np.flatnonzero(of_vertex[classes])
    # Only those classes go on: on the table path ``hits`` is n x n, and
    # _class_graph checks and packs every row it is given.
    kept = np.flatnonzero(of_vertex)
    pairs = hits.take(kept, 0).take(kept, 1)
    return _class_graph(pairs, np.searchsorted(kept, classes[vertices]), [labels[x] for x in vertices])


def _proper(inside: np.ndarray) -> np.ndarray:
    """``inside`` unless every class lies in the ideal (:class:`ImproperIdeal`)."""
    if inside.all():
        raise ImproperIdeal("the whole ring is not a proper ideal")
    return inside


def _comax_graph(masks: np.ndarray, one_minus: np.ndarray, labels: Sequence[str], ring: str) -> Graph:
    """The comaximal ideal graph of the ring ``ring`` whose ideals are the rows
    of ``masks``, sorted as :func:`~twindex.algebra._ideal_masks` sorts them,
    and whose element ``a`` has ``1 - a`` at ``one_minus[a]``.

    The vertices are the proper rows outside the Jacobson radical, the meet
    of the maximal rows; ``I + J`` holds one iff some ``a`` in ``I`` has
    ``1 - a`` in ``J``. A ring with fewer than two maximal ideals is local
    and raises :class:`LocalRingUnsupported`.
    """
    maxima = _maximal_rows(masks)
    if len(maxima) < 2:
        raise LocalRingUnsupported(f"{ring} is local; its comaximal ideal graph has no vertices")
    radical = masks[maxima].all(axis=0)
    proper = masks[:-1]  # the last row is the whole ring
    vertices = proper[(proper & ~radical).any(axis=1)]
    names = [_set_label(labels[x] for x in np.flatnonzero(row).tolist()) for row in vertices]
    # As in _maximal_rows: a float32 BLAS product, exact for rows of at most
    # 2048 elements, where a bool product has no BLAS kernel.
    ones = vertices.astype(np.float32) @ vertices[:, one_minus].T.astype(np.float32)
    return graph_from_matrix(ones > 0, names)


def _residue_graph(kind: str, moduli: Sequence[int], ideal_spec: str) -> Graph:
    """The ``zdg``, ``izdg`` (of the ideal ``ideal_spec``) or ``comax`` graph
    (``kind``) of ``Z_{n_1} x ... x Z_{n_k}``, from residue arithmetic.

    The ideals are ``prod d_i Z_{n_i}`` over divisors ``d_i | n_i``; the one
    that ``ideal_spec``'s generators generate has ``d_i`` the gcd of ``n_i``
    and their components. ``comax`` is refused above the enumeration cap
    before anything is built.
    """
    name, size = "x".join(f"Z{n}" for n in moduli), prod(moduli)
    if kind == "comax":
        _check_ideal_cap(size)  # before any label or row is built
    labels = _product_labels([_residue_labels(n) for n in moduli])
    digits = np.unravel_index(np.arange(size), moduli)  # digits[i][x]: component i of x
    if kind == "comax":
        return _comax_graph(*_residue_ideals(moduli, digits), labels, name)
    if kind == "zdg":
        return _warn_if_empty(_product_graph(*_residue_classes(moduli, digits), labels), name)
    d = list(moduli)
    for x in ideal_spec_generators(ideal_spec, labels, name):
        d = [gcd(di, int(a[x])) for di, a in zip(d, digits)]
    classes, hits, inside = _residue_classes(d, digits)
    return _product_graph(classes, hits, _proper(inside), labels)


def _residue_classes(d: Sequence[int], digits: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The ``classes``, ``hits`` and ``inside`` of :func:`_product_graph` for
    the ideal ``prod d_i Z_{n_i}`` of the elements with components ``digits``.

    ``x y`` lies in the ideal iff ``d_i | x_i y_i`` in every component, and
    ``d | x y`` iff ``d | gcd(x, d) gcd(y, d)``. So an element's class is its
    tuple of ``gcd(x_i, d_i)``, and every divisor of ``d_i`` is the class of
    some ``x_i``. The last class, ``d_i`` everywhere, is the ideal itself.
    """
    parts, components = [], []
    for di, a in zip(d, digits):
        divisors, component = np.unique(np.gcd(a, di), return_inverse=True)
        parts.append(np.multiply.outer(divisors, divisors) % di == 0)
        components.append(component)
    hits = _outer_and(parts)
    classes = np.ravel_multi_index(components, [len(part) for part in parts])
    return classes, hits, np.arange(len(hits)) == len(hits) - 1


def _residue_ideals(moduli: Sequence[int], digits: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The membership rows of the ideals ``prod d_i Z_{n_i}`` of ``Z_{n_1} x
    ... x Z_{n_k}``, sorted like :func:`~twindex.algebra._ideal_masks`, and
    each element's ``1 - a``, taken in every component of ``digits``."""
    masks = [np.arange(n) % _divisors(n)[:, None] == 0 for n in moduli]  # [d, a]: d | a
    one_minus = np.ravel_multi_index([(1 - a) % n for a, n in zip(digits, moduli)], moduli)
    return _sorted_ideals(_outer_and(masks)), one_minus


def _outer_and(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The boolean Kronecker product of ``parts``: rows and columns are tuples
    of the factors' rows and columns, in row-major order."""
    out = np.ones((1, 1), dtype=bool)
    for part in parts:
        out = (out[:, None, :, None] & part[None, :, None, :]).reshape(len(out) * len(part), -1)
    return out


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
    from .algebra import group_power_rules, ideal_from_spec, ring_from_spec, zmod_moduli

    kind, _, rest = spec.partition(":")
    if not rest:
        raise BadParameter(f"family spec {spec!r} needs a ':<parameters>' part")
    if kind == "power":
        rules = group_power_rules(rest)
        if len(rules) == 1 and rules[0].divisors:
            return _divisor_power_graph(rules[0])
        return _factor_power_graph(rules)
    if kind in ("zdg", "izdg", "comax"):
        ring_spec, _, ideal_spec = rest.partition(":") if kind == "izdg" else (rest, "", "")
        if kind == "izdg" and not ideal_spec.startswith("I="):
            raise BadParameter(f"izdg spec needs ':I=(...)', got {spec!r}")
        moduli = zmod_moduli(ring_spec)
        if moduli is not None:
            return _residue_graph(kind, moduli, ideal_spec[2:])
        r = ring_from_spec(ring_spec)
        if kind == "izdg":
            return ideal_zero_divisor_graph(r, ideal_from_spec(r, ideal_spec[2:]))
        return zero_divisor_graph(r) if kind == "zdg" else comaximal_ideal_graph(r)
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
