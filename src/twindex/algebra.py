"""Finite groups and finite commutative rings as explicit operation tables.

Everything is small enough (paper-style families, at most a few hundred
elements) that dense ``n x n`` numpy tables are the simplest uniform
representation: one code path covers ``Z_n``, dihedral and quaternion
groups, direct products, and polynomial quotient rings. The ideal lattice
is one boolean membership matrix, a row per ideal sorted by (size, elements):
the maximal ideals, the Jacobson radical and the comaximal ideal graph are
read off its rows, and an :class:`Ideal` is one row's members.

Every table proves its axioms at construction, whether the package built it
or the caller supplied it, and groups and rings go through one validation
path. :func:`_checked_table` checks the table's shape and entries, and that
the identity index is an integer in ``[0, n)`` and a two-sided identity; a
group's table and a ring's addition also prove associativity and inverses.
Element labels are stored as strings and must be unique, so a label names
exactly one element.

The associativity check is exact but costs ``O(|A| n^2)`` rather than
``O(n^3)``, by Light's associativity test (Clifford & Preston,
*The Algebraic Theory of Semigroups* I, section 1.2): if ``(x g) y == x (g y)``
holds for all ``x, y`` and every ``g`` in a set ``A`` that generates the
table, it holds for every ``g``, because the elements ``g`` for which it
holds are closed under the operation. Distributivity reduces the same way
to the generating set ``A`` of the additive group. A ring's multiplication
is then tested over that same ``A``, which is far smaller than a generating
set of the multiplicative monoid (1 element against 8 for ``Z2xZ3xZ5xZ7``):
with addition an abelian group and multiplication commutative and
distributive, multiplication is additive in each argument, so if ``g`` and
``h`` pass, both sides for ``g + h`` expand to ``(x g) y + (x h) y``, and the
elements that pass are closed under addition.

The generating set is found greedily by a word search: the next generator
is the greatest element that no left-nested word ``((g1 g2) g3) ...`` over
the generators already picked reaches. Every word lies in the closure, so a
set whose words cover the table generates it, and Light's test stays exact
on any table; on an associative table the words are the closure itself. The
reached words are grown by right multiplication, one scalar table read per
new member and generator, so a search reads the table about
``n (|A| + 1)`` times. A table with few products can make ``|A|`` near
``n``: one of order 2048 whose non-identity products are all the identity
takes 2047 generators and about two million reads before its
associativity check fails. The power graph of a table
(:func:`twindex.generators.power_graph`) walks the powers of one generator
per distinct cyclic subgroup ``C``, ``sum |C|`` Python steps, and reads
whether two subgroups are nested off one boolean (subgroups x n)
membership matrix.

Direct products of groups and of rings share one builder, which combines
each factor's ``(table, identity)`` pairs (one pair for a group, two for a
ring) by broadcasting, not by digit gathers: each factor's scaled table
lies along its own two axes of a ``sizes + sizes`` view of the
``(total, total)`` table and is summed into it.

Every table a constructor stores is read-only. A built-in constructor or
product hands over the table it just built, frozen, and it is stored as it
is; any other table, such as a caller's writeable array, is copied once, so
the caller's array stays writeable and later writes to it cannot change a
proven table.

Every table is stored as :data:`_TABLE` (int16), whose entries hold every
index below the order cap, and every built-in constructor builds its table
in that dtype, with no ``n x n`` int64 temporary. No table is allocated
beyond :data:`TABLE_BYTE_BUDGET` bytes (one int16 table of order at most
2048): every built-in constructor, direct product, spec parser and the
table check itself checks the order first and raises
:class:`~twindex.errors.OrderTooLarge`.

Compact spec strings such as ``"Z24"``, ``"Z2xZ2xZ4"``, ``"Z2[x]/(x^3)xZ2"``,
``"D12"``, ``"Q8"`` and ``"E2^3"`` are parsed by :func:`group_from_spec` /
:func:`ring_from_spec` for the command-line surface; both go through one
reader, which checks the order of the whole product before it builds any
factor. :func:`zmod_moduli` reads a ring spec through the same reader
and, for a product of ``Z_n`` (every ``n >= 2``), returns its moduli
without building a table: the ring graphs of such a product are built from
residue arithmetic (:mod:`twindex.generators`). :func:`group_power_rules`
reads any group spec the same way and returns each factor's power map
(:class:`PowerRule`), which lives beside the factor's constructor and
shares its labels: ``x^c`` is ``c a mod n`` in ``Z_n``; a rotation
``r^i`` of a dihedral group goes to ``r^(c i)`` and a reflection stays
itself for odd ``c`` and goes to ``1`` for even ``c``; ``Q8`` follows its
product rule; in ``E2^k``, ``x^c`` is ``x`` for odd ``c`` and ``0`` for
even ``c``. :func:`twindex.generators.family_graph` builds the power graph
of every group spec from those maps.
So a table is only built for a ring spec with a polynomial quotient, and
for the groups and rings a caller builds. The other spec paths keep the
order cap, with a message that names no table. Those paths also share
this module's rules that do not depend on tables: the element and set label
formats (:func:`_product_labels`, :func:`_set_label`), the row order of the
ideal lattice (:func:`_sorted_ideals`) and the lookup of an ideal's
generators by label (:func:`ideal_spec_generators`).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BadParameter, OrderTooLarge, RingMismatch, RingTooLarge

IDEAL_ENUM_CAP = 256
# The dtype of every operation table: it holds every index below the order cap.
_TABLE = np.dtype(np.int16)
# Bytes of one operation table, checked before any table is allocated.
TABLE_BYTE_BUDGET = 1 << 23
MAX_TABLE_ORDER = math.isqrt(TABLE_BYTE_BUDGET // _TABLE.itemsize)  # 2048


# --- checked tables and direct products ------------------------------------------


def _check_order(n: int, what: str, table: bool = True) -> None:
    """Raise :class:`OrderTooLarge` above :data:`MAX_TABLE_ORDER`, the order of
    the largest :data:`_TABLE` table that fits the budget.

    With ``table`` false nothing would be built as a table (a product of
    ``Z_n`` whose ring graphs come from residue arithmetic, or a group whose
    power graph comes from its factors' power maps), so the message names
    the cap, not the table budget.
    """
    if n > MAX_TABLE_ORDER:
        reason = (
            f"one {_TABLE} operation table would exceed the {TABLE_BYTE_BUDGET}-byte table budget"
            if table
            else "the order cap of every group and ring spec"
        )
        raise OrderTooLarge(f"{what} has order above {MAX_TABLE_ORDER}: {reason}")


def _element_index(x, n: int, what: str) -> int:
    """``x`` as an int in ``[0, n)``; numpy integers pass, ``bool`` and ``float`` raise."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise BadParameter(f"{what} {x!r} is not an integer")
    if not 0 <= x < n:
        raise BadParameter(f"{what} {x} out of range [0, {n})")
    return int(x)


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only so :func:`_checked_table` keeps it without a copy.

    Only for a fresh array that owns its memory and that its builder passes on
    and no longer writes.
    """
    table.setflags(write=False)
    return table


def _checked_table(table, n: int, identity: int, what: str) -> np.ndarray:
    """``table`` as a read-only ``n x n`` :data:`_TABLE` array with a two-sided identity.

    An order above :data:`MAX_TABLE_ORDER` raises :class:`OrderTooLarge`
    before anything is copied. A read-only :data:`_TABLE` array that owns its
    memory (see :func:`_frozen`) is kept as it is. Anything else is copied
    as int64, range-checked, and narrowed once, so an entry outside
    ``[0, n)`` raises rather than wrapping to a valid index; a caller's
    writeable array is neither frozen nor kept, and writing to it later
    cannot change a proven table. Checks the shape and the range of the
    entries, and that ``identity`` is an integer in ``[0, n)`` and a
    two-sided identity. Associativity is left to the caller, which knows the
    generating set that proves it.
    """
    _check_order(n, what)
    kept = isinstance(table, np.ndarray) and table.dtype == _TABLE
    kept = kept and not table.flags.writeable and table.base is None
    arr = table if kept else np.array(table, dtype=np.int64)
    if arr.shape != (n, n):
        raise BadParameter(f"{what} table must be {n}x{n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise BadParameter(f"{what} table entries must lie in [0, {n})")
    if not kept:
        arr = arr.astype(_TABLE)
    identity = _element_index(identity, n, f"{what} identity index")
    idx = np.arange(n)
    if not (np.array_equal(arr[identity], idx) and np.array_equal(arr[:, identity], idx)):
        raise BadParameter(f"element {identity} is not a two-sided identity for {what}")
    arr.setflags(write=False)
    return arr


def _checked_group_table(table, n: int, identity: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_checked_table`, associative over its own generating set, with inverses.

    Returns the table and that generating set.
    """
    arr = _checked_table(table, n, identity, what)
    gens = _generating_set(arr)
    _check_associative(arr, gens, what)
    if not (arr == identity).any(axis=1).all():
        raise BadParameter(f"some element has no inverse for {what}")
    return arr, gens


def _element_labels(labels: Sequence[str] | None, n: int) -> tuple[str, ...]:
    """``n`` distinct element labels as strings; ``"0" .. "n-1"`` when none are given."""
    labels = tuple(map(str, range(n) if labels is None else labels))
    if len(labels) != n:
        raise BadParameter(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise BadParameter("element labels must be unique")
    return labels


def _generating_set(table: np.ndarray) -> np.ndarray:
    """Greedy generators: the greatest element outside the words over those picked.

    The reached set ``R`` holds the left-nested words ``((g1 g2) g3) ...`` over
    the generators picked so far, and is closed under multiplication on the
    right by each of them. A new generator ``a`` joins ``R`` with ``r a`` for
    every old member ``r`` (one gather of column ``a``), and a stack walk
    multiplies each new member on the right by every generator, one scalar
    read each. Every word lies in the closure, so once ``R`` covers the table
    the set generates it, and the elements that pass Light's test are closed
    under the operation even when the table is not associative. On an
    associative table the words are all the products, so ``R`` is the closure
    and the greedy picks the elements a closure search would.

    A search reads the table about ``n (|gens| + 1)`` times. Taking elements
    from the top keeps the set small for the multiplicative monoids of product
    rings, whose low-indexed elements are rarely products of earlier ones. A
    table that is not associative may need more generators than its closure
    does; at worst, an order-2048 table whose non-identity products are all
    the identity takes 2047 generators and about two million reads.
    """
    n = table.shape[0]
    inside = bytearray(n)
    members, gens = [], []
    item = table.item
    for a in range(n - 1, -1, -1):
        if inside[a]:
            continue
        stack = table[members, a].tolist()
        stack.append(a)
        gens.append(a)
        while stack:
            x = stack.pop()
            if not inside[x]:
                inside[x] = 1
                members.append(x)
                for g in gens:
                    y = item(x, g)
                    if not inside[y]:
                        stack.append(y)
    return np.array(gens, dtype=np.int64)


def _check_associative(table: np.ndarray, gens: np.ndarray, what: str) -> None:
    """Light's test: ``(x g) y == x (g y)`` for all ``x, y`` and every ``g`` in ``gens``.

    Exact when the ``g`` that pass are known to cover the table from ``gens``:
    under the operation itself for any table, under addition for a ring's
    proven bi-additive multiplication.
    """
    for g in gens:
        if not np.array_equal(table[table[:, g]], np.take(table, table[g], axis=1)):
            raise BadParameter(f"{what} is not associative (witness element {g})")


def _check_distributive(add: np.ndarray, mul: np.ndarray, add_gens: np.ndarray) -> None:
    """``a (b + g) == a b + a g`` for all ``a, b`` and additive generators ``g``.

    Exact once addition is known to be associative: the ``g`` for which it
    holds are closed under addition. Both sides are laid out ``[a, b]`` and
    gathered by whole rows. The left, ``a (b + g)``, is the columns
    ``b + g`` of the multiplication table and needs no commutativity. The
    right reads ``a g + a b`` along each row (``np.take_along_axis``'s
    gather, with its row index built once), so it needs addition to be
    commutative, which ``FiniteRing`` proves first.
    """
    rows = np.arange(len(add))[:, None]
    for g in add_gens:
        left = np.take(mul, add[:, g], axis=1)
        right = add[mul[:, g]][rows, mul]
        if not np.array_equal(left, right):
            raise BadParameter(f"distributivity fails at element {g}")


def _product(cls, factors: Sequence, pairs: Callable) -> FiniteGroup | FiniteRing:
    """The direct product of ``factors``, built as ``cls``; one factor is its own product.

    ``pairs(f)`` lists a factor's ``(table, identity)`` pairs in constructor
    order: one for a group, addition then multiplication for a ring. Elements
    are tuples in row-major index order. Each product table is summed through
    one ``sizes + sizes`` view: factor ``j``'s table, scaled by its stride, is
    broadcast along axes ``j`` and ``k + j`` and added in.
    """
    if not factors:
        raise BadParameter("a direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    sizes = [len(f.element_labels) for f in factors]
    total, k = math.prod(sizes), len(sizes)
    name = "x".join(f.name for f in factors)
    _check_order(total, name)
    strides = [math.prod(sizes[j + 1 :]) for j in range(k)]
    tables, identities = [], []
    for parts in zip(*map(pairs, factors)):
        table = np.zeros((total, total), dtype=_TABLE)
        axes = table.reshape(sizes + sizes)
        for j, (factor_table, _) in enumerate(parts):
            shape = [1] * (2 * k)
            shape[j] = shape[k + j] = sizes[j]
            axes += (factor_table * strides[j]).reshape(shape)
        tables.append(_frozen(table))
        identities.append(sum(e * stride for (_, e), stride in zip(parts, strides)))
    return cls(*tables, *identities, _product_labels([f.element_labels for f in factors]), name=name)


def _product_labels(factor_labels: Sequence[Sequence[str]]) -> list[str]:
    """The element labels of a direct product in row-major order, ``(a,b,...)``
    from the factors' labels; one factor keeps its own."""
    if len(factor_labels) == 1:
        return list(factor_labels[0])
    return ["(" + ",".join(t) + ")" for t in itertools.product(*factor_labels)]


def _set_label(labels: Iterable[str]) -> str:
    """The label of a set of elements, such as an ideal: ``{a,b,...}``."""
    return "{" + ",".join(labels) + "}"


# --- groups -------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by its composition table.

    Construction proves every group axiom, associativity by Light's test over
    a generating set, and that the labels are distinct; instances are
    immutable.
    """

    def __init__(
        self,
        table,
        identity: int,
        labels: Sequence[str] | None = None,
        name: str = "group",
    ):
        self._table, _ = _checked_group_table(table, len(table), identity, "composition")
        self.identity = int(identity)
        self.name = name
        self.element_labels = _element_labels(labels, self.order)

    @property
    def order(self) -> int:
        return self._table.shape[0]

    def op(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inverse(self, a: int) -> int:
        return int(np.nonzero(self._table[a] == self.identity)[0][0])

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class PowerRule(NamedTuple):
    """One factor of a group spec as its power map, with no table.

    ``power(x, c)`` is the index of ``x^c`` for every element index in the
    array ``x`` and every integer ``c >= 1``, where ``c`` may also be an
    integer array broadcast against ``x``; ``labels`` are the labels its
    constructor gives, and ``exponent`` is the lcm of the element orders.
    ``divisors`` is ``(n, dihedral)`` for ``Z_n`` (``n >= 2``) and for the
    dihedral group of order ``2n``, whose power graphs alone follow from the
    divisors of ``n``.
    """

    labels: Sequence[str]
    exponent: int
    power: Callable[[np.ndarray, int], np.ndarray]
    divisors: tuple[int, bool] | None = None


def cyclic_group(n: int) -> FiniteGroup:
    """Integers modulo ``n`` under addition, elements labeled ``0..n-1``."""
    if n < 1:
        raise BadParameter(f"cyclic group needs n >= 1, got {n}")
    _check_order(n, f"Z{n}")
    return FiniteGroup(_sum_mod(n), 0, _residue_labels(n), name=f"Z{n}")


def _sum_mod(n: int) -> np.ndarray:
    """The read-only table of ``a + b mod n``: row ``a`` is the window
    ``a .. a + n - 1`` of ``0 .. n-1`` written twice, copied once."""
    idx = np.arange(n, dtype=_TABLE)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((idx, idx)), n)
    return _frozen(windows[:n].copy())


def _residue_labels(n: int) -> list[str]:
    """The element labels of ``Z_n``, as a group or a ring: ``0 .. n-1``."""
    return [str(a) for a in range(n)]


def _cyclic_rule(n: int) -> PowerRule:
    """``Z_n``'s power map: ``c`` times ``a`` is ``c a mod n``."""
    return PowerRule(_residue_labels(n), n, lambda x, c: x * c % n, (n, False) if n >= 2 else None)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order ``2n`` (``n >= 3``): rotations then reflections.

    Element ``a*n + i`` stands for ``s^a r^i``; the product rule
    ``(s^a r^i)(s^b r^j) = s^(a+b) r^(j + (-1)^b i)`` fills the table.
    """
    if n < 3:
        raise BadParameter(f"dihedral group needs n >= 3, got {n}")
    order = 2 * n
    _check_order(order, f"D{order}")
    idx = np.arange(order, dtype=_TABLE)
    a, i = idx // n, idx % n
    table = (a[:, None] + a) % 2 * n + (i + (1 - 2 * a) * i[:, None]) % n
    return FiniteGroup(_frozen(table), 0, _dihedral_labels(n), name=f"D{order}")


def _dihedral_labels(n: int) -> list[str]:
    """The element labels of the dihedral group of order ``2n``: the rotations
    ``1, r, r2, ...`` then the reflections ``s, sr, sr2, ...``."""
    labels = ["1"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    return labels + ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, n)]


def _dihedral_rule(n: int) -> PowerRule:
    """The power map of the dihedral group of order ``2n``: ``r^i`` goes to
    ``r^(c i)``; a reflection has order 2, so it stays itself for odd ``c``
    and goes to ``1`` for even ``c``."""

    def power(x: np.ndarray, c: int) -> np.ndarray:
        return np.where(x < n, x * c % n, x * (c % 2))

    return PowerRule(_dihedral_labels(n), math.lcm(n, 2), power, (n, True))


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on ``1, a, a2, a3, b, ab, a2b, a3b``.

    Element ``4j + i`` stands for ``a^i b^j``; the product rule
    ``(a^i b^j)(a^k b^l) = a^(i + (-1)^j k + 2jl) b^(j xor l)`` fills the table.
    """
    idx = np.arange(8, dtype=_TABLE)
    return FiniteGroup(_frozen(_quaternion_product(idx[:, None], idx)), 0, _QUATERNION_LABELS, name="Q8")


_QUATERNION_LABELS = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")


def _quaternion_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The indices of the products ``x y`` in the quaternion group, broadcast."""
    j, i, l, k = x // 4, x % 4, y // 4, y % 4
    return (j ^ l) * 4 + (i + (1 - 2 * j) * k + 2 * (j & l)) % 4


@cache
def _quaternion_rule() -> PowerRule:
    """The quaternion group's power map, from its product rule: every element
    has order dividing 4, so ``x^c`` is read off the table of ``x^0 .. x^3``."""
    x = np.arange(8)
    powers = [np.zeros_like(x)]
    for _ in range(3):
        powers.append(_quaternion_product(powers[-1], x))
    table = _frozen(np.array(powers))  # [c, x]: x^c
    return PowerRule(_QUATERNION_LABELS, 4, lambda y, c: table[c % 4, y])


def elementary_abelian_2(k: int) -> FiniteGroup:
    """The group ``(Z_2)^k``: XOR on bit vectors, labeled as binary strings."""
    if k < 1:
        raise BadParameter(f"elementary abelian 2-group needs k >= 1, got {k}")
    n = 1 << k
    _check_order(n, f"E2^{k}")
    idx = np.arange(n, dtype=_TABLE)
    table = idx[:, None] ^ idx[None, :]
    return FiniteGroup(_frozen(table), 0, _binary_labels(k), name=f"E2^{k}")


def _binary_labels(k: int) -> list[str]:
    """The element labels of ``(Z_2)^k``: its ``k``-bit binary strings."""
    return [format(i, f"0{k}b") for i in range(1 << k)]


def _elementary_abelian_2_rule(k: int) -> PowerRule:
    """The power map of ``(Z_2)^k``: ``x`` for odd ``c``, ``0`` for even ``c``."""
    return PowerRule(_binary_labels(k), 2, lambda x, c: x * (c % 2))


def group_product(*groups: FiniteGroup) -> FiniteGroup:
    """Direct product; elements are tuples in row-major index order."""
    return _product(FiniteGroup, groups, lambda g: [(g._table, g.identity)])


# --- rings --------------------------------------------------------------------


class FiniteRing:
    """A finite commutative ring with unity given by its two tables.

    Construction proves ``zero != one`` for size >= 2 before it reads any
    table, then the abelian additive group, commutative multiplication with
    identity, distributivity, associative multiplication, and that the
    labels are distinct. Addition is proved associative by Light's test over
    its own generating set; distributivity and then the associativity of
    multiplication are proved over that same additive generating set, which
    is exact because multiplication is additive in each argument by then.
    """

    def __init__(
        self,
        add,
        mul,
        zero: int,
        one: int,
        labels: Sequence[str] | None = None,
        name: str = "ring",
    ):
        n = len(add)
        zero = _element_index(zero, n, "addition identity index")
        one = _element_index(one, n, "multiplication identity index")
        if n >= 2 and zero == one:
            raise BadParameter("zero and one must differ for size >= 2")
        add_t, add_gens = _checked_group_table(add, n, zero, "addition")
        mul_t = _checked_table(mul, n, one, "multiplication")
        if not np.array_equal(add_t, add_t.T):
            raise BadParameter("addition is not commutative")
        if not np.array_equal(mul_t, mul_t.T):
            raise BadParameter("multiplication is not commutative")
        _check_distributive(add_t, mul_t, add_gens)
        # Multiplication is now additive in each argument, so the g that pass
        # Light's test are closed under addition: the additive generators suffice.
        _check_associative(mul_t, add_gens, "multiplication")
        self._add = add_t
        self._mul = mul_t
        self.zero = zero
        self.one = one
        self.name = name
        self.element_labels = _element_labels(labels, n)
        self.label_index = {s: i for i, s in enumerate(self.element_labels)}

    @property
    def size(self) -> int:
        return self._add.shape[0]

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def __repr__(self):
        return f"FiniteRing({self.name}, size={self.size})"


def zmod(n: int) -> FiniteRing:
    """The ring of integers modulo ``n`` (``n >= 2``)."""
    if n < 2:
        raise BadParameter(f"Z_n needs n >= 2, got {n}")
    _check_order(n, f"Z{n}")
    idx = np.arange(n, dtype=np.int32)  # a * b overflows int16 before the remainder
    mul = np.remainder(idx[:, None] * idx, n, out=np.empty((n, n), dtype=_TABLE))
    return FiniteRing(
        _sum_mod(n),
        _frozen(mul),
        0,
        1,
        _residue_labels(n),
        name=f"Z{n}",
    )


def ring_product(*rings: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations and tuple labels."""
    return _product(FiniteRing, rings, lambda r: [(r._add, r.zero), (r._mul, r.one)])


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _monic_modulus(p: int, coeffs: Sequence[int]) -> list[int]:
    """The coefficients reduced mod ``p``, leading zeros dropped; checks ``p`` prime,
    degree >= 1 and a monic leading term."""
    if not _is_prime(p):
        raise BadParameter(f"modulus {p} is not prime")
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise BadParameter("quotient polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise BadParameter("quotient polynomial must be monic")
    return coeffs


def poly_quotient_ring(p: int, coeffs: Sequence[int]) -> FiniteRing:
    """``Z_p[x]`` modulo the monic polynomial with the given coefficients.

    ``coeffs[i]`` is the coefficient of ``x^i``; the leading coefficient must
    reduce to 1 mod ``p`` and the degree must be at least 1. Elements are the
    ``p^deg`` residue polynomials, labeled like ``"1+x+x2"``.
    """
    coeffs = _monic_modulus(p, coeffs)
    deg = len(coeffs) - 1
    size = p**deg
    name = f"Z{p}[x]/({_poly_label(coeffs)})"
    _check_order(size, name)

    # digits[a, i]: the coefficient of x^i in element a, whose index is
    # sum_i digits[a, i] * p^i.
    place = p ** np.arange(deg, dtype=_TABLE)
    digits = np.arange(size, dtype=_TABLE)[:, None] // place % p
    add = np.zeros((size, size), dtype=_TABLE)
    for i in range(deg):
        add += (digits[:, i, None] + digits[:, i]) % p * place[i]
    # scaled[c, a] = c * a; c times a digit overflows int16 before the remainder.
    scaled = (np.arange(p, dtype=np.int32)[:, None, None] * digits % p @ place).astype(_TABLE)
    # x * a: the digits move up one place and the lead coefficient folds back
    # through x^deg = -(coeffs[0] + ... + coeffs[deg-1] x^(deg-1)).
    shifted = np.zeros_like(digits)
    shifted[:, 1:] = digits[:, :-1]
    times_x = (shifted - digits[:, -1:] * np.array(coeffs[:deg])) % p @ place
    # a * b = sum_i digits[a, i] * (x^i b), summed through the addition table.
    mul = np.zeros((size, size), dtype=_TABLE)
    power = np.arange(size)  # x^i b for every b
    for i in range(deg):
        mul = add[mul, scaled[digits[:, i][:, None], power]]
        power = times_x[power]
    labels = [_poly_label(cs) for cs in digits.tolist()]
    return FiniteRing(_frozen(add), _frozen(mul), 0, 1, labels, name=name)


def _poly_label(cs: Sequence[int]) -> str:
    terms = []
    for d, c in enumerate(cs):
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        elif d == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x{d}" if c == 1 else f"{c}x{d}")
    return "+".join(terms) if terms else "0"


# --- ideals -------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """A subset of a finite ring closed under addition and external products."""

    ring: FiniteRing
    elements: tuple[int, ...]
    members: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = frozenset(self.elements)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "elements", tuple(sorted(members)))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def is_proper(self) -> bool:
        return len(self.elements) < self.ring.size

    def label(self) -> str:
        return _set_label(self.ring.element_labels[x] for x in self.elements)


def ideal_generated(r: FiniteRing, gens: Iterable[int] = ()) -> Ideal:
    """Smallest ideal containing ``gens``: the sum of the principal ideals ``R g``.

    A generator already in the ideal is skipped, so every sum at least
    doubles the ideal and at most ``log2 |R|`` sums are taken.
    """
    ideal = Ideal(r, (r.zero,))
    for g in gens:
        g = _element_index(g, r.size, "generator")
        if g not in ideal:
            ideal = ideal_sum(ideal, Ideal(r, tuple(r._mul[:, g].tolist())))
    return ideal


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    """The ideal ``I + J = {a + b : a in I, b in J}``."""
    if i.ring is not j.ring:
        raise RingMismatch("cannot sum ideals of different rings")
    r = i.ring
    table = r._add[np.ix_(np.array(i.elements), np.array(j.elements))]
    return Ideal(r, tuple(set(table.ravel().tolist())))


def _check_ideal_cap(size: int) -> None:
    """Raise :class:`RingTooLarge` for a ring above :data:`IDEAL_ENUM_CAP` elements."""
    if size > IDEAL_ENUM_CAP:
        raise RingTooLarge(f"ring size {size} exceeds the enumeration cap {IDEAL_ENUM_CAP}")


def _ideal_masks(r: FiniteRing) -> np.ndarray:
    """Every ideal of ``r`` as a row of one boolean membership matrix, sorted
    by (size, element list); the last row is the whole ring.

    The principal ideals ``R x`` are the distinct rows of one boolean mask
    matrix (with a one, ``R x`` is already closed under addition); every other
    ideal is a finite sum of principal ones, so closing the found ideals under
    sums with principal ones is complete.

    Most sums are read off the found ideals, not summed. For a found ideal
    ``I`` and a principal ``J`` the mask product gives ``|I & J|``, and the
    second isomorphism theorem for the additive group gives
    ``|I + J| = |I| |J| / |I & J|``. A found ``K`` contains ``I`` exactly when
    ``|K & I| = |I|``, read from the same products. Every ideal that contains
    both ``I`` and ``J`` contains ``I + J``, so one of size ``|I + J|`` is
    ``I + J``. Only pairs that no found ideal explains in this way are summed
    through the addition table, and their sums are tested in turn. On a
    principal ideal ring every sum is principal, so nothing is summed. The
    test takes at most n new ideals at a time and one size of ``K`` at a
    time, so besides the n x n mask every temporary holds O(f * n) entries
    for f found ideals, never one per (found, found, principal) triple.
    """
    _check_ideal_cap(r.size)
    n = r.size
    # One scatter of the multiplication table; a flat index would be an n x n
    # intp temporary, the largest allocation of the whole enumeration.
    masks = np.zeros((n, n), dtype=bool)
    masks[np.arange(n)[:, None], r._mul] = True  # row x: the members of R x
    packed = np.packbits(masks, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()  # one opaque key per row
    keys, first = np.unique(rows, return_index=True)
    seen = {key.tobytes() for key in keys}
    principal = masks[first]
    principal_i = principal.astype(np.int32)
    principal_size = principal.sum(axis=1)
    found = principal  # rows [start:] are the ideals not yet tested
    start = 0
    while start < len(found):
        stop = min(len(found), start + n)  # at most n new ideals per batch
        found_i = found.astype(np.int32)
        size = found.sum(axis=1)
        new_size = size[start:stop]
        in_principal = found_i @ principal_i.T  # [K, J]: |K & J|
        # [K, I]: |K & I| for every new I; the first batch is the principal ideals.
        in_new = in_principal if start == 0 else found_i @ found_i[start:stop].T
        joint = in_principal[start:stop]  # |I & J|
        product = new_size[:, None] * principal_size
        explained = np.zeros(joint.shape, dtype=bool)
        for s in set(size.tolist()):
            target = joint * s == product  # |I + J| == s
            if not target.any():
                continue
            k = size == s
            holds_i = in_new[k] == new_size
            holds_j = in_principal[k] == principal_size
            explained |= target & (holds_i.T @ holds_j)  # some K holds both
        if start == 0:  # both principal: test each unordered pair once
            explained |= np.triu(np.ones(explained.shape, dtype=bool))
        sums = []
        for i, j in zip(*np.nonzero(~explained)):
            total = np.zeros(n, dtype=bool)
            members = np.flatnonzero(found[start + i])
            total[r._add[members[:, None], np.flatnonzero(principal[j])]] = True
            key = np.packbits(total).tobytes()
            if key not in seen:
                seen.add(key)
                sums.append(total)
        start = stop
        if sums:
            found = np.vstack([found, sums])
    return _sorted_ideals(found)


def _sorted_ideals(masks: np.ndarray) -> np.ndarray:
    """The membership rows ``masks`` sorted by (size, element list)."""
    # Of two equal-sized ideals the one holding the least element of their
    # difference sorts first: its row has the first True where the rows
    # differ, so the greater byte where their packed rows (first element in
    # the high bit) differ. One sort key per byte, not per element.
    packed = np.packbits(masks, axis=1)
    return masks[np.lexsort(np.vstack([~packed.T[::-1], masks.sum(axis=1)]))]


def _maximal_rows(masks: np.ndarray) -> np.ndarray:
    """Indices of the rows of :func:`_ideal_masks` that are maximal ideals:
    the proper rows that no other proper row contains."""
    proper = masks[:-1]  # the last row is the whole ring
    # [I, K]: no member of I lies outside K. A float32 product runs on BLAS,
    # where a bool one has no kernel, and counts exactly below 2^24; an
    # ideal row holds at most 2048 elements.
    outside = proper.astype(np.float32) @ (~proper.T).astype(np.float32)
    return np.flatnonzero((outside == 0).sum(axis=1) == 1)


def all_ideals(r: FiniteRing) -> list[Ideal]:
    """Every ideal of ``r``, sorted by (size, element list)."""
    return [Ideal(r, tuple(np.flatnonzero(row).tolist())) for row in _ideal_masks(r)]


def maximal_ideals(r: FiniteRing) -> list[Ideal]:
    """Proper ideals maximal under inclusion."""
    masks = _ideal_masks(r)
    return [Ideal(r, tuple(np.flatnonzero(row).tolist())) for row in masks[_maximal_rows(masks)]]


# --- compact spec strings -------------------------------------------------------


def _split_top_level(s: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(s):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise BadParameter(f"unbalanced brackets in {s!r}")
        elif ch == sep and depth == 0:
            parts.append(s[start:pos])
            start = pos + 1
    if depth != 0:
        raise BadParameter(f"unbalanced brackets in {s!r}")
    parts.append(s[start:])
    return parts


def _parse_poly(text: str) -> list[int]:
    """The integer coefficients of ``text``, lowest degree first, not yet reduced."""
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise BadParameter(f"empty term in polynomial {text!r}")
        if "x" not in term:
            try:
                coeffs[0] = coeffs.get(0, 0) + int(term)
            except ValueError:
                raise BadParameter(f"bad constant term {term!r}") from None
            continue
        c_str, _, d_str = term.partition("x")
        try:
            c = int(c_str) if c_str else 1
            d = int(d_str.lstrip("^")) if d_str else 1
        except ValueError:
            raise BadParameter(f"bad polynomial term {term!r}") from None
        if d < 0:
            raise BadParameter(f"negative exponent in polynomial term {term!r}")
        coeffs[d] = coeffs.get(d, 0) + c
    return [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse group specs like ``Z6``, ``D12``, ``Q8``, ``E2^3`` or products."""
    return _read_spec(spec, "group")


def ring_from_spec(spec: str) -> FiniteRing:
    """Parse ring specs like ``Z24``, ``Z2xZ2xZ4`` or ``Z2[x]/(x^3)xZ2``."""
    return _read_spec(spec, "ring")


def _read_spec(spec: str, kind: str) -> FiniteGroup | FiniteRing:
    """The group or ring (``kind``) that ``spec`` names: ``x``-joined factors."""
    product = group_product if kind == "group" else ring_product
    factors = _spec_factors(spec, kind)
    _check_spec_order(spec, factors)
    return product(*(build() for _, build in factors))


def zmod_moduli(spec: str) -> tuple[int, ...] | None:
    """The moduli ``(n_1, ..., n_k)`` of a ring spec ``Z<n_1>x...xZ<n_k>``
    with every ``n_i >= 2``; ``None`` for any other ring spec.

    It reads the spec as :func:`ring_from_spec` does and raises what that
    raises before building anything: :class:`BadParameter` for a malformed
    spec, :class:`OrderTooLarge` above the order cap, whose message names no
    table for a product of ``Z_n``. A factor below 2 gives ``None``, so its
    constructor still rejects or builds it.
    """
    factors = _spec_factors(spec, "ring")
    residue = all(isinstance(b, partial) and b.func is zmod and k >= 2 for k, b in factors)
    _check_spec_order(spec, factors, table=not residue)
    return tuple(k for k, _ in factors) if residue else None


def group_power_rules(spec: str) -> list[PowerRule]:
    """The :class:`PowerRule` of every ``x``-joined factor of the group spec
    ``spec``, with no table built.

    It reads the spec as :func:`group_from_spec` does and raises what that
    raises, except that the order cap's message names no table. Where some
    factor's order is below 1 there is no group, and the first factor that
    its constructor refuses raises, before that allocates anything.
    """
    factors = _spec_factors(spec, "group")
    if min(order for order, _ in factors) < 1:
        next(build for order, build in factors if not 1 <= order <= MAX_TABLE_ORDER)()
    _check_spec_order(spec, factors, table=False)
    return [_power_rule(build) for _, build in factors]


def _power_rule(build: Callable) -> PowerRule:
    """The power rule of the group factor that ``build()`` would construct."""
    rules = {
        cyclic_group: _cyclic_rule,
        dihedral_group: _dihedral_rule,
        quaternion_group: _quaternion_rule,
        elementary_abelian_2: _elementary_abelian_2_rule,
    }
    return rules[getattr(build, "func", build)](*getattr(build, "args", ()))


def _spec_factors(spec: str, kind: str) -> list[tuple[int, Callable]]:
    """The ``(order, builder)`` of every ``x``-joined factor of ``spec``, each
    order read off the text, so that the product's order is checked before
    anything is allocated."""
    spec = spec.strip()
    if not spec:
        raise BadParameter(f"empty {kind} spec")
    return [_spec_factor(atom, kind) for atom in _split_top_level(spec, "x")]


def _check_spec_order(spec: str, factors: list[tuple[int, Callable]], table: bool = True) -> None:
    """:func:`_check_order` of the product of ``factors``; a factor of order
    below 1 is left for its constructor to reject."""
    orders = [order for order, _ in factors]
    if min(orders) >= 1:
        _check_order(math.prod(orders), spec, table)


def _spec_factor(atom: str, kind: str) -> tuple[int, Callable]:
    """One factor of a spec: its order, read off the text, and its builder."""
    if kind == "group" and atom == "Q8":
        return 8, quaternion_group
    # Only a ring factor may carry a polynomial quotient ``Z<p>[x]/(<poly>)``.
    head, bracket, rest = atom.partition("[") if kind == "ring" else (atom, "", "")
    prefix = next((p for p in ("Z", "D", "E2^") if head.startswith(p)), "")
    if bracket and not (prefix == "Z" and rest.startswith("x]/(") and rest.endswith(")")):
        raise BadParameter(f"bad quotient ring spec {atom!r}")
    if not prefix or (kind == "ring" and prefix != "Z"):
        raise BadParameter(f"unknown {kind} spec {atom!r}")
    try:
        k = int(head[len(prefix) :])
    except ValueError:
        raise BadParameter(f"bad {kind} spec {atom!r}") from None
    if bracket:
        coeffs = _monic_modulus(k, _parse_poly(rest[len("x]/(") : -1]))
        return k ** (len(coeffs) - 1), partial(poly_quotient_ring, k, coeffs)
    if prefix == "D":
        if k % 2 or k < 6:
            raise BadParameter(f"dihedral spec needs an even order >= 6, got {atom!r}")
        return k, partial(dihedral_group, k // 2)
    if prefix == "E2^":
        if k < 1:
            raise BadParameter(f"bad group spec {atom!r}")
        return 1 << k, partial(elementary_abelian_2, k)
    return k, partial(cyclic_group if kind == "group" else zmod, k)


def ideal_from_spec(r: FiniteRing, spec: str) -> Ideal:
    """Parse an ideal given by generator labels, e.g. ``(8)`` or ``((0,1))``."""
    return ideal_generated(r, ideal_spec_generators(spec, r.element_labels, repr(r)))


def ideal_spec_generators(spec: str, labels: Sequence[str], ring: str) -> list[int]:
    """The indices of the generator labels of an ideal spec such as ``(8)``,
    ``((0,1))`` or ``()`` among ``labels``, the element labels of the ring
    ``ring``. A label names an element iff it is in that list; any other
    raises :class:`BadParameter`.
    """
    spec = spec.strip()
    if not (spec.startswith("(") and spec.endswith(")")):
        raise BadParameter(f"ideal spec must be parenthesized, got {spec!r}")
    inner = spec[1:-1].strip()
    gens = [part.strip() for part in _split_top_level(inner, ",")] if inner else []
    for label in gens:
        if label not in labels:
            raise BadParameter(f"unknown element label {label!r} in {ring}")
    return [labels.index(label) for label in gens]
