"""Groups, rings, ideals, and the compact spec-string grammar."""

import importlib.util
import itertools
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindex import algebra
from twindex import (
    BadParameter,
    LocalRingUnsupported,
    OrderTooLarge,
    RingMismatch,
    RingTooLarge,
)
from twindex.algebra import (
    IDEAL_ENUM_CAP,
    MAX_TABLE_ORDER,
    TABLE_BYTE_BUDGET,
    _TABLE,
    FiniteGroup,
    FiniteRing,
    Ideal,
    _check_associative,
    _check_distributive,
    _check_order,
    _generating_set,
    _split_top_level,
    all_ideals,
    cyclic_group,
    dihedral_group,
    elementary_abelian_2,
    group_from_spec,
    group_product,
    ideal_from_spec,
    ideal_generated,
    ideal_sum,
    maximal_ideals,
    poly_quotient_ring,
    quaternion_group,
    ring_from_spec,
    ring_product,
    zmod,
)
from twindex.generators import comaximal_ideal_graph, family_graph, power_graph
from twindex.graph import parse_graph, render_graph

from conftest import GROUP_SWEEP, LARGE_GROUPS, RING_SWEEP, cyclic_subgroup


class TestGroups:
    def test_cyclic_basics(self):
        g = cyclic_group(6)
        assert g.order == 6
        assert g.element_labels[g.identity] == "0"
        assert g.op(4, 5) == 3

    def test_cyclic_subgroups_of_z6(self):
        g = cyclic_group(6)
        assert cyclic_subgroup(g, 2) == {0, 2, 4}
        assert cyclic_subgroup(g, 1) == set(range(6))

    def test_dihedral_order_two_elements(self):
        g = dihedral_group(6)
        assert g.order == 12
        squares_to_identity = [a for a in range(12) if g.op(a, a) == g.identity]
        # identity, r^3, and the six reflections
        assert len(squares_to_identity) == 8
        assert sum(1 for a in squares_to_identity if a != g.identity) == 7

    def test_dihedral_relation(self):
        g = dihedral_group(5)
        r, s = 1, 5
        # r s = s r^{-1}
        assert g.op(r, s) == g.op(s, g.inverse(r))

    def test_quaternion_unique_involution(self):
        g = quaternion_group()
        involutions = [a for a in range(8) if a != g.identity and g.op(a, a) == g.identity]
        assert involutions == [g.element_labels.index("a2")]

    def test_quaternion_subgroup_of_b(self):
        g = quaternion_group()
        b = g.element_labels.index("b")
        names = {g.element_labels[x] for x in cyclic_subgroup(g, b)}
        assert names == {"1", "b", "a2", "a2b"}

    def test_elementary_abelian(self):
        g = elementary_abelian_2(3)
        assert g.order == 8
        assert g.element_labels[0] == "000"
        assert all(g.op(a, a) == g.identity for a in range(1, 8))

    def test_product_order(self):
        g = group_product(cyclic_group(2), cyclic_group(3))
        assert g.order == 6
        assert g.element_labels[0] == "(0,0)"

    def test_product_identity_from_factors(self):
        # Z3 relabelled so that element 2 is the identity.
        z3 = FiniteGroup([[(i + j + 1) % 3 for j in range(3)] for i in range(3)], 2, name="Z3'")
        g = group_product(z3, cyclic_group(2))
        assert g.identity == 4
        assert g.element_labels[g.identity] == "(2,0)"
        h = group_product(cyclic_group(2), z3)
        assert h.identity == 2
        assert h.element_labels[h.identity] == "(0,2)"

    def test_single_factor_is_its_own_product(self):
        g = cyclic_group(5)
        assert group_product(g) is g

    @pytest.mark.parametrize("identity", [-1, -5, 6])
    def test_identity_out_of_range(self, identity):
        with pytest.raises(BadParameter):
            FiniteGroup(cyclic_group(6)._table, identity)

    @pytest.mark.parametrize("identity", [1.5, 0.0, True, False, np.bool_(False), np.float64(0)])
    def test_identity_not_an_integer(self, identity):
        # A float is no table index, and a bool would index the table as a mask.
        with pytest.raises(BadParameter, match="not an integer"):
            FiniteGroup(cyclic_group(3)._table, identity)

    @pytest.mark.parametrize("identity", [np.int64(0), np.int32(0), np.uint8(0)])
    def test_numpy_integer_identity(self, identity):
        g = FiniteGroup(cyclic_group(3)._table, identity)
        assert g.identity == 0 and type(g.identity) is int
        assert g.inverse(1) == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(BadParameter, match="unique"):
            FiniteGroup(cyclic_group(6)._table, 0, ["0", "1", "2", "1", "4", "5"])

    @pytest.mark.parametrize("labels", [["a", "b"], ["a", "b", "c", "d"]])
    def test_label_count_checked(self, labels):
        with pytest.raises(BadParameter, match="expected 3 labels"):
            FiniteGroup(cyclic_group(3)._table, 0, labels)

    @pytest.mark.parametrize("table", [[[0, 1], [1, 0], [0, 1]], [[0, 1, 2], [1, 2, 0]]])
    def test_table_shape_checked(self, table):
        with pytest.raises(BadParameter, match="table must be"):
            FiniteGroup(table, 0)

    @pytest.mark.parametrize("product", [group_product, ring_product])
    def test_empty_product_rejected(self, product):
        with pytest.raises(BadParameter, match="at least one factor"):
            product()

    def test_labels_are_strings(self):
        # Graph labels must be strings for the JSON format to read them back.
        g = power_graph(FiniteGroup(cyclic_group(3)._table, 0, [0, 1, 2]))
        assert g.labels == ("0", "1", "2")
        assert parse_graph(render_graph(g, "json"), "json") == g
        with pytest.raises(BadParameter, match="unique"):
            FiniteGroup(cyclic_group(2)._table, 0, [1, "1"])

    @pytest.mark.parametrize("build", [lambda: cyclic_group(0), lambda: dihedral_group(2), lambda: elementary_abelian_2(0)])
    def test_bad_parameters(self, build):
        with pytest.raises(BadParameter):
            build()

    def test_axioms_verified(self):
        # left shift table: no identity element
        with pytest.raises(BadParameter):
            FiniteGroup([[1, 0], [1, 0]], 0)
        # the monoid {1, 0} under multiplication: 0 has no inverse
        with pytest.raises(BadParameter, match="no inverse"):
            FiniteGroup([[0, 1], [1, 1]], 0)
        # not associative
        table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(BadParameter):
            FiniteGroup(table, 0)

    def test_caller_table_stays_writeable_and_apart(self):
        t = (np.arange(3)[:, None] + np.arange(3)) % 3
        g = FiniteGroup(t, 0)
        assert t.flags.writeable and not g._table.flags.writeable
        t[0, 0] = 1
        assert g._table[0, 0] == 0 and g.op(0, 0) == 0

    @pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
    def test_entries_checked_before_narrowing(self, wrap):
        # 65537 narrowed to int16 first would wrap to 1, and the table would
        # pass as Z2.
        with pytest.raises(BadParameter, match="entries must lie in"):
            FiniteGroup(wrap([[0, 65537], [1, 0]]), 0)
        with pytest.raises(BadParameter, match="entries must lie in"):
            FiniteRing([[0, 1], [1, 0]], wrap([[0, 0], [0, 65537]]), 0, 1)

    def test_non_associative_at_the_order_cap(self):
        # Identity 0 and every other product 0: inverses exist, but nothing
        # but 0 is a product, so the greedy takes all 2047 other elements.
        n = MAX_TABLE_ORDER
        table = np.zeros((n, n), dtype=np.int64)
        table[0] = table[:, 0] = np.arange(n)
        assert len(_generating_set(table)) == n - 1
        with pytest.raises(BadParameter, match="not associative"):
            FiniteGroup(table, 0)


class TestRings:
    def test_zmod_basics(self):
        r = zmod(24)
        assert r.size == 24
        assert r.one == 1
        assert r.mul(6, 4) == 0

    def test_zmod_needs_two_elements(self):
        with pytest.raises(BadParameter):
            zmod(1)

    def test_poly_quotient(self):
        r = poly_quotient_ring(2, [0, 0, 0, 1])  # Z_2[x] / (x^3)
        assert r.size == 8
        x = r.label_index["x"]
        assert r.mul(r.mul(x, x), x) == r.zero
        assert r.element_labels[r.mul(x, x)] == "x2"
        assert "x+x2" in r.element_labels

    def test_poly_quotient_rejects_composite_modulus(self):
        with pytest.raises(BadParameter):
            poly_quotient_ring(4, [0, 0, 1])

    def test_poly_quotient_rejects_non_monic(self):
        with pytest.raises(BadParameter):
            poly_quotient_ring(3, [1, 2])

    def test_product_ring(self):
        r = ring_product(zmod(6), zmod(2))
        assert r.size == 12
        assert r.element_labels[r.one] == "(1,1)"
        a, b = r.label_index["(3,1)"], r.label_index["(2,0)"]
        assert r.element_labels[r.mul(a, b)] == "(0,0)"
        assert r.element_labels[r.add(a, b)] == "(5,1)"

    def test_product_zero_and_one_from_factors(self):
        # Z3 relabelled so that element i stands for i + 1: zero is 2, one is 0.
        z3 = FiniteRing(
            [[(i + j + 1) % 3 for j in range(3)] for i in range(3)],
            [[((i + 1) * (j + 1) + 2) % 3 for j in range(3)] for i in range(3)],
            2,
            0,
            name="Z3'",
        )
        r = ring_product(z3, zmod(2))
        assert (r.zero, r.one) == (4, 1)
        assert (r.element_labels[r.zero], r.element_labels[r.one]) == ("(2,0)", "(0,1)")
        s = ring_product(zmod(2), z3)
        assert (s.zero, s.one) == (2, 3)
        assert (s.element_labels[s.zero], s.element_labels[s.one]) == ("(0,2)", "(1,0)")

    def test_single_factor_is_its_own_product(self):
        r = zmod(5)
        assert ring_product(r) is r

    @pytest.mark.parametrize("index", [-1, -5, 6])
    @pytest.mark.parametrize("which", ["zero", "one"])
    def test_zero_and_one_out_of_range(self, which, index):
        # An index from the end (-5 is element 1 of Z6) must not pass as
        # zero or one, and 6 must not reach the table as an index.
        r = zmod(6)
        identities = {"zero": r.zero, "one": r.one, which: index}
        with pytest.raises(BadParameter, match="out of range"):
            FiniteRing(r._add, r._mul, **identities)

    @pytest.mark.parametrize("index", [1.0, 1.5, True, np.float64(1)])
    @pytest.mark.parametrize("which", ["zero", "one"])
    def test_zero_and_one_not_integers(self, which, index):
        r = zmod(6)
        identities = {"zero": r.zero, "one": r.one, which: index}
        with pytest.raises(BadParameter, match="not an integer"):
            FiniteRing(r._add, r._mul, **identities)

    def test_numpy_integer_zero_and_one(self):
        r = zmod(6)
        s = FiniteRing(r._add, r._mul, np.int64(0), np.int64(1))
        assert (s.zero, s.one) == (0, 1)
        assert type(s.zero) is int and type(s.one) is int

    @pytest.mark.parametrize("mul", ["mul", "add"])
    def test_zero_equals_one_rejected(self, mul):
        # Reported before any table check: with zero as one, Z6's
        # multiplication has no identity and its addition is not distributive.
        r = zmod(6)
        with pytest.raises(BadParameter, match="zero and one must differ"):
            FiniteRing(r._add, getattr(r, f"_{mul}"), 0, 0)

    def test_duplicate_labels_rejected(self):
        # A repeated label would name two elements, so an ideal spec "(1)"
        # could resolve to the wrong generator.
        r = zmod(6)
        with pytest.raises(BadParameter, match="unique"):
            FiniteRing(r._add, r._mul, 0, 1, ["0", "1", "2", "1", "4", "5"])

    def test_axioms_verified(self):
        n = 3
        idx = np.arange(n)
        add = (idx[:, None] + idx[None, :]) % n
        bad_mul = np.zeros((n, n), dtype=int)  # no multiplicative identity
        with pytest.raises(BadParameter):
            FiniteRing(add, bad_mul, 0, 1)

    def test_non_commutative_addition_rejected(self):
        # S3 is a group but not abelian; Z6's multiplication has identity 1.
        with pytest.raises(BadParameter, match="addition is not commutative"):
            FiniteRing(dihedral_group(3)._table, zmod(6)._mul, 0, 1)

    def test_non_commutative_multiplication_rejected(self):
        # S3 relabelled so that its identity is element 1, over Z6's addition.
        swap = np.array([1, 0, 2, 3, 4, 5])
        mul = np.empty((6, 6), dtype=np.int64)
        mul[np.ix_(swap, swap)] = swap[dihedral_group(3)._table]
        with pytest.raises(BadParameter, match="multiplication is not commutative"):
            FiniteRing(zmod(6)._add, mul, 0, 1)

    def test_caller_tables_stay_writeable_and_apart(self):
        idx = np.arange(3)
        add, mul = (idx[:, None] + idx) % 3, idx[:, None] * idx % 3
        r = FiniteRing(add, mul, 0, 1)
        assert add.flags.writeable and mul.flags.writeable
        add[1, 1] = mul[2, 2] = 0
        assert (r._add[1, 1], r.add(1, 1), r._mul[2, 2], r.mul(2, 2)) == (2, 2, 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: group_from_spec("Z3xD6xQ8xE2^2"),
        lambda: ring_from_spec("Z12xZ2[x]/(x^3)"),
    ],
    ids=["groups", "rings"],
)
def test_built_tables_kept_without_a_copy(monkeypatch, build):
    # Every built-in constructor and product hands over a frozen table that
    # it no longer writes, so the checked table is that array itself.
    checked = algebra._checked_table
    kept, tables = [], []

    def spy(table, *args):
        arr = checked(table, *args)
        kept.append(arr is table)
        tables.append(arr)
        return arr

    monkeypatch.setattr(algebra, "_checked_table", spy)
    build()
    assert kept and all(kept)
    for table in tables:
        assert table.dtype == _TABLE and not table.flags.writeable


def _associative(t) -> bool:
    n = len(t)
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x, y, z in itertools.product(range(n), repeat=3))


def _left_distributive(add, mul) -> bool:
    n = len(add)
    return all(
        mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a, b, c in itertools.product(range(n), repeat=3)
    )


def _raises_bad_parameter(check) -> bool:
    try:
        check()
    except BadParameter:
        return True
    return False


VALID_GROUP_TABLES = [group_from_spec(s)._table for s in ("Z6", "D8", "Q8", "Z2xZ4")]
VALID_RINGS = [ring_from_spec(s) for s in ("Z6", "Z2xZ4", "Z2[x]/(x^2)")]


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    return np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def mutated_group_tables(draw):
    table = draw(st.sampled_from(VALID_GROUP_TABLES)).copy()
    n = len(table)
    x, y, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    table[x, y] = v
    return table


@st.composite
def mutated_rings(draw):
    """The additive table and a symmetric single-entry mutation of the multiplicative one."""
    r = draw(st.sampled_from(VALID_RINGS))
    mul = r._mul.copy()
    n = len(mul)
    x, y, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    mul[x, y] = mul[y, x] = v
    return r._add, mul


MUTATED_RING_SPECS = ("Z6", "Z2xZ4", "Z2[x]/(x^2)", "Z8", "Z2xZ2xZ2", "Z9", "Z3[x]/(x^2)")


@st.composite
def multiply_mutated_rings(draw):
    """A ring from :data:`MUTATED_RING_SPECS` with 1-3 symmetric entries of its multiplication changed."""
    r = ring_from_spec(draw(st.sampled_from(MUTATED_RING_SPECS)))
    mul = r._mul.copy()
    cell = st.integers(0, len(mul) - 1)
    for x, y, v in draw(st.lists(st.tuples(cell, cell, cell), min_size=1, max_size=3)):
        mul[x, y] = mul[y, x] = v
    return r, mul


def _ring_by_scan(add, mul, one) -> bool:
    """Literal scans of the multiplicative axioms over an abelian group ``add``."""
    n = len(mul)
    identity = all(mul[one][x] == x == mul[x][one] for x in range(n))
    commutative = all(mul[x][y] == mul[y][x] for x in range(n) for y in range(n))
    # With commutativity, left distributivity gives the right one.
    return identity and commutative and _left_distributive(add, mul) and _associative(mul)


def _bilinear_f2_cubed(xx: int, xy: int, yy: int) -> np.ndarray:
    """The multiplication on ``(Z_2)^3`` (XOR on bit vectors) that is additive in
    each argument, has identity 1, and gives ``2 2 = xx``, ``2 4 = xy`` and ``4 4 = yy``."""
    basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 2): xx, (2, 4): xy, (4, 4): yy}
    table = np.zeros((8, 8), dtype=np.int64)
    for a, b, i, j in itertools.product(range(8), range(8), (1, 2, 4), (1, 2, 4)):
        if a & i and b & j:
            table[a, b] ^= basis[min(i, j), max(i, j)]
    return table


class TestRingMultiplication:
    """Ring multiplication is proved associative over the additive generators."""

    def test_all_bilinear_multiplications_on_f2_cubed(self):
        # Every commutative unital multiplication on (Z_2)^3 that is additive
        # in each argument: 1 is the identity and the products of 2 and 4 are free.
        add = elementary_abelian_2(3)._table
        accepted = rejected = 0
        for products in itertools.product(range(8), repeat=3):
            mul = _bilinear_f2_cubed(*products)
            if _associative(mul.tolist()):
                FiniteRing(add, mul, 0, 1)
                accepted += 1
            else:
                with pytest.raises(BadParameter, match="multiplication is not associative"):
                    FiniteRing(add, mul, 0, 1)
                rejected += 1
        assert (accepted, rejected) == (64, 448)

    @settings(max_examples=500)
    @given(multiply_mutated_rings())
    def test_mutated_multiplication_exact(self, ring_and_mul):
        r, mul = ring_and_mul
        raised = _raises_bad_parameter(lambda: FiniteRing(r._add, mul, r.zero, r.one))
        assert raised == (not _ring_by_scan(r._add.tolist(), mul.tolist(), r.one))

    @pytest.mark.parametrize(
        "build",
        [
            lambda r: FiniteRing(r._add, r._mul, r.zero, r.one),
            lambda r: zmod(12),
            lambda r: ring_product(r, r),
            lambda r: poly_quotient_ring(3, [0, 0, 1]),
        ],
        ids=["constructor", "zmod", "product", "poly_quotient"],
    )
    def test_generating_set_of_addition_only(self, monkeypatch, build):
        # Built before counting: a product's factors prove their own tables.
        r = ring_from_spec("Z2xZ3xZ5")
        tables = []

        def counted(table):
            tables.append(table)
            return _generating_set(table)

        monkeypatch.setattr(algebra, "_generating_set", counted)
        s = build(r)
        assert len(tables) == 1 and tables[0] is s._add


class TestLightsTest:
    """The generator-based axiom checks agree with the literal triple scans."""

    @settings(max_examples=300)
    @given(st.one_of(random_tables(), mutated_group_tables()))
    def test_associativity_exact(self, table):
        raised = _raises_bad_parameter(lambda: _check_associative(table, _generating_set(table), "table"))
        assert raised == (not _associative(table.tolist()))

    @settings(max_examples=200)
    @given(mutated_rings())
    def test_distributivity_exact(self, tables):
        add, mul = tables
        raised = _raises_bad_parameter(lambda: _check_distributive(add, mul, _generating_set(add)))
        assert raised == (not _left_distributive(add.tolist(), mul.tolist()))

    def test_distributivity_without_commutative_multiplication(self):
        # The upper triangular 2 x 2 matrices over F2, [[a, b], [0, d]], are
        # a ring whose multiplication is not commutative. The left side
        # a (b + g) is read as it stands, so the check passes; a (b + g)
        # read as (b + g) a would not.
        coords = [(i & 1, i >> 1 & 1, i >> 2 & 1) for i in range(8)]

        def index(a, b, d):
            return (a % 2) | (b % 2) << 1 | (d % 2) << 2

        add = np.array([[i ^ j for j in range(8)] for i in range(8)])
        mul = np.array([[index(a * p, a * q + b * t, d * t) for p, q, t in coords] for a, b, d in coords])
        assert not np.array_equal(mul, mul.T)
        assert _left_distributive(add.tolist(), mul.tolist())
        _check_distributive(add, mul, _generating_set(add))

    @pytest.mark.parametrize("table", VALID_GROUP_TABLES)
    def test_generating_set_generates(self, table):
        assert _closure(table, _generating_set(table)) == set(range(len(table)))
        assert len(_generating_set(table)) <= 4

    @pytest.mark.parametrize(
        "table,size",
        [
            (ring_from_spec("Z2xZ3xZ5xZ7")._mul, 8),
            (ring_from_spec("Z2xZ2xZ2xZ2xZ2xZ2")._mul, 7),
            (ring_from_spec("Z4xZ9xZ5")._mul, 6),
            (ring_from_spec("Z2xZ2xZ2xZ2xZ2xZ2")._add, 6),
            (group_from_spec("Z480")._table, 1),
            (group_from_spec("D120")._table, 2),
            (group_from_spec("Q8xZ15")._table, 2),
        ],
        ids=["Z2xZ3xZ5xZ7-mul", "Z2^6-mul", "Z4xZ9xZ5-mul", "Z2^6-add", "Z480", "D120", "Q8xZ15"],
    )
    def test_generating_set_sizes(self, table, size):
        # Greatest element first: a product ring's monoid keeps a handful of
        # generators, not most of its elements.
        gens = _generating_set(table)
        assert len(gens) == size
        assert _closure(table, gens) == set(range(len(table)))


def _closure(table: np.ndarray, gens: np.ndarray) -> set[int]:
    """Every product of members of ``gens`` under ``table``, by plain fixpoint."""
    closure = set(gens.tolist())
    while True:
        grown = closure | {int(table[a, b]) for a in closure for b in closure}
        if grown == closure:
            return closure
        closure = grown


def _f2xy() -> FiniteRing:
    """``F_2[x, y] / (x, y)^2``: the local ring ``{a + b x + c y}``, not a principal ideal ring."""
    coords = [(i & 1, i >> 1 & 1, i >> 2 & 1) for i in range(8)]

    def index(a, b, c):
        return (a % 2) | (b % 2) << 1 | (c % 2) << 2

    add = [[i ^ j for j in range(8)] for i in range(8)]
    mul = [
        [index(a * p, a * q + b * p, a * t + c * p) for (p, q, t) in coords]
        for (a, b, c) in coords
    ]
    labels = ["+".join(s for s, on in zip(("1", "x", "y"), co) if on) or "0" for co in coords]
    return FiniteRing(add, mul, 0, 1, labels, name="F2[x,y]/(x,y)^2")


def radical(r: FiniteRing) -> tuple[int, ...]:
    """The Jacobson radical of ``r``: the intersection of its maximal ideals, all of ``r`` if none."""
    maxima = [m.members for m in maximal_ideals(r)]
    return tuple(sorted(frozenset(range(r.size)).intersection(*maxima)))


def nilpotents(r: FiniteRing) -> frozenset[int]:
    """The elements of ``r`` with a power equal to zero, found by multiplying step by step."""
    found = set()
    for x in range(r.size):
        seen, power = set(), x
        while power not in seen and power != r.zero:
            seen.add(power)
            power = r.mul(power, x)
        if power == r.zero:
            found.add(x)
    return frozenset(found)


class TestIdeals:
    def test_generated_in_z24(self):
        r = zmod(24)
        assert ideal_generated(r, [8]).elements == (0, 8, 16)

    def test_zero_ideal(self):
        r = zmod(6)
        assert ideal_generated(r, []).elements == (0,)

    @pytest.mark.parametrize("gen", [2.5, 2.0, True, np.float64(2), np.bool_(True)])
    def test_generator_not_an_integer(self, gen):
        with pytest.raises(BadParameter, match="not an integer"):
            ideal_generated(zmod(6), [gen])

    @pytest.mark.parametrize("gen", [-1, 6])
    def test_generator_out_of_range(self, gen):
        with pytest.raises(BadParameter, match="out of range"):
            ideal_generated(zmod(6), [gen])

    def test_numpy_integer_generators(self):
        r = zmod(24)
        assert ideal_generated(r, [np.int64(8)]).elements == (0, 8, 16)
        assert ideal_generated(r, np.array([8, 6])).elements == ideal_generated(r, [2]).elements

    def test_generated_in_product(self):
        r = ring_product(zmod(6), zmod(2))
        ideal = ideal_generated(r, [r.label_index["(0,1)"]])
        assert [r.element_labels[x] for x in ideal.elements] == ["(0,0)", "(0,1)"]

    def test_generated_is_idempotent_and_monotone(self):
        r = zmod(24)
        i = ideal_generated(r, [8])
        assert ideal_generated(r, i.elements).elements == i.elements
        j = ideal_generated(r, [8, 6])
        assert set(i.elements) <= set(j.elements)

    def test_all_ideals_chain_ring(self):
        assert [i.elements for i in all_ideals(zmod(4))] == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_all_ideals_z6(self):
        assert len(all_ideals(zmod(6))) == 4

    @pytest.mark.parametrize(
        "spec,count",
        [
            ("Z2xZ2xZ4", 2 * 2 * 3),
            ("Z8xZ9", 4 * 3),
            ("Z6xZ2", 4 * 2),
            ("Z3xZ5xZ9", 2 * 2 * 3),
            ("Z2[x]/(x^3)xZ2", 4 * 2),
        ],
    )
    def test_all_ideals_product_counts(self, spec, count):
        assert len(all_ideals(ring_from_spec(spec))) == count

    @pytest.mark.parametrize(
        "spec",
        ["Z24", "Z36", "Z60", "Z2xZ2xZ4", "Z4xZ9", "Z2[x]/(x^3)xZ2", "Z3[x]/(x^2)xZ2", "F2[x,y]/(x,y)^2"],
    )
    def test_all_ideals_matches_closure_of_generated(self, spec):
        # Generate every principal ideal by additive closure, then close under
        # all pairwise sums.
        r = _f2xy() if spec == "F2[x,y]/(x,y)^2" else ring_from_spec(spec)
        found = {ideal_generated(r, [x]).elements for x in range(r.size)}
        while True:
            grown = found | {
                ideal_sum(Ideal(r, a), Ideal(r, b)).elements for a in found for b in found
            }
            if grown == found:
                break
            found = grown
        expected = sorted(found, key=lambda e: (len(e), e))
        assert [i.elements for i in all_ideals(r)] == expected

    def test_non_principal_ideal_found(self):
        # (x, y) is the sum of (x) and (y) but no single element generates it.
        r = _f2xy()
        sizes = [len(i) for i in all_ideals(r)]
        assert sizes == [1, 2, 2, 2, 4, 8]
        maximal = maximal_ideals(r)
        assert [r.element_labels[x] for x in maximal[0].elements] == ["0", "x", "y", "x+y"]

    def test_members_match_elements(self):
        r = zmod(24)
        i = ideal_generated(r, [8])
        assert i.members == frozenset(i.elements)
        assert 16 in i and 4 not in i
        assert i.members < ideal_generated(r, [4]).members

    def test_enumeration_cap(self):
        assert IDEAL_ENUM_CAP == 256
        all_ideals(zmod(256))
        with pytest.raises(RingTooLarge):
            all_ideals(zmod(257))

    def test_ideal_sum(self):
        r = zmod(12)
        s = ideal_sum(ideal_generated(r, [4]), ideal_generated(r, [6]))
        assert s.elements == ideal_generated(r, [2]).elements

    def test_jacobson_radical_reduced_ring(self):
        r = zmod(6)
        assert radical(r) == (0,)

    def test_jacobson_radical_local_ring(self):
        r = zmod(4)
        assert radical(r) == (0, 2)

    def test_jacobson_radical_product(self):
        r = ring_from_spec("Z2xZ2xZ4")
        assert [r.element_labels[x] for x in radical(r)] == ["(0,0,0)", "(0,0,2)"]

    def test_radical_inside_every_maximal_ideal(self):
        # In a finite commutative ring the radical is the nilradical: every
        # nilpotent, found by taking powers, lies in every maximal ideal, and
        # nothing else lies in all of them.
        for spec in ["Z24", "Z6xZ2", "Z2xZ2xZ4", "Z8xZ9"]:
            r = ring_from_spec(spec)
            nil = nilpotents(r)
            for m in maximal_ideals(r):
                assert nil <= m.members
            assert radical(r) == tuple(sorted(nil)), spec

    def test_radical_has_no_nonzero_idempotents(self):
        for spec in ["Z24", "Z6xZ2", "Z2xZ2xZ4", "Z8xZ9", "Z2[x]/(x^3)xZ2", "Z3xZ5xZ9"]:
            r = ring_from_spec(spec)
            for x in radical(r):
                if r.mul(x, x) == x:
                    assert x == r.zero, spec

    def test_comaximal_in_z6(self):
        r = zmod(6)
        i2, i3 = ideal_generated(r, [2]), ideal_generated(r, [3])
        assert r.one in ideal_sum(i2, i3)

    def test_proper_ideal_never_comaximal_with_itself(self):
        r = zmod(4)
        i = ideal_generated(r, [2])
        assert r.one not in ideal_sum(i, i)
        r6 = zmod(6)
        i3 = ideal_generated(r6, [3])
        assert r6.one not in ideal_sum(i3, i3)

    def test_ring_mismatch(self):
        r, s = zmod(6), zmod(6)
        with pytest.raises(RingMismatch):
            ideal_sum(ideal_generated(r, [2]), ideal_generated(s, [3]))


class TestLattice:
    """Maximal ideals, the radical and generated ideals against their definitions."""

    def test_maximal_ideals_and_radical_match_definitions(self):
        specs = RING_SWEEP + ["Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"]
        for r in [ring_from_spec(s) for s in specs] + [_f2xy()]:
            proper = [i.members for i in all_ideals(r) if i.is_proper()]
            maxima = [m for m in proper if not any(m < o for o in proper)]
            got = maximal_ideals(r)
            assert [m.members for m in got] == maxima, r.name
            # In a finite commutative ring the radical is the nilradical.
            assert frozenset(range(r.size)).intersection(*maxima) == nilpotents(r), r.name
            assert all(type(x) is int for m in got for x in m.elements), r.name

    def test_zero_ring(self):
        r = FiniteRing([[0]], [[0]], 0, 0)
        assert maximal_ideals(r) == []
        assert radical(r) == (0,)
        with pytest.raises(LocalRingUnsupported):
            comaximal_ideal_graph(r)

    def test_generated_matches_closure(self, rng):
        for spec in RING_SWEEP:
            r = ring_from_spec(spec)
            lists = [[], np.array([rng.randrange(r.size) for _ in range(3)])]
            lists += [[rng.randrange(r.size) for _ in range(rng.randrange(1, 6))] for _ in range(8)]
            for gens in lists:
                expected = reference_ideal_generated(r, gens)
                assert ideal_generated(r, gens).elements == expected, (spec, gens)

    def test_generated_sums_at_most_log2_times(self, monkeypatch):
        calls = []

        def counting_sum(i, j):
            calls.append(1)
            return ideal_sum(i, j)

        monkeypatch.setattr(algebra, "ideal_sum", counting_sum)
        r = zmod(2048)
        assert len(ideal_generated(r, range(1, 2048, 2))) == 2048
        assert len(calls) <= 11


class TestSpecStrings:
    def test_ring_specs(self):
        assert ring_from_spec("Z24").size == 24
        assert ring_from_spec("Z2xZ2xZ4").size == 16
        assert ring_from_spec("Z2[x]/(x^3)xZ2").size == 16
        assert ring_from_spec("Z2[x]/(x^3+x+1)").size == 8

    def test_group_specs(self):
        assert group_from_spec("Z6").order == 6
        assert group_from_spec("D12").order == 12
        assert group_from_spec("Q8").order == 8
        assert group_from_spec("E2^3").order == 8

    @pytest.mark.parametrize(
        "spec",
        ["", "Zx", "D7", "E2^", "E2^0", "W12", "Z2[x]/(x^3", "Z6)xZ2(", "Z2[y]/(y^2)"],
    )
    def test_bad_group_or_ring_specs(self, spec):
        with pytest.raises(BadParameter):
            group_from_spec(spec)
        with pytest.raises(BadParameter):
            ring_from_spec(spec)

    @pytest.mark.parametrize(
        "spec,message",
        [
            pytest.param(spec, message, id=spec)
            for spec, message in [
                ("Z0[x]/(x^2)", "not prime"),
                ("Z2[x]/(x^-1+x^2)", "negative exponent"),
                ("Z3[x]/(x^2)xZ0[x]/(x)", "not prime"),
                ("Z2[x]/(1)", "degree >= 1"),
                ("Z3[x]/(3x+1)", "degree >= 1"),
                ("Z2[x]/(x^2++1)", "empty term"),
                ("Z2[x]/(x^2+a)", "bad constant term 'a'"),
                ("Z2[x]/(x^y)", "bad polynomial term 'x^y'"),
                ("Z2[x]/(2zx)", "bad polynomial term '2zx'"),
            ]
        ],
    )
    def test_bad_quotient_specs(self, spec, message):
        # The modulus is checked before the polynomial is reduced by it, and
        # a negative exponent is no polynomial term. A modulus whose leading
        # coefficient vanishes mod p (3x + 1 over Z3 is 1) has degree 0.
        with pytest.raises(BadParameter, match=re.escape(message)):
            ring_from_spec(spec)

    def test_ideal_specs(self):
        r = zmod(24)
        assert ideal_from_spec(r, "(8)").elements == (0, 8, 16)
        r2 = ring_from_spec("Z6xZ2")
        ideal = ideal_from_spec(r2, "((0,1))")
        assert len(ideal.elements) == 2

    def test_ideal_spec_empty_generators(self):
        assert ideal_from_spec(zmod(6), "()").elements == (0,)

    def test_ideal_spec_errors(self):
        with pytest.raises(BadParameter):
            ideal_from_spec(zmod(6), "(7)")
        with pytest.raises(BadParameter):
            ideal_from_spec(zmod(6), "3")


# --- the table routines against the loop implementations they replaced -----------


def reference_generating_set(table: np.ndarray) -> np.ndarray:
    """Reference: the same greedy closure, deduplicated by ``np.unique`` at every step."""
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    gens = []
    for a in range(n - 1, -1, -1):
        if inside[a]:
            continue
        gens.append(a)
        inside[a] = True
        frontier = np.array([a])
        while frontier.size:
            members = np.flatnonzero(inside)
            found = np.concatenate(
                (table[np.ix_(frontier, members)].ravel(), table[np.ix_(members, frontier)].ravel())
            )
            frontier = np.unique(found[~inside[found]])
            inside[frontier] = True
    return np.array(gens, dtype=np.int64)


def reference_product(cls, factors, pairs):
    """Reference: the mixed-radix product, one 2-D digit gather per factor table."""
    sizes = [len(f.element_labels) for f in factors]
    total = math.prod(sizes)
    digits = np.stack(np.unravel_index(np.arange(total), sizes), axis=1)
    tables, identities = [], []
    for parts in zip(*map(pairs, factors)):
        table = np.zeros((total, total), dtype=np.int64)
        identity = 0
        for j, (factor_table, factor_identity) in enumerate(parts):
            stride = math.prod(sizes[j + 1 :])
            dj = digits[:, j]
            table += factor_table[dj[:, None], dj[None, :]] * stride
            identity += factor_identity * stride
        tables.append(table)
        identities.append(identity)
    labels = [
        "(" + ",".join(f.element_labels[d] for f, d in zip(factors, row)) + ")"
        for row in digits.tolist()
    ]
    return cls(*tables, *identities, labels, name="x".join(f.name for f in factors))


def _paper_pool() -> dict[str, int]:
    """The benchmark's paper-families pool, read from its workload module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PAPER_POOL


def _product_specs():
    """``(spec, kind)`` for every product of the sweeps and of the paper-families pool."""
    specs = [(s, "group") for s in GROUP_SWEEP + LARGE_GROUPS]
    specs += [(s, "ring") for s in RING_SWEEP]
    for family in _paper_pool():
        kind, spec = family.split(":")[:2]
        specs.append((spec, "group" if kind == "power" else "ring"))
    return [(s, kind) for s, kind in dict.fromkeys(specs) if len(_split_top_level(s, "x")) > 1]


def reference_dihedral_table(n: int) -> np.ndarray:
    """Reference: ``(s^a r^i)(s^b r^j) = s^(a+b) r^(j + (-1)^b i)`` by four nested loops."""
    order = 2 * n
    table = np.zeros((order, order), dtype=_TABLE)
    for a in range(2):
        for i in range(n):
            for b in range(2):
                for j in range(n):
                    exp = (j + (i if b == 0 else -i)) % n
                    table[a * n + i, b * n + j] = ((a + b) % 2) * n + exp
    return table


def reference_quaternion_table() -> np.ndarray:
    """Reference: ``Q8`` on ``a^i b^j`` (element ``4j + i``) by four nested loops."""
    table = np.zeros((8, 8), dtype=_TABLE)
    for i in range(4):
        for j in range(2):
            for k in range(4):
                for l in range(2):
                    if j == 0:
                        exp, refl = (i + k) % 4, l
                    elif l == 0:
                        exp, refl = (i - k) % 4, 1
                    else:
                        exp, refl = (i - k + 2) % 4, 0
                    table[j * 4 + i, l * 4 + k] = refl * 4 + exp
    return table


def reference_all_ideals(r: FiniteRing) -> list[Ideal]:
    """Reference: close the principal ideals under sums with them, by :func:`ideal_sum`."""
    principal = [Ideal(r, tuple(col)) for col in {frozenset(c) for c in r._mul.T.tolist()}]
    found = {i.members for i in principal}
    ideals = list(principal)
    worklist = list(principal)
    while worklist:
        current = worklist.pop()
        for p in principal:
            if p.members <= current.members or current.members <= p.members:
                continue
            s = ideal_sum(current, p)
            if s.members not in found:
                found.add(s.members)
                ideals.append(s)
                worklist.append(s)
    ideals.sort(key=lambda i: (len(i.elements), i.elements))
    return ideals


def reference_ideal_generated(r: FiniteRing, gens) -> tuple[int, ...]:
    """Reference: ``R * gens`` closed under addition until nothing new appears."""
    current = {r.zero}
    for g in gens:
        current.update(r._mul[:, int(g)].tolist())
    while True:
        arr = np.fromiter(current, count=len(current), dtype=np.int64)
        sums = set(r._add[np.ix_(arr, arr)].ravel().tolist())
        if sums <= current:
            return tuple(sorted(current))
        current |= sums


def reference_poly_quotient_tables(p: int, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Reference: both tables of ``Z_p[x]/(f)`` by a double loop over element pairs."""
    coeffs = [c % p for c in coeffs]
    while coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    size = p**deg

    def decode(i):
        out = []
        for _ in range(deg):
            out.append(i % p)
            i //= p
        return out

    def encode(cs):
        v = 0
        for c in reversed(cs[:deg]):
            v = v * p + (c % p)
        return v

    def reduce_poly(cs):
        cs = [c % p for c in cs]
        for k in range(len(cs) - 1, deg - 1, -1):
            lead = cs[k]
            if lead:
                for i in range(deg + 1):
                    cs[k - deg + i] = (cs[k - deg + i] - lead * coeffs[i]) % p
        return cs[:deg] + [0] * max(0, deg - len(cs))

    add = np.zeros((size, size), dtype=_TABLE)
    mul = np.zeros((size, size), dtype=_TABLE)
    polys = [decode(i) for i in range(size)]
    for i, a in enumerate(polys):
        for j, b in enumerate(polys):
            add[i, j] = encode([(x + y) % p for x, y in zip(a, b)])
            prod = [0] * (2 * deg - 1)
            for da, ca in enumerate(a):
                if ca:
                    for db, cb in enumerate(b):
                        prod[da + db] = (prod[da + db] + ca * cb) % p
            mul[i, j] = encode(reduce_poly(prod))
    return add, mul


def _sweep_tables():
    for spec in GROUP_SWEEP + LARGE_GROUPS:
        yield spec, group_from_spec(spec)._table
    for spec in RING_SWEEP:
        r = ring_from_spec(spec)
        yield spec + "+", r._add
        yield spec + "*", r._mul


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestMatchesReference:
    """The scatter, broadcast and mask rewrites return exactly what the loops did."""

    def test_generating_set_on_sweeps(self):
        for name, table in _sweep_tables():
            assert _same_array(_generating_set(table), reference_generating_set(table)), name

    @settings(max_examples=300)
    @given(st.one_of(random_tables(), mutated_group_tables()))
    def test_generating_set_on_random_tables(self, table):
        # On a table that is not associative the words over the generators
        # may miss products of the closure, so the set may be larger than the
        # reference's; it must still generate the table and decide Light's
        # test exactly.
        gens = _generating_set(table)
        assert _closure(table, gens) == set(range(len(table)))
        associative = _associative(table.tolist())
        if associative:
            assert _same_array(gens, reference_generating_set(table))
        raised = _raises_bad_parameter(lambda: _check_associative(table, gens, "table"))
        assert raised == (not associative)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: group_from_spec("E2^11")._table,
            lambda: group_from_spec("Z2048")._table,
            lambda: ring_from_spec("Z2[x]/(x^11)")._add,
        ],
        ids=["E2^11", "Z2048", "Z2[x]/(x^11)+"],
    )
    def test_generating_set_at_the_order_cap(self, build):
        table = build()
        assert _same_array(_generating_set(table), reference_generating_set(table))

    def test_products(self):
        specs = _product_specs()
        assert ("Z2xZ3xZ5xZ7", "ring") in specs and ("Q8xZ15", "group") in specs
        for spec, kind in specs:
            read = group_from_spec if kind == "group" else ring_from_spec
            factors = [read(atom) for atom in _split_top_level(spec, "x")]
            if kind == "group":
                got = group_product(*factors)
                expected = reference_product(FiniteGroup, factors, lambda g: [(g._table, g.identity)])
                pairs = [(got._table, expected._table)]
                identities = [(got.identity, expected.identity)]
            else:
                got = ring_product(*factors)
                expected = reference_product(FiniteRing, factors, lambda r: [(r._add, r.zero), (r._mul, r.one)])
                pairs = [(got._add, expected._add), (got._mul, expected._mul)]
                identities = [(got.zero, expected.zero), (got.one, expected.one)]
            assert all(_same_array(a, b) for a, b in pairs), spec
            assert all(a == b and type(a) is type(b) is int for a, b in identities), spec
            assert got.element_labels == expected.element_labels, spec
            assert got.name == expected.name == read(spec).name, spec

    def test_sums_mod_n(self):
        for n in [*range(1, 65), 480, 2048]:
            idx = np.arange(n)
            expected = ((idx[:, None] + idx) % n).astype(_TABLE)
            assert _same_array(cyclic_group(n)._table, expected), n
            if n >= 2:
                assert _same_array(zmod(n)._add, expected), n

    def test_dihedral_tables(self):
        atoms = [atom for spec in GROUP_SWEEP + LARGE_GROUPS for atom in spec.split("x")]
        orders = [int(atom[1:]) for atom in atoms if atom.startswith("D")]
        assert 240 in orders
        for order in orders:
            table = dihedral_group(order // 2)._table
            assert _same_array(table, reference_dihedral_table(order // 2)), order

    def test_quaternion_table(self):
        assert _same_array(quaternion_group()._table, reference_quaternion_table())

    @pytest.mark.parametrize(
        "p,coeffs",
        [
            (2, [0, 0, 0, 1]),  # x^3
            (3, [1, 0, 1]),  # x^2 + 1
            (2, [1, 1, 0, 1]),  # x^3 + x + 1
            (5, [2, 0, 1]),  # x^2 + 2
            (2, [0] * 6 + [1]),  # x^6
            (3, [0] * 4 + [1]),  # x^4
            (7, [3, 1]),  # x + 3
            (3, [1, 2, 0, 1]),  # x^3 + 2x + 1
            (2, [1, 0, 0, 1, 0, 0, 0, 1]),  # x^7 + x^3 + 1
            (11, [5, 4, 12]),  # x^2 + 4x + 5, the lead read mod 11
            (5, [-1, 0, 1, 0]),  # x^2 + 4, a trailing zero dropped
        ],
    )
    def test_poly_quotient_tables(self, p, coeffs):
        r = poly_quotient_ring(p, coeffs)
        add, mul = reference_poly_quotient_tables(p, coeffs)
        assert _same_array(r._add, add)
        assert _same_array(r._mul, mul)

    def test_all_ideals(self):
        for spec in RING_SWEEP + ["Z2xZ3xZ5xZ7", "Z4xZ9xZ5", "Z2xZ2xZ2xZ2xZ2xZ2"]:
            r = ring_from_spec(spec)
            got, expected = all_ideals(r), reference_all_ideals(r)
            assert [i.elements for i in got] == [i.elements for i in expected], spec
            assert all(type(x) is int for i in got for x in i.elements), spec
        f2xy = _f2xy()
        for r in [f2xy, ring_product(f2xy, zmod(2)), ring_product(f2xy, zmod(3)), ring_product(f2xy, f2xy)]:
            got = all_ideals(r)
            assert [i.elements for i in got] == [i.elements for i in reference_all_ideals(r)], r.name
            # A non-principal ideal is no row of the principal mask, so the
            # enumerator found it by summing through the addition table.
            principal = {frozenset(column) for column in r._mul.T.tolist()}
            assert any(i.members not in principal for i in got), r.name


class TestIdealsAtTheCap:
    """``Z2^8`` has order ``IDEAL_ENUM_CAP`` and 256 ideals, one per subset of its factors."""

    SPEC = "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"

    def test_every_ideal_is_closed(self):
        r = ring_from_spec(self.SPEC)
        assert r.size == IDEAL_ENUM_CAP
        ideals = all_ideals(r)
        assert len(ideals) == 256
        for ideal in ideals:
            members = np.array(ideal.elements)
            assert set(r._add[np.ix_(members, members)].ravel().tolist()) == ideal.members
            assert set(r._mul[:, members].ravel().tolist()) == ideal.members

    def test_maximal_ideals_and_radical(self):
        r = ring_from_spec(self.SPEC)
        assert len(maximal_ideals(r)) == 8
        assert radical(r) == (0,)

    def test_peak_memory(self):
        # The n x n membership mask is 64 KiB; a temporary with one entry per
        # (found, found, principal) triple would be 64 MiB.
        r = ring_from_spec(self.SPEC)
        tracemalloc.start()
        try:
            all_ideals(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


# --- the byte budget on one operation table ----------------------------------------


def _peak_bytes_raising(build) -> int:
    """Peak traced allocation while ``build`` raises :class:`OrderTooLarge`."""
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOrderBudget:
    def test_budget_and_bound(self):
        assert TABLE_BYTE_BUDGET == 1 << 23 == 2048 * 2048 * _TABLE.itemsize
        assert MAX_TABLE_ORDER == 2048
        _check_order(MAX_TABLE_ORDER, "largest")
        with pytest.raises(OrderTooLarge, match="above 2048"):
            _check_order(MAX_TABLE_ORDER + 1, "one more")

    def test_typed_as_a_computation_error(self):
        assert issubclass(OrderTooLarge, ValueError)
        assert not issubclass(OrderTooLarge, BadParameter)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: family_graph("power:Z20000"),
            lambda: family_graph("power:E2^40"),
            lambda: family_graph("zdg:Z200xZ200"),
            lambda: ring_from_spec("Z2[x]/(x^12)"),
        ],
        ids=["power:Z20000", "power:E2^40", "zdg:Z200xZ200", "Z2[x]/(x^12)"],
    )
    def test_specs_raise_before_allocating(self, build):
        assert _peak_bytes_raising(build) < 1 << 20

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cyclic_group(2049),
            lambda: zmod(2049),
            lambda: dihedral_group(1025),
            lambda: elementary_abelian_2(12),
            lambda: poly_quotient_ring(3, [0] * 7 + [1]),
        ],
        ids=["Z2049", "zmod-2049", "D2050", "E2^12", "Z3[x]/(x^7)"],
    )
    def test_constructors_raise_before_allocating(self, build):
        assert _peak_bytes_raising(build) < 1 << 20

    def test_products_raise_before_allocating(self):
        groups, rings = (cyclic_group(64), cyclic_group(33)), (zmod(64), zmod(33))
        assert _peak_bytes_raising(lambda: group_product(*groups)) < 1 << 20
        assert _peak_bytes_raising(lambda: ring_product(*rings)) < 1 << 20

    def test_caller_tables_raise_before_copying(self):
        table = np.zeros((MAX_TABLE_ORDER + 1,) * 2, dtype=np.int64)
        assert _peak_bytes_raising(lambda: FiniteGroup(table, 0)) < 1 << 20
        assert _peak_bytes_raising(lambda: FiniteRing(table, table, 0, 1)) < 1 << 20

    def test_paper_scale_specs_still_build(self):
        assert group_from_spec("Z480").order == 480
        assert ring_from_spec("Z2xZ3xZ5xZ7").size == 210

    def test_paper_scale_group_peak(self):
        # Z480's table is 450 KiB; Light's test gathers two copies of it per
        # generator (5.5 MiB in all with int64 tables).
        tracemalloc.start()
        try:
            group_from_spec("Z480")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_bad_factor_is_still_a_bad_parameter(self):
        with pytest.raises(BadParameter):
            group_from_spec("Z0xZ5000")
        with pytest.raises(BadParameter):
            ring_from_spec("Z4[x]/(x^20)")
