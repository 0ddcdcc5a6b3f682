"""Algebraic graph families and standard parametric graphs."""

import itertools
import tracemalloc
import warnings
from math import gcd, prod

import numpy as np
import pytest

from twindex import (
    BadParameter,
    ClassKind,
    ImproperIdeal,
    LocalRingUnsupported,
    OrderTooLarge,
    RingTooLarge,
    TwindexError,
    is_connected,
    new_graph,
    twin_partition,
    wiener_index,
)
from twindex.algebra import (
    _ideal_masks,
    all_ideals,
    cyclic_group,
    dihedral_group,
    group_from_spec,
    group_power_rules,
    elementary_abelian_2,
    ideal_from_spec,
    ideal_generated,
    quaternion_group,
    ring_from_spec,
    ring_product,
    zmod,
    zmod_moduli,
)
import twindex.algebra
import twindex.generators
from twindex.cli import main
from twindex.reference import REFERENCE_CHECKS
from twindex.generators import (
    _class_graph,
    comaximal_ideal_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    empty_graph,
    family_graph,
    graph_from_matrix,
    ideal_zero_divisor_graph,
    path_graph,
    power_graph,
    star_graph,
    wheel_graph,
    zero_divisor_graph,
)

from conftest import GROUP_SWEEP, LARGE_GROUPS, RING_SWEEP, cyclic_subgroup, with_labels


class TestPowerGraph:
    def test_z6(self):
        g = power_graph(cyclic_group(6))
        assert g.edge_count() == 13
        assert g.labels == ("0", "1", "2", "3", "4", "5")

    def test_q8_twin_classes(self):
        g = power_graph(quaternion_group())
        d = twin_partition(g)
        names = [{g.labels[v] for v in cls} for cls in d.classes]
        assert names == [{"1", "a2"}, {"a", "a3"}, {"b", "a2b"}, {"ab", "a3b"}]
        assert all(k is ClassKind.COMPLETE for k in d.kinds)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_elementary_abelian_is_star(self, k):
        g = power_graph(elementary_abelian_2(k))
        assert g.edges() == star_graph(2**k).edges()


class TestDivisorClasses:
    def test_refines_twin_partition(self):
        # Elements of Z_n with one gcd(x, n) (0 with the units) are twins in
        # the power graph.
        for n in range(2, 37):
            g = power_graph(cyclic_group(n))
            twin_classes = [set(c) for c in twin_partition(g).classes]
            divisor_classes = {}
            for x in range(n):
                divisor_classes.setdefault(1 if x == 0 else gcd(x, n), set()).add(x)
            for members in divisor_classes.values():
                assert any(members <= cls for cls in twin_classes), n


class TestZeroDivisorGraph:
    def test_z6_is_a_path(self):
        g = zero_divisor_graph(zmod(6))
        assert g.labels == ("2", "3", "4")
        edges = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
        assert edges == {frozenset({"2", "3"}), frozenset({"3", "4"})}

    def test_field_warns_and_returns_empty(self):
        with pytest.warns(UserWarning):
            g = zero_divisor_graph(zmod(7))
        assert g.n == 0

    def test_z2xz2_is_an_edge(self):
        g = zero_divisor_graph(ring_product(zmod(2), zmod(2)))
        assert g.labels == ("(0,1)", "(1,0)")
        assert g.edge_count() == 1


class TestIdealZeroDivisorGraph:
    def test_z24_with_ideal_8(self):
        r = zmod(24)
        g = ideal_zero_divisor_graph(r, ideal_generated(r, [8]))
        assert g.labels == ("2", "4", "6", "10", "12", "14", "18", "20", "22")
        d = twin_partition(g)
        kinds = dict(zip(d.class_sizes(), d.kinds))
        assert kinds == {6: ClassKind.EMPTY, 3: ClassKind.COMPLETE}

    def test_z6xz2_is_k24(self):
        r = ring_from_spec("Z6xZ2")
        g = ideal_zero_divisor_graph(r, ideal_generated(r, [r.label_index["(0,1)"]]))
        assert g.n == 6
        assert g.edge_count() == 8
        assert wiener_index(g) == 22

    def test_zero_ideal_matches_zero_divisor_graph(self):
        r = zmod(12)
        via_ideal = ideal_zero_divisor_graph(r, ideal_generated(r, []))
        direct = zero_divisor_graph(r)
        assert via_ideal == direct

    def test_improper_ideal_rejected(self):
        r = zmod(6)
        with pytest.raises(ImproperIdeal):
            ideal_zero_divisor_graph(r, ideal_generated(r, [1]))

    def test_foreign_ideal_rejected(self):
        with pytest.raises(ImproperIdeal):
            ideal_zero_divisor_graph(zmod(6), ideal_generated(zmod(8), [2]))


class TestComaximalIdealGraph:
    def test_z2z2z4(self):
        g = comaximal_ideal_graph(ring_from_spec("Z2xZ2xZ4"))
        assert g.n == 9
        d = twin_partition(g)
        assert sorted(d.class_sizes()) == [1, 1, 1, 2, 2, 2]
        assert all(k in (ClassKind.EMPTY, ClassKind.SINGLETON) for k in d.kinds)

    def test_z8z9(self):
        g = comaximal_ideal_graph(ring_from_spec("Z8xZ9"))
        assert g.n == 5
        d = twin_partition(g)
        assert sorted(d.class_sizes()) == [2, 3]
        assert d.reduced.edges() == ((0, 1),)

    def test_z6(self):
        r = zmod(6)
        g = comaximal_ideal_graph(r)
        assert g.n == 2
        assert g.edge_count() == 1
        assert set(g.labels) == {"{0,2,4}", "{0,3}"}

    def test_local_ring_rejected(self):
        with pytest.raises(LocalRingUnsupported):
            comaximal_ideal_graph(zmod(4))
        with pytest.raises(LocalRingUnsupported):
            comaximal_ideal_graph(ring_from_spec("Z2[x]/(x^3)"))

    @pytest.mark.parametrize("spec", ["Z4xZ9", "Z2xZ2xZ2", "Z8xZ3", "Z2xZ9xZ5"])
    def test_product_of_local_rings_connected(self, spec):
        g = comaximal_ideal_graph(ring_from_spec(spec))
        assert is_connected(g)


class TestStandardFamilies:
    def test_complete_multipartite_edge_count(self):
        assert complete_multipartite_graph((3, 3, 3)).edge_count() == 27

    def test_wheel(self):
        g = wheel_graph(5)
        assert g.n == 6
        assert g.edge_count() == 10

    def test_star(self):
        g = star_graph(7)
        assert g.edge_count() == 6
        assert all(v in g.neighbors(0) for v in range(1, 7))

    def test_path_cycle_complete_empty(self):
        assert path_graph(6).edge_count() == 5
        assert cycle_graph(5).edge_count() == 5
        assert complete_graph(5).edge_count() == 10
        assert empty_graph(4).edge_count() == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: wheel_graph(2),
            lambda: cycle_graph(2),
            lambda: path_graph(0),
            lambda: complete_multipartite_graph([0, 2]),
            lambda: complete_multipartite_graph([]),
        ],
    )
    def test_bad_parameters(self, build):
        with pytest.raises(BadParameter):
            build()


class TestGraphFromMatrix:
    def test_label_count_checked(self):
        with pytest.raises(BadParameter):
            graph_from_matrix(np.ones((3, 3), dtype=bool), ("a", "b"))

    def test_labels_unique(self):
        with pytest.raises(BadParameter):
            graph_from_matrix(np.ones((2, 2), dtype=bool), ("a", "a"))

    def test_asymmetric_rejected(self):
        with pytest.raises(BadParameter):
            graph_from_matrix(np.array([[False, True], [False, False]]), ("a", "b"))

    def test_diagonal_ignored(self):
        g = graph_from_matrix(np.ones((3, 3), dtype=bool), ("a", "b", "c"))
        assert g == with_labels(complete_graph(3), ("a", "b", "c"))

    def test_deterministic_rebuild(self):
        a = comaximal_ideal_graph(ring_from_spec("Z2xZ2xZ4"))
        b = comaximal_ideal_graph(ring_from_spec("Z2xZ2xZ4"))
        assert a == b


class TestClassGraph:
    """``_class_graph`` keeps the checks of :func:`graph_from_matrix`, made on
    the class-pair table."""

    def test_asymmetric_rejected(self):
        pairs = np.array([[False, True], [False, False]])
        with pytest.raises(BadParameter, match="symmetric"):
            _class_graph(pairs, np.array([0, 1, 1]), ("a", "b", "c"))

    @pytest.mark.parametrize("bit", [None, (5, 2000), (2000, 5), (1800, 1850), (2047, 0)])
    def test_one_asymmetric_bit_at_the_order_cap(self, rng, bit):
        # k = 2048 classes, one vertex each, compared tile by tile: one bit
        # without its mirror, in a far tile, a diagonal tile or a corner, is
        # refused; the symmetric table builds.
        gen = np.random.default_rng(rng.randrange(1 << 30))
        upper = np.triu(gen.random((2048, 2048)) < 0.01, 1)
        pairs = upper | upper.T
        labels = [str(v) for v in range(2048)]
        if bit is None:
            g = _class_graph(pairs, np.arange(2048), labels)
            assert g.edge_count() == int(upper.sum())
            return
        pairs[bit] = not pairs[bit[::-1]]
        with pytest.raises(BadParameter, match="symmetric"):
            _class_graph(pairs, np.arange(2048), labels)

    def test_labels_unique(self):
        with pytest.raises(BadParameter, match="unique"):
            _class_graph(np.ones((1, 1), dtype=bool), np.array([0, 0]), ("a", "a"))

    @pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "c", "d")])
    def test_label_count_checked(self, labels):
        with pytest.raises(BadParameter):
            _class_graph(np.ones((2, 2), dtype=bool), np.array([0, 1, 1]), labels)

    def test_class_joined_to_itself_is_a_clique(self):
        pairs = np.array([[True, True, False], [True, False, False], [False, False, True]])
        g = _class_graph(pairs, np.array([0, 1, 0, 1, 0, 2, 2]), "abcdefg")
        # Class 0 (a, c, e) is a clique joined to class 1 (b, d), which is
        # edgeless; class 2 (f, g) is an edge on its own.
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6)]
        assert g == new_graph(7, edges, labels="abcdefg")
        assert_masks_valid(g)

    @pytest.mark.parametrize("spec", ["power:Z2048", "power:D2048"])
    def test_order_cap_peak_memory(self, spec):
        """Below the 4 MiB of the graph's n x n boolean matrix alone."""
        family_graph(spec)
        tracemalloc.start()
        try:
            family_graph(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak


# The family specs of the benchmark's paper-families pool.
PAPER_POOL_SPECS = [
    "power:Z60",
    "power:Z120",
    "power:Z240",
    "power:Z480",
    "power:D60",
    "power:D120",
    "power:Q8xZ15",
    "power:Z2xZ30",
    "zdg:Z180",
    "izdg:Z120:I=(8)",
    "izdg:Z180:I=(12)",
    "comax:Z4xZ9xZ5",
    "comax:Z2xZ3xZ5xZ7",
]


def reference_neighborhoods(adj, labels):
    """Reference: one frozenset of neighbours per row, the diagonal dropped."""
    adj = np.array(adj, dtype=bool)
    np.fill_diagonal(adj, False)
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in adj), tuple(labels)


def assert_masks_valid(g, name=""):
    """Masks are loop-free, symmetric and hold no bit at or above n."""
    for v, mask in enumerate(g.masks):
        assert type(mask) is int, (name, v)
        assert not mask >> v & 1, (name, v)
        assert mask >> g.n == 0, (name, v)
        for w in g.neighbors(v):
            assert g.masks[w] >> v & 1, (name, v, w)


def _sweep_graphs():
    for spec in GROUP_SWEEP + LARGE_GROUPS:
        yield f"power:{spec}", power_graph(group_from_spec(spec))
    for spec in RING_SWEEP:
        r = ring_from_spec(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield f"zdg:{spec}", zero_divisor_graph(r)
        try:
            yield f"comax:{spec}", comaximal_ideal_graph(r)
        except LocalRingUnsupported:
            pass


class TestMasks:
    def test_invariants_on_sweeps(self):
        built = 0
        for name, g in _sweep_graphs():
            assert_masks_valid(g, name)
            built += 1
        assert built == len(GROUP_SWEEP) + len(LARGE_GROUPS) + len(RING_SWEEP) + 39

    @pytest.mark.parametrize("spec", PAPER_POOL_SPECS)
    def test_graph_from_matrix_matches_frozenset_construction(self, spec, monkeypatch):
        """The one builder call, ``graph_from_matrix(adj, ...)`` or
        ``_class_graph(pairs, classes, ...)``, gives the frozenset construction
        of its adjacency matrix, ``adj`` or ``pairs[classes][:, classes]``."""
        calls = []

        def recording(adj, labels):
            g = graph_from_matrix(adj, labels)
            calls.append((reference_neighborhoods(adj, labels), g))
            return g

        def recording_classes(pairs, classes, labels):
            g = class_graph(pairs, classes, labels)
            calls.append((reference_neighborhoods(pairs[np.ix_(classes, classes)], labels), g))
            return g

        class_graph = twindex.generators._class_graph
        monkeypatch.setattr(twindex.generators, "graph_from_matrix", recording)
        monkeypatch.setattr(twindex.generators, "_class_graph", recording_classes)
        family_graph(spec)
        assert len(calls) == 1
        (neighborhoods, labels), g = calls[0]
        assert tuple(g.neighbors(v) for v in range(g.n)) == neighborhoods
        assert g.labels == labels
        assert_masks_valid(g, spec)


class TestFamilySpecs:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("power:Z6", 6),
            ("power:D12", 12),
            ("power:Q8", 8),
            ("zdg:Z24", 15),
            ("izdg:Z24:I=(8)", 9),
            ("comax:Z2xZ2xZ4", 9),
            ("multipartite:3,3,3", 9),
            ("wheel:5", 6),
            ("star:7", 7),
            ("cycle:4", 4),
        ],
    )
    def test_family_sizes(self, spec, n):
        assert family_graph(spec).n == n

    @pytest.mark.parametrize(
        "spec",
        [
            "power",
            "nosuch:3",
            "izdg:Z24",
            "izdg:Z24:J=(8)",
            "multipartite:a,b",
            "complete:-1",
            "empty:-1",
            "star:0",
            "path:x",
        ],
    )
    def test_bad_family_specs(self, spec):
        with pytest.raises(BadParameter):
            family_graph(spec)


# --- the algebraic graphs by their per-pair definitions --------------------------

def _literal_power_graph(g):
    subgroups = [cyclic_subgroup(g, a) for a in range(g.order)]
    edges = [
        (a, b)
        for a in range(g.order)
        for b in range(a + 1, g.order)
        if a in subgroups[b] or b in subgroups[a]
    ]
    return list(g.element_labels), edges


def _literal_zero_divisor_graph(r):
    nonzero = [x for x in range(r.size) if x != r.zero]
    vertices = [x for x in nonzero if any(r.mul(x, y) == r.zero for y in nonzero)]
    edges = [
        (a, b)
        for a, x in enumerate(vertices)
        for b, y in enumerate(vertices)
        if a < b and r.mul(x, y) == r.zero
    ]
    return [r.element_labels[x] for x in vertices], edges


def _literal_ideal_zero_divisor_graph(r, ideal):
    inside = set(ideal.elements)
    outside = [x for x in range(r.size) if x not in inside]
    # x * x in I makes x a vertex even without another partner.
    vertices = [x for x in outside if any(r.mul(x, y) in inside for y in outside)]
    edges = [
        (a, b)
        for a, x in enumerate(vertices)
        for b, y in enumerate(vertices)
        if a < b and r.mul(x, y) in inside
    ]
    return [r.element_labels[x] for x in vertices], edges


def _literal_comaximal_ideal_graph(r):
    proper = [set(i.elements) for i in all_ideals(r) if i.is_proper()]
    maxima = [i for i in proper if not any(i < o for o in proper)]
    if len(maxima) < 2:
        return None
    radical = set.intersection(*maxima)
    vertices = [i for i in proper if not i <= radical]
    edges = [
        (a, b)
        for a in range(len(vertices))
        for b in range(a + 1, len(vertices))
        if any(r.add(x, y) == r.one for x in vertices[a] for y in vertices[b])
    ]
    labels = ["{" + ",".join(r.element_labels[x] for x in sorted(i)) + "}" for i in vertices]
    return labels, edges


def _shape(g):
    return list(g.labels), list(g.edges())


class TestMatchesDefinitions:
    """The table-driven generators equal the per-pair definitions."""

    def test_power_graphs(self):
        for spec in GROUP_SWEEP:
            g = group_from_spec(spec)
            assert _shape(power_graph(g)) == _literal_power_graph(g), spec

    def test_zero_divisor_graphs(self):
        for spec in RING_SWEEP:
            r = ring_from_spec(spec)
            expected = _literal_zero_divisor_graph(r)
            if expected[0]:
                got = zero_divisor_graph(r)
            else:
                with pytest.warns(UserWarning):
                    got = zero_divisor_graph(r)
            assert _shape(got) == expected, spec

    def test_ideal_zero_divisor_graphs(self):
        checked = 0
        for spec in RING_SWEEP:
            r = ring_from_spec(spec)
            proper = [i for i in all_ideals(r) if i.is_proper()]
            if len(proper) < 3:
                continue
            for ideal in proper:
                got = ideal_zero_divisor_graph(r, ideal)
                assert _shape(got) == _literal_ideal_zero_divisor_graph(r, ideal), (spec, ideal)
                checked += 1
        assert checked == 217

    def test_comaximal_ideal_graphs(self):
        non_local = 0
        for spec in RING_SWEEP:
            r = ring_from_spec(spec)
            expected = _literal_comaximal_ideal_graph(r)
            if expected is None:
                with pytest.raises(LocalRingUnsupported):
                    comaximal_ideal_graph(r)
                continue
            assert _shape(comaximal_ideal_graph(r)) == expected, spec
            non_local += 1
        assert non_local == 39


def reference_power_graph(g):
    """Reference: the n-step loop that raises every element to each power 1..n."""
    n, table = g.order, g._table
    idx = np.arange(n)
    is_power = np.zeros((n, n), dtype=bool)  # is_power[a, x]: x is a power of a
    x = idx
    for _ in range(n):
        is_power[idx, x] = True
        x = table[x, idx]
    return graph_from_matrix(is_power | is_power.T, g.element_labels)


class TestPowerGraphMatchesReference:
    """One walk per cyclic subgroup gives the graph of the n-step loop."""

    def test_group_sweep(self):
        for spec in GROUP_SWEEP:
            g = group_from_spec(spec)
            assert power_graph(g) == reference_power_graph(g), spec

    @pytest.mark.parametrize("spec", LARGE_GROUPS)
    def test_large_groups(self, spec):
        g = group_from_spec(spec)
        assert power_graph(g) == reference_power_graph(g)


# --- products of Z_n: the residue path against the table path ---------------------

# Ring families of the CI console-script step, besides the benchmark pool.
CI_RING_SPECS = [
    "zdg:Z2[x]/(x^11)",
    "comax:Z2xZ3xZ5xZ7",
    "comax:Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2",
    "comax:Z8",
    "comax:Z257",
    "zdg:Z2049",
    "zdg:Z180",
    "izdg:Z180:I=(12)",
    "comax:Z4xZ9xZ5",
]


def table_graph(spec):
    """The graph of a ring family spec through the ring's operation tables."""
    kind, _, rest = spec.partition(":")
    if kind == "izdg":
        ring_spec, _, ideal_spec = rest.partition(":")
        r = ring_from_spec(ring_spec)
        return ideal_zero_divisor_graph(r, ideal_from_spec(r, ideal_spec[2:]))
    r = ring_from_spec(rest)
    return zero_divisor_graph(r) if kind == "zdg" else comaximal_ideal_graph(r)


def ideal_spec(r, ideal):
    """An ``I=(...)`` spec generated by every element of ``ideal``."""
    return "I=(" + ",".join(r.element_labels[x] for x in ideal.elements) + ")"


@pytest.fixture
def no_tables(monkeypatch):
    """``family_graph`` with every ring and ideal built from a spec refused."""

    def refused(*args):
        raise AssertionError(f"a table was built for {args}")

    monkeypatch.setattr(twindex.algebra, "ring_from_spec", refused)
    monkeypatch.setattr(twindex.algebra, "ideal_from_spec", refused)
    return family_graph


def assert_same_outcome(spec, build, expected):
    """``build(spec)`` gives the graph ``expected`` gives, or raises its error type."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = expected(spec)
        except TwindexError as exc:
            with pytest.raises(type(exc)):
                build(spec)
            return
        assert build(spec) == want, spec


def residue_rings():
    """Every ``Z_n`` up to the enumeration cap, every ``Z_a x Z_b`` with
    ``ab <= 128``, and the products of ``Z_n`` in ``RING_SWEEP``."""
    rings = [f"Z{n}" for n in range(2, 257)]
    rings += [f"Z{a}xZ{b}" for a in range(2, 65) for b in range(a, 65) if a * b <= 128]
    return rings + [s for s in RING_SWEEP if zmod_moduli(s) is not None and s not in rings]


def ring_sweep_specs():
    """zdg and comax of every ring of :func:`residue_rings`."""
    return [f"{kind}:{ring}" for ring in residue_rings() for kind in ("zdg", "comax")]


class TestResiduePath:
    """``family_graph`` builds the ring families of a product of ``Z_n`` with no
    table, and gives the graph and the errors of the table path."""

    def test_zmod_moduli(self):
        assert zmod_moduli("Z180") == (180,)
        assert zmod_moduli(" Z4xZ9xZ5 ") == (4, 9, 5)
        for spec in ["Z2[x]/(x^3)", "Z3[x]/(x^2)xZ2", "Z1", "Z0", "Z2xZ1"]:
            assert zmod_moduli(spec) is None, spec
        with pytest.raises(BadParameter):
            zmod_moduli("Zx")
        with pytest.raises(OrderTooLarge, match="Z2xZ1025 has order above 2048"):
            zmod_moduli("Z2xZ1025")

    def test_benchmark_reference_and_ci_specs(self, no_tables):
        specs = [s for s in PAPER_POOL_SPECS if not s.startswith("power:")]
        rings = ("zdg", "izdg", "comax")
        specs += [c.family for c in REFERENCE_CHECKS if c.family.split(":")[0] in rings]
        residue = [s for s in specs + CI_RING_SPECS if "[x]" not in s]
        assert len(residue) == len(specs + CI_RING_SPECS) - 2  # the polynomial quotients
        for spec in residue:
            assert_same_outcome(spec, no_tables, table_graph)

    def test_polynomial_quotients_keep_the_tables(self, monkeypatch):
        built = []
        def recording(spec):
            built.append(spec)
            return ring_from_spec(spec)

        monkeypatch.setattr(twindex.algebra, "ring_from_spec", recording)
        assert family_graph("zdg:Z2[x]/(x^3)") == table_graph("zdg:Z2[x]/(x^3)")
        assert built == ["Z2[x]/(x^3)"]

    def test_every_small_product_of_two(self, no_tables):
        specs = ring_sweep_specs()
        assert len(specs) == 2 * (255 + 200 + 1)  # Z_n, Z_a x Z_b, Z2xZ2xZ4
        for spec in specs:
            assert_same_outcome(spec, no_tables, table_graph)

    def test_every_proper_ideal_of_the_ring_sweep(self, no_tables):
        checked = 0
        for ring_spec in RING_SWEEP:
            if zmod_moduli(ring_spec) is None:
                continue
            r = ring_from_spec(ring_spec)
            for ideal in all_ideals(r):
                if ideal.is_proper():
                    spec = f"izdg:{ring_spec}:{ideal_spec(r, ideal)}"
                    got = no_tables(spec)
                    assert got == ideal_zero_divisor_graph(r, ideal), spec
                    assert _shape(got) == _literal_ideal_zero_divisor_graph(r, ideal), spec
                    checked += 1
        assert checked == 235

    def test_matches_definitions(self, no_tables):
        for ring_spec in RING_SWEEP:
            if zmod_moduli(ring_spec) is None:
                continue
            r = ring_from_spec(ring_spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert _shape(no_tables(f"zdg:{ring_spec}")) == _literal_zero_divisor_graph(r)
            expected = _literal_comaximal_ideal_graph(r)
            if expected is None:
                with pytest.raises(LocalRingUnsupported):
                    no_tables(f"comax:{ring_spec}")
            else:
                assert _shape(no_tables(f"comax:{ring_spec}")) == expected, ring_spec

    @pytest.mark.parametrize(
        "spec",
        [
            "zdg:Z0",
            "zdg:Z1",
            "zdg:Z2xZ1",
            "zdg:Z2049",
            "zdg:Z2xZ1025",
            "comax:Z257",
            "comax:Z8",
            "zdg:Z7",
            "izdg:Z6:I=(7)",
            "izdg:Z6:I=(1)",
            "izdg:Z6:I=()",
            "izdg:Z6",
            "izdg:Z6xZ2:I=(0,1)",
            "izdg:Z6xZ2:I=(( 0,1))",
            "izdg:Z6:I=(01)",
            "izdg:Z6:I=(+1)",
            "izdg:Z6:I=((0))",
            "izdg:Z6xZ2:I=((0, 1))",
            "izdg:Z6xZ2:I=((6,0))",
            "comax:Z4xZ9xZ5",
        ],
    )
    def test_error_parity(self, spec, monkeypatch, capsys):
        def outcome():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = family_graph(spec).n
                except TwindexError as exc:
                    result = type(exc)
            code = main(["index", "--family", spec, "--m", "2"])
            lines = capsys.readouterr().err.splitlines()
            return result, [w.category for w in caught], code, len(lines)

        residue = outcome()
        monkeypatch.setattr(twindex.algebra, "zmod_moduli", lambda s: None)
        assert outcome() == residue

    def test_caps_raise_before_allocating(self):
        caps = [
            ("zdg:Z2049", OrderTooLarge),
            ("power:Z2049", OrderTooLarge),
            ("power:Z2xZ1025", OrderTooLarge),
            ("power:D2050", OrderTooLarge),
            ("comax:Z257", RingTooLarge),
            ("comax:Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ3", RingTooLarge),
        ]
        for spec, error in caps:
            tracemalloc.start()
            try:
                with pytest.raises(error):
                    family_graph(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16, spec

    def test_order_cap_names_a_table_only_where_one_is_built(self, monkeypatch, capsys):
        no_table = "the order cap of every group and ring spec"
        table = "one int16 operation table would exceed the 8388608-byte table budget"
        for spec, reason in [
            ("zdg:Z2049", no_table),
            ("comax:Z2xZ1025", no_table),
            ("power:Z2049", no_table),
            ("power:Z2xZ1025", no_table),
            ("power:D2050", no_table),
            ("power:Q8xZ257", no_table),
            ("power:E2^12", no_table),
            ("zdg:Z2[x]/(x^11)xZ2", table),
        ]:
            ring = spec.partition(":")[2]
            message = f"{ring} has order above 2048: {reason}"
            with pytest.raises(OrderTooLarge) as caught:
                family_graph(spec)
            assert str(caught.value) == message
            assert main(["index", "--family", spec, "--m", "2"]) == 1
            assert capsys.readouterr().err == f"twindex: {message}\n"
        with pytest.raises(OrderTooLarge) as caught:
            ring_from_spec("Z2049")
        assert str(caught.value) == f"Z2049 has order above 2048: {table}"
        monkeypatch.setattr(twindex.algebra, "zmod_moduli", lambda s: None)
        with pytest.raises(OrderTooLarge) as caught:
            family_graph("zdg:Z2049")
        assert str(caught.value) == f"Z2049 has order above 2048: {table}"

    def test_ideal_rows_are_the_table_rows(self):
        """The residue path's membership rows and ``1 - a`` are the table
        path's, row for row, radical ideals included."""
        for ring in residue_rings():
            moduli = zmod_moduli(ring)
            digits = np.unravel_index(np.arange(prod(moduli)), moduli)
            rows, one_minus = twindex.generators._residue_ideals(moduli, digits)
            r = ring_from_spec(ring)
            assert np.array_equal(rows, _ideal_masks(r)), ring
            assert np.array_equal(one_minus, np.argmax(r._add == r.one, axis=1)), ring


# --- power graphs of products of Z_n: the residue path against the table path -----

# Power-graph families of the CI console-script step, besides the benchmark pool.
CI_POWER_SPECS = [
    "power:Z6",
    "power:Z480",
    "power:E2^11",
    "power:D2048",
    "power:D120",
    "power:Z120",
    "power:Q8xZ15",
    "power:Z60",
    "power:Z20000",
    "power:Z2049",
    "power:Z2xZ30",
    "power:D8xZ3",
    "power:Q8xZ257",
]


def table_power_graph(spec):
    """The graph of a ``power:`` spec through the group's composition table."""
    return power_graph(group_from_spec(spec.partition(":")[2]))


@pytest.fixture
def no_group_tables(monkeypatch):
    """``family_graph`` with every group built from a spec refused."""

    def refused(*args):
        raise AssertionError(f"a table was built for {args}")

    monkeypatch.setattr(twindex.algebra, "group_from_spec", refused)
    return family_graph


def cyclic_products():
    """Every ``Z_n`` up to 256, every ``Z_a x Z_b`` with ``ab <= 128`` in both
    factor orders, and two products of three and four factors."""
    groups = [f"Z{n}" for n in range(2, 257)]
    groups += [f"Z{a}xZ{b}" for a in range(2, 65) for b in range(2, 65) if a * b <= 128]
    return groups + ["Z2xZ2xZ2xZ3", "Z3xZ3xZ3"]


def _literal_residue_power_graph(moduli):
    """Residue tuples in row-major order, ``x ~ y`` iff one is ``c`` times the other."""
    elements = list(itertools.product(*(range(n) for n in moduli)))
    multiples = [
        {tuple(c * a % n for a, n in zip(x, moduli)) for c in range(prod(moduli))} for x in elements
    ]
    edges = [
        (i, j)
        for i, x in enumerate(elements)
        for j, y in enumerate(elements)
        if i < j and (y in multiples[i] or x in multiples[j])
    ]
    labels = [",".join(map(str, x)) for x in elements]
    return [f"({label})" for label in labels] if len(moduli) > 1 else labels, edges


class TestResiduePowerGraphs:
    """``family_graph`` builds the power graph of a product of ``Z_n`` with no
    table, and gives the graph and the errors of the table path."""

    def test_power_rules_of_group_specs(self):
        """One reader gives every factor's labels, exponent and power map."""
        rules = group_power_rules(" Z2xZ30 ")
        assert [(r.labels, r.exponent, r.divisors) for r in rules] == [
            (["0", "1"], 2, (2, False)),
            ([str(a) for a in range(30)], 30, (30, False)),
        ]
        for spec, exponent in [("D12", 6), ("D10", 10), ("Q8", 4), ("E2^3", 2), ("Z1", 1)]:
            (rule,) = group_power_rules(spec)
            g = group_from_spec(spec)
            assert tuple(rule.labels) == g.element_labels, spec
            assert rule.exponent == exponent, spec
            x = np.arange(g.order)
            power = x
            for c in range(1, 2 * exponent + 1):
                assert np.array_equal(rule.power(x, c), power), (spec, c)
                assert np.array_equal(rule.power(x, np.array([[c]])), power[None]), (spec, c)
                power = g._table[power, x]
        assert [r.divisors for r in group_power_rules("Q8xE2^2xZ1")] == [None] * 3
        for spec in ["Zx", "Z2[x]/(x^3)", "Q9", "E2^0"]:
            with pytest.raises(BadParameter):
                group_power_rules(spec)
        with pytest.raises(OrderTooLarge, match="Z2xZ1025 has order above 2048: the order cap"):
            group_power_rules("Z2xZ1025")

    def test_every_small_product(self, no_group_tables):
        specs = [f"power:{group}" for group in cyclic_products()]
        assert len(specs) == 255 + 390 + 2  # Z_n, Z_a x Z_b, the two longer products
        for spec in specs:
            assert_same_outcome(spec, no_group_tables, table_power_graph)

    def test_benchmark_reference_and_ci_specs(self, no_group_tables):
        specs = [s for s in PAPER_POOL_SPECS if s.startswith("power:")]
        specs += [c.family for c in REFERENCE_CHECKS if c.family.startswith("power:")]
        specs += CI_POWER_SPECS
        assert len(specs) == 24
        for spec in specs:
            assert_same_outcome(spec, no_group_tables, table_power_graph)

    @pytest.mark.parametrize("moduli", [(12,), (2, 4), (4, 2), (2, 2, 2), (3, 6), (4, 6), (2, 3, 4)])
    def test_matches_the_definition(self, moduli, no_group_tables):
        spec = "power:" + "x".join(f"Z{n}" for n in moduli)
        assert _shape(no_group_tables(spec)) == _literal_residue_power_graph(moduli)

    @pytest.mark.parametrize(
        "spec",
        [
            "power:Z0",
            "power:Z1",
            "power:Z2xZ1",
            "power:Zx",
            "power:Z2xZ0",
            "power:Z2049",
            "power:Z2xZ1025",
        ],
    )
    def test_error_parity(self, spec):
        assert_same_outcome(spec, family_graph, table_power_graph)

    def test_no_power_spec_builds_a_table(self, monkeypatch):
        built = []

        def recording(spec):
            built.append(spec)
            return group_from_spec(spec)

        monkeypatch.setattr(twindex.algebra, "group_from_spec", recording)
        specs = ["D12", "Q8", "E2^3", "Q8xZ15", "D6xZ2", "Z1", "Z2xZ1", "Z2xZ30", "Z60"]
        specs += GROUP_SWEEP + LARGE_GROUPS
        for spec in specs:
            assert family_graph(f"power:{spec}") == table_power_graph(f"power:{spec}"), spec
        assert built == []

    def test_power_and_product_graphs_share_one_gather(self, monkeypatch):
        calls = []

        def recording(pairs, classes, labels):
            calls.append(len(labels))
            return class_graph(pairs, classes, labels)

        class_graph = twindex.generators._class_graph
        monkeypatch.setattr(twindex.generators, "_class_graph", recording)
        specs = ["power:Z60", "power:D12", "power:Q8xZ15", "zdg:Z180", "izdg:Z24:I=(8)", "zdg:Z2[x]/(x^3)"]
        for spec in specs:
            assert family_graph(spec).n == calls[-1], spec
        assert len(calls) == len(specs)


class TestDivisorPowerGraphs:
    """``family_graph`` builds the power graph of ``Z_n`` and of the dihedral
    group of order ``2n`` from the divisors of ``n``, with no table, and
    gives the graph and the errors of the table path. ``Z_n`` is also checked
    by :class:`TestResiduePowerGraphs`."""

    def test_divisor_group(self):
        """Only a single ``Z<n>`` (``n >= 2``) or ``D<2n>`` takes the divisor path."""

        def divisor_group(spec):
            rules = group_power_rules(spec)
            return rules[0].divisors if len(rules) == 1 else None

        assert divisor_group("Z480") == (480, False)
        assert divisor_group(" D120 ") == (60, True)
        for spec in ["Z1", "Q8", "E2^3", "Z2xZ30", "D6xZ2", "Q8xZ15"]:
            assert divisor_group(spec) is None, spec
        for spec in ["D7", "Z0"]:
            with pytest.raises(BadParameter):
                divisor_group(spec)
        with pytest.raises(OrderTooLarge, match="D2050 has order above 2048: the order cap"):
            divisor_group("D2050")

    def test_every_dihedral_group(self, no_group_tables):
        specs = [f"power:D{order}" for order in range(6, 513, 2)] + ["power:D2048"]
        for spec in specs:
            assert_same_outcome(spec, no_group_tables, table_power_graph)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_dihedral_matches_the_definition(self, n, no_group_tables):
        assert no_group_tables(f"power:D{2 * n}") == reference_power_graph(dihedral_group(n))

    @pytest.mark.parametrize("spec", ["power:D7", "power:D4", "power:D2050"])
    def test_dihedral_error_parity(self, spec, no_group_tables):
        assert_same_outcome(spec, no_group_tables, table_power_graph)


# --- power graphs of every other group spec, from the factors' power maps --------

# The factors of the product sweep, with their orders.
POWER_SWEEP_FACTORS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6, "Z8": 8, "Z9": 9, "Z12": 12,
    "D6": 6, "D8": 8, "D12": 12, "Q8": 8, "E2^2": 4, "E2^3": 8,
}


def power_sweep(max_order):
    """Every product of one to three factors of :data:`POWER_SWEEP_FACTORS`,
    in every order, of order at most ``max_order``."""
    return [
        "x".join(factors)
        for r in (1, 2, 3)
        for factors in itertools.product(POWER_SWEEP_FACTORS, repeat=r)
        if prod(POWER_SWEEP_FACTORS[f] for f in factors) <= max_order
    ]


class TestFactorPowerGraphs:
    """``family_graph`` builds the power graph of every group spec that is not
    a single ``Z<n>`` or ``D<2n>`` from the factors' power maps, with no table,
    and gives the graph and the errors of the table path."""

    def test_every_small_product(self, no_group_tables):
        specs = power_sweep(256)
        assert len(specs) == 1903
        for spec in specs:
            assert no_group_tables(f"power:{spec}") == table_power_graph(f"power:{spec}"), spec

    @pytest.mark.parametrize("spec", ["Q8", "Q8xZ3", "D6xZ2", "E2^3"])
    def test_matches_the_definition(self, spec, no_group_tables):
        assert _shape(no_group_tables(f"power:{spec}")) == _literal_power_graph(group_from_spec(spec))

    @pytest.mark.parametrize(
        "spec",
        [
            "power:Q8xZ0",
            "power:Z0xQ8",
            "power:D7xZ2",
            "power:E2^0",
            "power:E2^12",
            "power:Q8xZ257",
            "power:Z0xZ5000",
            "power:Z5000xZ0",
        ],
    )
    def test_error_parity(self, spec, no_group_tables):
        """The table path's error type and message, except that the whole
        spec's order cap names no table; where a factor's order is below 1,
        the first factor its constructor refuses raises, as on the table path."""
        with pytest.raises(TwindexError) as table:
            table_power_graph(spec)
        with pytest.raises(type(table.value)) as caught:
            no_group_tables(spec)
        expected = str(table.value)
        if expected.startswith(f"{spec[6:]} has order above"):
            table_budget = "one int16 operation table would exceed the 8388608-byte table budget"
            expected = expected.replace(table_budget, "the order cap of every group and ring spec")
        assert str(caught.value) == expected

    @pytest.mark.parametrize("spec", ["power:E2^11", "power:Q8xZ255", "power:D1024xZ2"])
    def test_order_cap_peak_memory(self, spec):
        """Far below the 28 MiB the table path peaked at on each of them."""
        family_graph(spec)
        tracemalloc.start()
        try:
            family_graph(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_unit_generators(self):
        """The greedy units generate every unit mod ``e``, and each one's
        pointer-jumping steps cover its powers up to the subgroup before it."""
        for e in list(range(1, 400)) + [1020, 2048]:
            units = {c % e for c in range(1, e + 1) if gcd(c, e) == 1}
            reached = {1 % e}
            for g, steps in twindex.generators._unit_generators(e):
                assert g in units and g not in reached, (e, g)
                t = next(t for t in range(1, e + 1) if pow(g, t, e) in reached)
                assert 2 ** (steps - 1) < t <= 2**steps, (e, g, steps)
                reached = {r * pow(g, j, e) % e for r in reached for j in range(t)}
            assert reached == units, e
