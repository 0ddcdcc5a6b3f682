"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one ``ACCEPTANCE <nn> PASS`` line (visible with ``pytest -s``
or in the captured-output section); a failed assertion is the FAIL signal.
All index values are exact integers, so every tolerance is equality. The
naive oracle is authoritative: paper-derived rows check naive and reduced
against each other first, then against the recorded literature value.
"""

import random
import time
import warnings

from twindex import (
    generalized_composition,
    is_connected,
    recompose,
    steiner_wiener_naive,
    steiner_wiener_reduced,
    sw_complete_multipartite,
    sw_completely_joined_bound,
    twin_partition,
    wiener_index,
)
from twindex.algebra import cyclic_group
from twindex.generators import complete_graph, family_graph, power_graph, star_graph
from twindex.reference import closed_form

from conftest import all_graphs, graphs_up_to_isomorphism, random_connected_graph, random_graph


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def check_value_row(num: int, family: str, m: int, expected: int, budget_s: float, label: str):
    start = time.perf_counter()
    g = family_graph(family)
    naive = steiner_wiener_naive(g, m)
    reduced = steiner_wiener_reduced(twin_partition(g), m)
    elapsed = time.perf_counter() - start
    assert naive == reduced, f"{label}: naive {naive} != reduced {reduced}"
    assert naive == expected, f"{label}: computed {naive}, literature reports {expected}"
    assert elapsed < budget_s, f"{label}: {elapsed:.2f}s exceeds {budget_s}s"
    report(num, f"{label} = {expected} [naive+reduced, {elapsed*1000:.1f} ms]")


def test_criterion_01_sw3_power_graph_z6():
    check_value_row(1, "power:Z6", 3, 41, 1.0, "SW_3(power graph of Z_6)")


def test_criterion_02_wiener_power_graph_d12():
    start = time.perf_counter()
    g = family_graph("power:D12")
    w = wiener_index(g)
    wr = steiner_wiener_reduced(twin_partition(g), 2)
    elapsed = time.perf_counter() - start
    assert w == wr == 113
    assert elapsed < 1.0
    report(2, f"W(power graph of D_12) = 113 [direct+reduced, {elapsed*1000:.1f} ms]")


def test_criterion_03_sw6_power_graph_q8():
    check_value_row(3, "power:Q8", 6, 141, 1.0, "SW_6(power graph of Q_8)")


def test_criterion_04_sw5_k333_three_routes():
    start = time.perf_counter()
    g = family_graph("multipartite:3,3,3")
    closed = sw_complete_multipartite((3, 3, 3), 5)
    naive = steiner_wiener_naive(g, 5)
    reduced = steiner_wiener_reduced(twin_partition(g), 5)
    elapsed = time.perf_counter() - start
    assert closed == naive == reduced == 504
    assert elapsed < 1.0
    report(4, f"SW_5(K_3,3,3) = 504 [closed form+naive+reduced, {elapsed*1000:.1f} ms]")


def test_criterion_05_sw8_ideal_graph_z24():
    check_value_row(5, "izdg:Z24:I=(8)", 8, 63, 1.0, "SW_8(ideal-based graph of Z_24, I=(8))")


def test_criterion_06_sw4_ideal_graph_poly_ring():
    check_value_row(
        6,
        "izdg:Z2[x]/(x^3)xZ2:I=((0,1))",
        4,
        46,
        1.0,
        "SW_4(ideal-based graph of Z_2[x]/(x^3) x Z_2, I=(0)xZ_2)",
    )


def test_criterion_07_wiener_ideal_graph_z6z2():
    check_value_row(
        7, "izdg:Z6xZ2:I=((0,1))", 2, 22, 1.0, "W(ideal-based graph of Z_6 x Z_2, I=(0)xZ_2)"
    )


def test_criterion_08_sw8_comaximal_graph():
    check_value_row(8, "comax:Z2xZ2xZ4", 8, 65, 1.0, "SW_8(comaximal graph of Z_2 x Z_2 x Z_4)")


def test_criterion_09_wiener_comaximal_graphs():
    for family, expected in [("comax:Z8xZ9", 14), ("comax:Z3xZ5xZ9", 69)]:
        start = time.perf_counter()
        g = family_graph(family)
        w = wiener_index(g)
        wr = steiner_wiener_reduced(twin_partition(g), 2)
        elapsed = time.perf_counter() - start
        assert w == wr == expected, (family, w, wr, expected)
        assert elapsed < 1.0, (family, elapsed)
    report(9, "W(comaximal graph of Z_8 x Z_9) = 14 and of Z_3 x Z_5 x Z_9 = 69")


def test_criterion_10_star_formula():
    start = time.perf_counter()
    for n in range(4, 11):
        g = star_graph(n)
        for m in range(2, n):
            expected = closed_form(f"multipartite:1,{n - 1}", m)
            assert steiner_wiener_naive(g, m) == expected, (n, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(10, f"star closed form matches the oracle for n=4..10, all m [{elapsed:.2f} s]")


def test_criterion_11_formula_oracle_equivalence():
    # Exhaustive edge-set enumeration up to n = 5, and every connected graph
    # on 6 vertices up to isomorphism (112 of the 156 classes; OEIS A001349
    # and A000088). Sampled: 150 random connected graphs at each of n = 6, 7
    # and 60 at each of n = 8, 9.
    start = time.perf_counter()

    def sweep(g):
        d = twin_partition(g)
        for m in range(2, g.n + 1):
            reduced = steiner_wiener_reduced(d, m)
            naive = steiner_wiener_naive(g, m)
            assert reduced == naive, (g.edges(), m, reduced, naive)

    exhaustive = 0
    for n in range(2, 6):
        for g in all_graphs(n):
            if is_connected(g):
                sweep(g)
                exhaustive += 1
    six = list(graphs_up_to_isomorphism(6))
    connected_six = [g for g in six if is_connected(g)]
    assert (len(six), len(connected_six)) == (156, 112)
    for g in connected_six:
        sweep(g)
    rng = random.Random(0xACCE55)
    sampled = 0
    for n, trials in [(6, 150), (7, 150), (8, 60), (9, 60)]:
        for _ in range(trials):
            sweep(random_connected_graph(rng, n, 0.4))
            sampled += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        11,
        f"reduced == naive on {exhaustive} exhaustive (n<=5), {len(connected_six)} n=6 up to "
        f"isomorphism and {sampled} sampled (n=6..9) connected graphs, all m [{elapsed:.1f} s]",
    )


def test_criterion_12_reconstruction():
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    for trial in range(1000):
        n = rng.randint(0, 32)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        assert recompose(twin_partition(g)) == g
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(12, f"recompose(twin_partition(g)) == g for 1000 random graphs, n <= 32 [{elapsed:.1f} s]")


def test_criterion_13_completely_joined_bound():
    start = time.perf_counter()
    rng = random.Random(0xB0DD)
    for trial in range(50):
        p = rng.randint(2, 4)
        sizes = [1] * p
        for _ in range(9 - p):
            if sum(sizes) >= 9:
                break
            sizes[rng.randrange(p)] += 1
        factors = tuple(random_graph(rng, s, 0.5) for s in sizes)
        g = generalized_composition(complete_graph(p), factors)
        for m in range(1, g.n + 1):
            assert steiner_wiener_naive(g, m) <= sw_completely_joined_bound(g.n, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(13, f"SW_m <= m*binom(n,m) on 50 random completely joined graphs [{elapsed:.1f} s]")


def test_criterion_14_reduction_speedup_on_z60():
    start = time.perf_counter()
    g = power_graph(cyclic_group(60))
    d = twin_partition(g)
    t0 = time.perf_counter()
    naive = steiner_wiener_naive(g, 3)
    t1 = time.perf_counter()
    reduced = steiner_wiener_reduced(d, 3)
    t2 = time.perf_counter()
    assert naive == reduced
    naive_s, reduced_s = t1 - t0, t2 - t1
    speedup = naive_s / reduced_s
    # soft criterion: hard-fail below parity, warn below the 5x target
    assert speedup >= 1.0, f"reduced slower than naive ({speedup:.2f}x)"
    if speedup < 5.0:
        warnings.warn(f"reduction speedup only {speedup:.2f}x (target >= 5x)")
    total = time.perf_counter() - start
    assert total < 60.0
    report(
        14,
        f"Z_60 power graph, m=3: naive {naive_s:.2f}s vs reduced {reduced_s*1000:.1f}ms "
        f"({speedup:.0f}x, {d.k} twin classes, value {naive})",
    )
