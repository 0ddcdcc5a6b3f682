"""How much the twin-class reduction saves: naive vs reduced on Z_n power graphs.

The naive method runs one exact Steiner query per m-subset; the reduced
method groups subsets by class support and only queries the (tiny) reduced
graph, once per support. The gap widens quickly with n.

Run with: python demos/05_reduction_benchmark.py
"""

import time
from math import comb

from twindex import steiner_wiener_naive, steiner_wiener_reduced_with_stats, twin_partition
from twindex.algebra import cyclic_group
from twindex.generators import power_graph

M = 3
print(f"m = {M}, power graphs of Z_n")
print(f"{'n':>4} {'subsets':>9} {'classes':>8} {'supports':>9} "
      f"{'naive':>10} {'reduced':>10} {'speedup':>8}  value")

for n in (12, 20, 30, 40, 60):
    g = power_graph(cyclic_group(n))
    d = twin_partition(g)

    t0 = time.perf_counter()
    naive = steiner_wiener_naive(g, M)
    t1 = time.perf_counter()
    reduced, stats = steiner_wiener_reduced_with_stats(d, M)
    t2 = time.perf_counter()

    assert naive == reduced
    naive_s, reduced_s = t1 - t0, t2 - t1
    print(f"{n:>4} {comb(n, M):>9} {d.k:>8} {stats.num_profiles:>9} "
          f"{naive_s:>9.3f}s {reduced_s*1000:>8.1f}ms "
          f"{naive_s/reduced_s:>7.0f}x  {naive}")
