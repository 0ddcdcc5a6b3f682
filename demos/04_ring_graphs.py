"""Zero-divisor, ideal-based zero-divisor, and comaximal ideal graphs.

Run with: python demos/04_ring_graphs.py
"""

from twindex import steiner_wiener_reduced, twin_partition
from twindex.algebra import Ideal, all_ideals, ideal_from_spec, maximal_ideals, ring_from_spec, zmod
from twindex.generators import comaximal_ideal_graph, ideal_zero_divisor_graph, zero_divisor_graph

# --- zero-divisor graph of Z_6 ---------------------------------------------
g = zero_divisor_graph(zmod(6))
print("zero divisors of Z_6:", g.labels)
print("edges:", [(g.labels[u], g.labels[v]) for u, v in g.edges()])

# --- ideal-based zero-divisor graph of Z_24 with I = (8) --------------------
r = zmod(24)
ideal = ideal_from_spec(r, "(8)")
print("\nI = (8) in Z_24:", [r.element_labels[x] for x in ideal.elements])
gi = ideal_zero_divisor_graph(r, ideal)
di = twin_partition(gi)
print("vertices:", list(gi.labels))
for cls, kind in zip(di.classes, di.kinds):
    print(f"  class {[gi.labels[v] for v in cls]} ({kind.value})")
print("SW_8 =", steiner_wiener_reduced(di, 8))

# --- comaximal ideal graph of Z_2 x Z_2 x Z_4 -------------------------------
rr = ring_from_spec("Z2xZ2xZ4")
# The Jacobson radical is the intersection of the maximal ideals.
maxima = [m.members for m in maximal_ideals(rr)]
radical = Ideal(rr, tuple(sorted(set(range(rr.size)).intersection(*maxima))))
print(f"\n{rr!r}: {len(all_ideals(rr))} ideals,", "Jacobson radical", radical.label())
gc = comaximal_ideal_graph(rr)
dc = twin_partition(gc)
print("comaximal graph:", gc.n, "vertices, class sizes", dc.class_sizes())
print("W =", steiner_wiener_reduced(dc, 2), " SW_8 =", steiner_wiener_reduced(dc, 8))
