"""Power graphs of finite groups and their twin-class indices.

Run with: python demos/03_power_graphs.py
"""

from twindex import steiner_wiener_naive, steiner_wiener_reduced, twin_partition, wiener_index
from twindex.algebra import cyclic_group, dihedral_group, quaternion_group
from twindex.generators import power_graph

# --- Z_6 ------------------------------------------------------------------
g = power_graph(cyclic_group(6))
print("power graph of Z_6:", g.n, "vertices,", g.edge_count(), "edges")

d = twin_partition(g)
for cls, kind in zip(d.classes, d.kinds):
    print(f"  twin class {[g.labels[v] for v in cls]} ({kind.value})")

print("SW_3 by definition:   ", steiner_wiener_naive(g, 3))
print("SW_3 via twin classes:", steiner_wiener_reduced(d, 3))

# --- D_12 -----------------------------------------------------------------
gd = power_graph(dihedral_group(6))
dd = twin_partition(gd)
print("\npower graph of D_12:", gd.n, "vertices")
print("class sizes:", dd.class_sizes(), "kinds:", [k.value for k in dd.kinds])
print("W =", wiener_index(gd))

# --- Q_8 ------------------------------------------------------------------
gq = power_graph(quaternion_group())
dq = twin_partition(gq)
print("\npower graph of Q_8: classes",
      [[gq.labels[v] for v in cls] for cls in dq.classes])
print("SW_6 =", steiner_wiener_reduced(dq, 6))
