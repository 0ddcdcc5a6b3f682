"""Tour of twin classes: decompose a graph, inspect the reduced graph,
and rebuild the original as a generalized composition.

Run with: python demos/01_twin_decomposition.py
"""

from twindex import (
    are_twins,
    new_graph,
    recompose,
    render_graph,
    twin_partition,
)

# An 8-vertex graph with a rich twin structure around the hub vertex 5:
# pendants 0, 4, 7 are attached identically (false twins), while 1, 6 and
# 2, 3 form adjacent identical pairs (true twins).
g = new_graph(
    8,
    [
        (0, 5), (4, 5), (5, 7),      # three pendant twins on the hub
        (1, 5), (6, 5), (1, 6),      # an adjacent twin pair
        (2, 5), (3, 5), (2, 3),      # another adjacent pair
    ],
)

print("graph:")
print(render_graph(g), end="")

print("some twin checks:")
for u, v in [(0, 4), (0, 7), (1, 6), (0, 1), (5, 7)]:
    print(f"  are_twins({u}, {v}) = {are_twins(g, u, v)}")

d = twin_partition(g)
print(f"\n{d.k} twin classes:")
for cls, kind in zip(d.classes, d.kinds):
    print(f"  {cls} -> representative {cls[0]}, {kind.value}")

print("\nreduced graph (one vertex per class):")
print(render_graph(d.reduced), end="")

# The source graph is exactly the generalized composition of the class
# subgraphs over the reduced graph; recompose() checks this identity.
rebuilt = recompose(d)
print(f"\nrecompose(twin_partition(g)) == g: {rebuilt == g}")
