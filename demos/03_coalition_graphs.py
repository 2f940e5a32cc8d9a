"""Coalition graphs: the K_{2,4} gallery, stars, and self-coalition graphs.

Run with:  python3 demos/03_coalition_graphs.py
"""

from eclab import coalition_graph, coalition_partner_count, singleton_partition
from eclab.families import K24_PARTITION_PRESETS, complete_bipartite, star_graph
from eclab.theorems import self_coalition_census

k24 = complete_bipartite(2, 4)
print("Coalition graphs of K_{2,4} under its built-in partitions:")
for pid, blocks in K24_PARTITION_PRESETS.items():
    ecg = coalition_graph(k24, blocks)
    degrees = sorted((ecg.degree(v) for v in range(ecg.n)), reverse=True)
    print(f"  {pid}: order {ecg.n}, size {ecg.m}, degrees {degrees}")
print()

print("Stars only admit the singleton partition, and its coalition graph")
print("is edgeless (every block is a lone full edge):")
for leaves in range(2, 7):
    s = star_graph(leaves)
    ecg = coalition_graph(s, singleton_partition(s))
    counts = {coalition_partner_count(s, singleton_partition(s), i) for i in range(leaves)}
    print(f"  star with {leaves} leaves -> {ecg.n} isolated vertices, partner counts {counts}")
print()

print("Unicyclic graphs isomorphic to their own singleton coalition graph (n <= 7),")
print("the census the reproduction suite checks:")
for g in self_coalition_census():
    degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    print(f"  n={g.n}: edges {g.edges} (degree sequence {degrees})")
print()
print("Note the third hit: triangles carrying at least one pendant leaf at")
print("every vertex always reproduce themselves, because each leaf block's")
print("only partner is the opposite triangle edge.")
