"""Structural recognizers and bound reports against the exact solver.

Run with:  python3 demos/04_characterizations_and_bounds.py
"""

from eclab import ec_bounds, edge_coalition_number, theorems
from eclab.graphs import Graph

print("Trees (n <= 9) and unicyclic graphs (n <= 8) whose coalition number")
print("reaches the size, against the recognizers, as the reproduction suite checks:")
for result in theorems.run_all(("trees-phi", "unicyclic-theta")):
    print(f"  {'PASS' if result.passed else 'FAIL'}  {result.tag}: {result.detail}")
print()


def show_bounds(name, g):
    value = edge_coalition_number(g).ec
    print(f"{name}: EC = {value}")
    for e in ec_bounds(g).entries:
        status = "applies" if e.applicable else "n/a    "
        holds = ""
        if e.applicable:
            ok = e.value <= value if e.kind == "lower" else value <= e.value
            holds = "" if ok else "  <-- VIOLATED"
        print(f"  {e.source:30s} {e.kind:5s} {e.value:3d}  {status}  {e.reason}{holds}")
    print()


show_bounds("C7", Graph(7, [(i, (i + 1) % 7) for i in range(7)]))
show_bounds("P3", Graph(3, [(0, 1), (1, 2)]))

# The spider with three legs of length two is a cautionary example: it
# meets the stated applicability condition of the 2*gamma'-1 lower bound
# (no isolated or full edges) yet its coalition number falls below it.
show_bounds("3-leg spider", Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]))
