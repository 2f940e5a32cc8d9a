"""Coalition numbers of named families: closed forms against the solver.

Run with:  python3 demos/02_family_tables.py   (about 0.1 s on a 2-core x86 host)
"""

import time

from eclab import closed_form_ec, edge_coalition_number, generate
from eclab.families import FamilySpec, complete_graph


def table(title, specs):
    print(title)
    print(f"  {'family':12s} {'closed form':>11s} {'solver':>6s} {'time':>8s}")
    for spec in specs:
        start = time.perf_counter()
        solved = edge_coalition_number(generate(spec)).ec
        elapsed = time.perf_counter() - start
        known = closed_form_ec(spec)
        shown = "-" if known is None else str(known)
        mark = "" if known in (None, solved) else "  <-- MISMATCH"
        print(f"  {spec.to_string():12s} {shown:>11s} {solved:6d} {elapsed:7.2f}s{mark}")
    print()


table("Paths", [FamilySpec("path", (n,)) for n in range(2, 15)])
table("Cycles", [FamilySpec("cycle", (n,)) for n in range(3, 13)])
table("Stars", [FamilySpec("star", (n,)) for n in range(1, 9)])
table("Double stars", [FamilySpec("double_star", (p, q)) for p, q in [(1, 1), (2, 1), (3, 2), (4, 4)]])
table("Complete graphs", [FamilySpec("complete", (n,)) for n in range(2, 6)])

# K6 has no covered closed form; the exact search shows its coalition
# number falls strictly below the edge count.
start = time.perf_counter()
k6 = edge_coalition_number(complete_graph(6))
print(f"K6: EC = {k6.ec} < m = 15  ({time.perf_counter() - start:.2f}s)")
