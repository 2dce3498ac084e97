#!/usr/bin/env python3
"""The analytic route at a scale where dense diagonalization is impossible.

At level 15 the subdivision of K4 has 196606 vertices; a dense eigensolve
would need a 196606 x 196606 matrix.  The recursion instead carries a
compact multiset whose size is the number of distinct eigenvalues, so the
full exact spectrum takes a fraction of a second, and its structural
invariants can be checked directly.
"""

import time

from subspectra import analyze, kemeny_spectral, kirchhoff_spectral, parse_edge_list, spectrum_at

k4 = parse_edge_list("0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
level = 15
expected_total = k4.vertex_count + (2**level - 1) * k4.edge_count

started = time.perf_counter()
spec = spectrum_at(k4, level)
elapsed = time.perf_counter() - started

print(f"level {level}: {spec.total_multiplicity} eigenvalues "
      f"({len(spec.entries)} distinct) in {elapsed:.3f}s")
print(f"expected count {expected_total}: {'ok' if spec.total_multiplicity == expected_total else 'WRONG'}")

trace = spec.trace()
print(f"trace {trace:.6f} vs vertex count {expected_total} "
      f"(relative deviation {abs(trace - expected_total) / expected_total:.2e})")

print(f"exact constants: {spec.zero_mult} zero, {spec.one_mult} ones, {spec.two_mult} two")
print(f"circuit rank {analyze(k4).circuit_rank} pins the count of ones at r+1")

values = spec.values  # one per distinct eigenvalue, ascending
worst = float(abs(values + values[::-1] - 2.0).max())
print(f"multiset symmetry about 1 (bipartite levels): worst pairing error {worst:.2e}")

print()
print("invariants still come straight off the multiset:")
edge_count = 2**level * k4.edge_count
print(f"  Kirchhoff index: {kirchhoff_spectral(spec, edge_count):.6e}")
print(f"  Kemeny constant: {kemeny_spectral(spec):.6f}")

print()
print("the five smallest and largest eigenvalues:")
rows = spec.entries[["value", "multiplicity"]].tolist()
for value, mult in rows[:5]:
    print(f"  {value:.15f}  x{mult}")
print("  ...")
for value, mult in rows[-5:]:
    print(f"  {value:.15f}  x{mult}")
