#!/usr/bin/env python3
"""The exact spectrum recursion, verified against dense diagonalization.

Each subdivision step drops one eigenvalue 2, lifts every other eigenvalue x
through the two preimages 1 +- sqrt(1 - x/2) of the map 4x - 2x^2, and
inserts the eigenvalue 1 with a multiplicity set by the circuit rank.  The
multiset it produces matches brute-force eigenvalues of the explicit graphs.
"""

from subspectra import (
    analyze,
    base_spectrum,
    compare,
    iterate_subdivide,
    jacobi_eigenvalues,
    normalized_laplacian,
    parse_edge_list,
    spectrum_at,
)

k4 = parse_edge_list("0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
meta = analyze(k4)
print(f"seed: K4 (circuit rank {meta.circuit_rank}, odd cycle: {meta.has_odd_cycle})")

print()
print("== level 0: eigensolver output, clustered ==")
spec = base_spectrum(k4)
for value, mult, exact in spec.entries[["value", "multiplicity", "exact"]].tolist():
    tag = f"exact {exact}" if exact >= 0 else "numeric"
    print(f"  value {value:.12f}  multiplicity {mult}  ({tag})")

print()
print("== levels 1..3: the recursion vs the dense solver ==")
for n in (1, 2, 3):
    analytic = spectrum_at(k4, n)
    explicit = iterate_subdivide(k4, n)
    numeric = jacobi_eigenvalues(normalized_laplacian(explicit))
    report = compare(analytic, numeric, 1e-7)
    print(
        f"level {n}: {analytic.total_multiplicity} eigenvalues "
        f"({len(analytic.entries)} distinct), inserted 1s: {analytic.one_mult}, "
        f"max deviation {report.max_deviation:.2e}"
    )

print()
print("== the level-2 multiset, with branch paths ==")
level_two = spectrum_at(k4, 2)
rows = level_two.entries[["value", "multiplicity", "base"]].tolist()
for (value, mult, base), path in zip(rows, level_two.paths()):
    print(f"  {value:.12f}  x{mult}  base {base:.6f}  path {path or '-'}")
print("paths record the branch choices (1 = upper, 2 = lower), oldest first")
