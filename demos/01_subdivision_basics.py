#!/usr/bin/env python3
"""Building graphs, subdividing their edges, and watching the growth laws.

Subdividing a graph puts a new degree-2 vertex in the middle of every edge.
Edge counts double at each level and the circuit rank never changes, while
any odd cycle is destroyed after a single step.
"""

from subspectra import analyze, iterate_subdivide, parse_edge_list, serialize_edge_list, subdivide

K4_TEXT = """\
# complete graph on four vertices
0 1
0 2
0 3
1 2
1 3
2 3
"""

print("== edge-list input ==")
k4 = parse_edge_list(K4_TEXT)
print(f"K4: {k4.vertex_count} vertices, {k4.edge_count} edges")
meta = analyze(k4)
print(f"circuit rank {meta.circuit_rank}, odd cycle: {meta.has_odd_cycle}")

print()
print("== one subdivision step ==")
s1 = subdivide(k4)
print(f"s(K4): {s1.vertex_count} vertices, {s1.edge_count} edges")
print(f"original degrees kept: {tuple(s1.degrees[:4].tolist())}, "
      f"inserted vertices: {tuple(s1.degrees[4:].tolist())}")
print(f"bipartite now: {analyze(s1).is_bipartite}  (the triangles are gone)")

print()
print("== growth laws under iteration ==")
print(f"{'n':>3} {'vertices':>10} {'edges':>8} {'rank':>5}")
for n in range(7):
    g = iterate_subdivide(k4, n)
    print(f"{n:>3} {g.vertex_count:>10} {g.edge_count:>8} {analyze(g).circuit_rank:>5}")
print("vertices follow N + (2^n - 1)E, edges follow 2^n E, the rank is invariant")

print()
print("== serialization round-trips ==")
text = serialize_edge_list(s1)
print(f"s(K4) as an edge list ({len(text.splitlines())} lines), first three:")
for line in text.splitlines()[:3]:
    print(f"  {line}")
assert parse_edge_list(text) == s1
print("parse(serialize(g)) == g holds")
