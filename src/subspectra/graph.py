"""Simple connected graphs, edge-list I/O, and the edge-subdivision operator."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    ParseError,
    ResourceLimitError,
    SelfLoopError,
)

DEFAULT_VERTEX_CAP = 10**7
SERIALIZE_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple connected undirected graph on vertices 0..N-1.

    ``edges`` is a read-only int64 (E, 2) array of (min, max) rows in
    lexicographic order and ``degrees`` a read-only int64 array of length N,
    so two equal graphs have identical arrays.  Build instances through
    :meth:`from_edges` or :func:`parse_edge_list`; the raw constructor only
    converts both fields to read-only int64 arrays and validates nothing.
    """

    vertex_count: int
    edges: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        for name, shape in (("edges", (-1, 2)), ("degrees", (-1,))):
            array = np.asarray(getattr(self, name), dtype=np.int64).reshape(shape)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Validate and canonicalize an edge collection into a Graph.

        Raises SelfLoopError, DuplicateEdgeError or DisconnectedError when the
        input is not a simple connected graph, and ValueError for ids outside
        0..vertex_count-1.
        """
        if vertex_count < 2:
            raise ValueError("a graph needs at least two vertices and one edge")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise DuplicateEdgeError(f"duplicate edge {pair[0]} {pair[1]}")
            seen.add(pair)
        pairs = np.fromiter(chain.from_iterable(seen), np.int64, 2 * len(seen)).reshape(-1, 2)
        ordered = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        degrees = np.bincount(ordered.ravel(), minlength=vertex_count)
        isolated = np.flatnonzero(degrees == 0)
        if isolated.size:
            raise DisconnectedError(f"vertex {isolated[0]} has no edges")
        g = cls(vertex_count, ordered, degrees)
        reached = vertex_count - _depth_parity(g).count(-1)
        if reached != vertex_count:
            raise DisconnectedError(
                f"only {reached} of {vertex_count} vertices reachable from vertex 0"
            )
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in compressed sparse row form, built on each call.

        Returns (offsets, neighbors): the neighbors of v, in ascending
        order, are neighbors[offsets[v]:offsets[v + 1]].
        """
        flat = self.edges.ravel()
        # a stable sort lists each vertex's edges in edge order, which is
        # neighbor order because the edge rows are sorted (min, max) pairs
        order = np.argsort(flat, kind="stable")
        offsets = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offsets[1:])
        return offsets, flat[order ^ 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.degrees, other.degrees)
        )


@dataclass(frozen=True)
class GraphMeta:
    """Structural facts about a graph: cycle content and 2-colorability."""

    circuit_rank: int
    has_odd_cycle: bool
    is_bipartite: bool

    def __post_init__(self):
        if self.has_odd_cycle == self.is_bipartite:
            raise ValueError("has_odd_cycle must be the negation of is_bipartite")
        if self.circuit_rank < 0:
            raise ValueError("circuit rank cannot be negative")


def _depth_parity(g: Graph) -> list[int]:
    """Breadth-first search from vertex 0: depth mod 2 per vertex, -1 if unreached."""
    offsets, neighbors = (a.tolist() for a in g.csr())
    color = [-1] * g.vertex_count
    color[0] = 0
    queue = deque([0])
    while queue:
        current = queue.popleft()
        for other in neighbors[offsets[current] : offsets[current + 1]]:
            if color[other] == -1:
                color[other] = 1 - color[current]
                queue.append(other)
    return color


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line, '#' comments, blank lines.

    Vertex ids must be nonnegative integers written in ASCII decimal digits.
    Ids that already form the dense range 0..N-1 are kept as they are; any
    other id set is compacted to 0..N-1 in order of first appearance.
    """
    raw: list[tuple[int, int, int]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {stripped!r}", line=number)
        try:
            # int() alone would also take "+3", "1_0" and non-ASCII digits
            digits = parts[0] + parts[1]
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(
                f"vertex ids must be nonnegative decimal integers, got {stripped!r}", line=number
            ) from None
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", line=number)
        raw.append((u, v, number))

    if not raw:
        raise ParseError("no edges found")

    first_seen: dict[int, int] = {}
    for u, v, _ in raw:
        for vertex in (u, v):
            if vertex not in first_seen:
                first_seen[vertex] = len(first_seen)
    if set(first_seen) == set(range(len(first_seen))):
        relabel = {vertex: vertex for vertex in first_seen}
    else:
        relabel = first_seen

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v, number in raw:
        a, b = relabel[u], relabel[v]
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            raise DuplicateEdgeError(f"duplicate edge {u} {v}", line=number)
        seen.add(pair)
        edges.append(pair)
    return Graph.from_edges(len(relabel), edges)


def serialize_edge_list(g: Graph) -> str:
    """Edge-list text for a graph, one edge per line, sorted by (min, max).

    Formats blocks of SERIALIZE_BLOCK rows with one %-operation each, which
    is faster than a per-row f-string and holds only one block's Python ints.
    """
    edges = g.edges
    blocks = (edges[i : i + SERIALIZE_BLOCK] for i in range(0, len(edges), SERIALIZE_BLOCK))
    return "".join(("%d %d\n" * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def subdivide(g: Graph) -> Graph:
    """Insert a midpoint vertex on every edge.

    Original vertices keep their ids and degrees; the midpoint of the k-th
    edge (in sorted edge order) gets id N+k and degree 2.  The result has
    N+E vertices and 2E edges.  It is built directly in canonical form,
    without re-validation: a stable sort of the flattened edge array lists
    every original vertex's incident edges in edge order, so the rows
    (vertex, N + edge index) come out as sorted (min, max) pairs.
    """
    n = g.vertex_count
    flat = g.edges.ravel()
    order = np.argsort(flat, kind="stable")
    edges = np.column_stack((flat[order], n + order // 2))
    degrees = np.concatenate((g.degrees, np.full(g.edge_count, 2, dtype=np.int64)))
    return Graph(n + g.edge_count, edges, degrees)


def iterate_subdivide(g: Graph, n: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Apply :func:`subdivide` n times; n=0 returns the graph unchanged.

    The final graph has 2^n * E edges and N + (2^n - 1) * E vertices; the
    call fails up front with ResourceLimitError if that exceeds vertex_cap.
    """
    if n < 0:
        raise ValueError("subdivision level must be nonnegative")
    projected = g.vertex_count + (2**n - 1) * g.edge_count
    if projected > vertex_cap:
        raise ResourceLimitError(
            f"level {n} would need {projected} vertices, above the cap {vertex_cap}"
        )
    for _ in range(n):
        g = subdivide(g)
    return g


def analyze(g: Graph) -> GraphMeta:
    """Circuit rank and bipartiteness (via BFS 2-coloring)."""
    color = np.array(_depth_parity(g))
    u, v = g.edges.T
    bipartite = not np.any(color[u] == color[v])
    rank = g.edge_count - g.vertex_count + 1
    return GraphMeta(circuit_rank=rank, has_odd_cycle=not bipartite, is_bipartite=bipartite)
