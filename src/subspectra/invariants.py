"""Degree-Kirchhoff index, Kemeny constant, and spanning-tree counts.

Each quantity has up to three independent routes: a sum over the analytic
spectrum, a closed form in the level and a few seed invariants, and a direct
oracle on the materialized graph (effective resistances, an exact matrix-tree
determinant, or simulated random walks).  :func:`full_report` computes every
available route per level and raises if any two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import CrossCheckError, OverflowPolicyError, ResourceLimitError
from .graph import DEFAULT_VERTEX_CAP, Graph, analyze, subdivide
from .linalg import DEFAULT_ORACLE_CAP, SymMatrix, bareiss_determinant, solve_linear
from .spectrum import Spectrum, base_spectrum, step

CROSS_CHECK_REL_TOL = 1e-8
IDENTITY_REL_TOL = 1e-10
# a float cannot pin an integer above 2^52, so exact tree comparisons stop there
EXACT_TREE_LIMIT = 2**52
MIN_MC_TRIALS = 10_000


class Route(str, Enum):
    SPECTRAL = "SPECTRAL"
    CLOSED_FORM = "CLOSED_FORM"
    ORACLE = "ORACLE"


@dataclass(frozen=True)
class InvariantReport:
    """Invariant values for one subdivision level, computed by one route."""

    level: int
    vertex_count: int
    edge_count: int
    kirchhoff_mult: float
    kemeny: float
    spanning_trees: int
    route: Route

    def __post_init__(self):
        if self.spanning_trees < 1:
            raise ValueError("a connected graph has at least one spanning tree")
        identity = 2.0 * self.edge_count * self.kemeny
        if abs(self.kirchhoff_mult - identity) > IDENTITY_REL_TOL * max(abs(identity), 1.0):
            raise ValueError(
                f"kirchhoff_mult {self.kirchhoff_mult!r} is not 2*E*kemeny {identity!r}"
            )


def kirchhoff_spectral(spec: Spectrum, edge_count: int) -> float:
    """Degree-Kirchhoff index as 2E times the reciprocal eigenvalue sum."""
    if spec.zero_mult != 1:
        raise ValueError("spectrum must contain exactly one zero eigenvalue")
    return 2.0 * edge_count * spec.reciprocal_sum()


def kirchhoff_closed_form(kf0: float, r: int, e0: int, n: int) -> float:
    """Degree-Kirchhoff index of the n-th subdivision from the base value kf0.

    Equals 8^n * kf0 + (8^n - 2^n)/3 * (2r - 1) * e0; the integer factor is
    exact, and folding the one-step recursion
    kf_n = 8 * kf_{n-1} + 2^n (2r - 1) e0 gives the same value.
    """
    if n < 0:
        raise ValueError("subdivision level must be nonnegative")
    return (8**n) * kf0 + ((8**n - 2**n) // 3) * (2 * r - 1) * e0


def kemeny_spectral(spec: Spectrum) -> float:
    """Kemeny constant as the sum of reciprocal nonzero eigenvalues."""
    if spec.zero_mult != 1:
        raise ValueError("spectrum must contain exactly one zero eigenvalue")
    return spec.reciprocal_sum()


def kemeny_closed_form(k0: float, r: int, n: int) -> float:
    """Kemeny constant of the n-th subdivision: 4^n * k0 + (4^n - 1)/3 * (r - 1/2)."""
    if n < 0:
        raise ValueError("subdivision level must be nonnegative")
    return (4**n) * k0 + ((4**n - 1) // 3) * (r - 0.5)


def spanning_trees_spectral(spec: Spectrum, degrees: Iterable[int]) -> float:
    """Spanning-tree count from the spectrum and degree sequence, in log space.

    Returns (prod degrees * prod nonzero eigenvalues) / (sum degrees) as a
    float whose rounding to the nearest integer is the tree count, for counts
    small enough that a float can resolve integers.
    """
    degree_list = list(degrees)
    log_result = math.fsum(math.log(d) for d in degree_list)
    log_result += spec.log_sum()
    log_result -= math.log(sum(degree_list))
    try:
        return math.exp(log_result)
    except OverflowError as exc:
        raise OverflowPolicyError(
            f"log-space spanning-tree count {log_result:.1f} exceeds the float range"
        ) from exc


def spanning_trees_closed_form(nst0: int, r: int, n: int) -> int:
    """Exact spanning-tree count of the n-th subdivision: 2^(r*n) times the base count."""
    if n < 0:
        raise ValueError("subdivision level must be nonnegative")
    return (2 ** (r * n)) * nst0


def grounded_laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian (degree matrix minus adjacency) without vertex 0, as int64."""
    lap = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    np.fill_diagonal(lap, g.degrees)
    u, v = g.edges.T
    lap[u, v] = -1
    lap[v, u] = -1
    return lap[1:, 1:]


def spanning_trees_oracle(g: Graph) -> int:
    """Exact spanning-tree count: the determinant of the grounded Laplacian (matrix-tree)."""
    return bareiss_determinant(grounded_laplacian(g).tolist())


def kirchhoff_oracle(g: Graph, oracle_cap: int = DEFAULT_ORACLE_CAP) -> float:
    """Degree-weighted sum of pairwise effective resistances, by one direct solve.

    Grounds vertex 0 and inverts the reduced combinatorial Laplacian in a
    single elimination, giving the grounded inverse G (zero on vertex 0).
    The resistance between i and j is G_ii + G_jj - 2 G_ij, so the sum of
    d_i d_j R_ij over pairs i < j reduces to (sum d) (sum d_i G_ii) - d^T G d,
    where only vertices 1..n-1 contribute to the last two sums.
    O(n^3) time and O(n^2) memory for n vertices.
    """
    n = g.vertex_count
    if n > oracle_cap:
        raise ResourceLimitError(f"graph has {n} vertices, above the dense cap {oracle_cap}")
    lap = grounded_laplacian(g).astype(float)
    grounded = solve_linear(SymMatrix.from_dense(lap), np.eye(n - 1))
    degrees = g.degrees.astype(float)
    rest = degrees[1:]
    return float(degrees.sum() * (rest @ np.diag(grounded)) - rest @ grounded @ rest)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Mean and standard error of simulated random-walk hitting times."""

    mean: float
    std_error: float
    trials: int
    seed: int


def kemeny_montecarlo(g: Graph, steps: int = 100_000, seed: int = 42) -> MonteCarloEstimate:
    """Estimate the Kemeny constant from simulated random walks.

    Each trial draws a start and a target vertex independently from the
    stationary distribution (degree over total degree) and walks from the
    start until the target is hit.  Trial t uses a Philox stream at counter
    t under the given key, so the estimate is reproducible regardless of
    evaluation order.
    """
    if steps < MIN_MC_TRIALS:
        raise ValueError(f"at least {MIN_MC_TRIALS} trials are required, got {steps}")
    cumulative = np.cumsum(g.degrees.astype(float))
    cumulative /= cumulative[-1]
    offsets, flat_neighbors = g.csr()
    neighbors = np.split(flat_neighbors, offsets[1:-1])
    total = 0.0
    total_sq = 0.0
    for trial in range(steps):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, trial]))
        target = int(np.searchsorted(cumulative, rng.random(), side="right"))
        current = int(np.searchsorted(cumulative, rng.random(), side="right"))
        hops = 0
        while current != target:
            options = neighbors[current]
            current = int(options[rng.integers(len(options))])
            hops += 1
        total += hops
        total_sq += hops * hops
    mean = total / steps
    variance = max(total_sq - steps * mean * mean, 0.0) / (steps - 1)
    return MonteCarloEstimate(mean, math.sqrt(variance / steps), steps, seed)


def relative_deviation(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _require_close(quantity: str, level: int, a: float, b: float) -> None:
    deviation = relative_deviation(a, b)
    if deviation > CROSS_CHECK_REL_TOL:
        raise CrossCheckError(quantity, level, f"{a!r} vs {b!r} (rel dev {deviation:.3e})")


def _require_tree_match(level: int, spectral: float, exact: int) -> None:
    if exact <= EXACT_TREE_LIMIT:
        if round(spectral) != exact:
            raise CrossCheckError(
                "spanning_trees", level, f"spectral {spectral!r} rounds away from exact {exact}"
            )
    else:
        deviation = abs(math.log(spectral) - math.log(exact))
        if deviation > CROSS_CHECK_REL_TOL:
            raise CrossCheckError(
                "spanning_trees", level, f"log-space rel dev {deviation:.3e} vs exact count"
            )


def full_report(
    g: Graph,
    n_max: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> list[InvariantReport]:
    """Invariants for levels 0..n_max by every route, mutually cross-checked.

    Emits SPECTRAL and CLOSED_FORM reports per level, plus an ORACLE report
    while the materialized subdivision stays within oracle_cap vertices.
    Raises CrossCheckError naming the first quantity on which two routes
    disagree (relative 1e-8; tree counts must round to the exact integer).
    """
    if n_max < 0:
        raise ValueError("subdivision level must be nonnegative")
    meta = analyze(g)
    r = meta.circuit_rank
    e0 = g.edge_count
    n0 = g.vertex_count
    if n0 + (2**n_max - 1) * e0 > vertex_cap:
        raise ResourceLimitError(
            f"level {n_max} would hold {n0 + (2 ** n_max - 1) * e0} eigenvalues, "
            f"above the cap {vertex_cap}"
        )
    spectrum = base_spectrum(g, oracle_cap)
    kf0 = kirchhoff_spectral(spectrum, e0)
    k0 = kemeny_spectral(spectrum)
    nst0 = spanning_trees_oracle(g)
    seed_degrees = g.degrees.tolist()

    reports: list[InvariantReport] = []
    level_graph: Graph | None = g
    for n in range(n_max + 1):
        if n > 0:
            spectrum = step(spectrum, meta)
            if level_graph is not None:
                next_size = level_graph.vertex_count + level_graph.edge_count
                level_graph = subdivide(level_graph) if next_size <= oracle_cap else None
        e_n = (2**n) * e0
        n_n = n0 + (2**n - 1) * e0
        degrees = seed_degrees + [2] * (n_n - n0)

        kf_spectral = kirchhoff_spectral(spectrum, e_n)
        kem_spectral = kemeny_spectral(spectrum)
        trees_float = spanning_trees_spectral(spectrum, degrees)
        kf_closed = kirchhoff_closed_form(kf0, r, e0, n)
        kem_closed = kemeny_closed_form(k0, r, n)
        trees_closed = spanning_trees_closed_form(nst0, r, n)

        _require_close("kirchhoff_mult", n, kf_spectral, kf_closed)
        _require_close("kemeny", n, kem_spectral, kem_closed)
        _require_tree_match(n, trees_float, trees_closed)

        trees_spectral = round(trees_float) if trees_closed <= EXACT_TREE_LIMIT else trees_closed
        reports.append(
            InvariantReport(n, n_n, e_n, kf_spectral, kem_spectral, trees_spectral, Route.SPECTRAL)
        )
        reports.append(
            InvariantReport(n, n_n, e_n, kf_closed, kem_closed, trees_closed, Route.CLOSED_FORM)
        )

        if level_graph is not None and level_graph.vertex_count <= oracle_cap:
            kf_oracle = kirchhoff_oracle(level_graph, oracle_cap)
            trees_oracle = spanning_trees_oracle(level_graph)
            _require_close("kirchhoff_mult", n, kf_oracle, kf_closed)
            if trees_oracle != trees_closed:
                raise CrossCheckError(
                    "spanning_trees", n, f"matrix-tree {trees_oracle} vs closed form {trees_closed}"
                )
            kem_oracle = kf_oracle / (2.0 * e_n)
            reports.append(
                InvariantReport(n, n_n, e_n, kf_oracle, kem_oracle, trees_oracle, Route.ORACLE)
            )
            _require_close("kemeny", n, kem_oracle, kem_closed)
    return reports
