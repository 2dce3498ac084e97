"""Exact spectrum bookkeeping for the normalized Laplacian under subdivision.

One subdivision step transforms the eigenvalue multiset as follows: a single
copy of the eigenvalue 2 is dropped (it exists exactly when the current graph
is bipartite), every remaining eigenvalue x is replaced by the two preimages
of the quadratic map x -> 4x - 2x^2, and the eigenvalue 1 is inserted with a
multiplicity fixed by the circuit rank.  Because the step is exact, each
eigenvalue is represented symbolically as a numeric base value plus the chain
of branch choices applied to it, with the constants 0, 1 and 2 tracked
exactly.  Float error enters through the level-0 eigensolve and a few
roundings per level; both branches are evaluated without cancellation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    CountMismatchError,
    NegativeMultiplicityError,
    ResourceLimitError,
    SpectrumStructureError,
)
from .graph import DEFAULT_VERTEX_CAP, Graph, GraphMeta, analyze
from .linalg import DEFAULT_ORACLE_CAP, EigenResult, jacobi_eigenvalues, normalized_laplacian

UPPER = "1"  # branch into [1, 2]
LOWER = "2"  # branch into [0, 1]

CLUSTER_TOL = 1e-8


def parent_value(x: float) -> float:
    """Forward map: the eigenvalue one level down that x is a preimage of."""
    return 4.0 * x - 2.0 * x * x


def child_upper(x: float) -> float:
    """Preimage of x under :func:`parent_value` lying in [1, 2]."""
    return 1.0 + math.sqrt(1.0 - 0.5 * x)


def child_lower(x: float) -> float:
    """Preimage of x under :func:`parent_value` lying in [0, 1].

    Evaluated as (x/2) / (1 + sqrt(1 - x/2)), which equals 1 - sqrt(1 - x/2)
    without its cancellation: small eigenvalues keep full relative accuracy,
    and those dominate the reciprocal sums behind Kemeny and Kirchhoff.
    """
    return 0.5 * x / (1.0 + math.sqrt(1.0 - 0.5 * x))


@dataclass(frozen=True)
class SpectralValue:
    """One eigenvalue: a base value plus the branch labels applied to it.

    transform_path is a string over {"1", "2"} (upper/lower branch), oldest
    transform first.  exact is 0, 1 or 2 when the value is that constant;
    exact values carry an empty path and drive the exact bookkeeping (the
    dropped 2, the inserted 1s, the invariant single 0).
    """

    base_value: float
    transform_path: str
    cached_value: float
    exact: int | None = None

    @classmethod
    def constant(cls, k: int) -> SpectralValue:
        if k not in (0, 1, 2):
            raise ValueError(f"exact constants are 0, 1 and 2, not {k}")
        return cls(float(k), "", float(k), k)

    @classmethod
    def from_base(cls, x: float) -> SpectralValue:
        return cls(float(x), "", float(x), None)

    def children(self) -> tuple[SpectralValue, SpectralValue]:
        """The two values this one contributes at the next level.

        The exact 0 produces the exact constants 2 and 0; the exact 2 is
        dropped by :func:`step` before lifting and is never a valid input.
        """
        if self.exact == 0:
            return SpectralValue.constant(2), SpectralValue.constant(0)
        if self.exact == 2:
            raise ValueError("the eigenvalue 2 is dropped, never lifted")
        upper = SpectralValue(
            self.base_value, self.transform_path + UPPER, child_upper(self.cached_value)
        )
        lower = SpectralValue(
            self.base_value, self.transform_path + LOWER, child_lower(self.cached_value)
        )
        return upper, lower

    def refold(self) -> float:
        """Recompute the value by folding the path over the base (validation aid)."""
        x = self.base_value
        for label in self.transform_path:
            x = child_upper(x) if label == UPPER else child_lower(x)
        return x


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset of the normalized Laplacian at one subdivision level.

    entries are (value, multiplicity) pairs sorted by value; multiplicities
    are exact integers.  zero_mult, one_mult and two_mult count the exactly
    tracked constants.  Instances are immutable and safe to share.
    """

    level: int
    entries: tuple[tuple[SpectralValue, int], ...]
    zero_mult: int
    one_mult: int
    two_mult: int

    @classmethod
    def build(cls, level: int, pairs: Iterable[tuple[SpectralValue, int]]) -> Spectrum:
        ordered = tuple(
            sorted(pairs, key=lambda entry: (entry[0].cached_value, entry[0].transform_path))
        )
        zero = sum(m for v, m in ordered if v.exact == 0)
        one = sum(m for v, m in ordered if v.exact == 1)
        two = sum(m for v, m in ordered if v.exact == 2)
        return cls(level, ordered, zero, one, two)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def trace(self) -> float:
        return math.fsum(v.cached_value * m for v, m in self.entries)

    def reciprocal_sum(self) -> float:
        """Sum of multiplicity/value over all nonzero eigenvalues."""
        return math.fsum(m / v.cached_value for v, m in self.entries if v.exact != 0)

    def flat_values(self) -> list[float]:
        """Every eigenvalue repeated by multiplicity, ascending."""
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v.cached_value] * m)
        return out

    def to_records(self, digits: int = 12) -> list[dict]:
        """JSON-ready records sorted by value; exact constants stay integers."""
        records = []
        for v, m in self.entries:
            value = v.exact if v.exact is not None else significant(v.cached_value, digits)
            records.append(
                {
                    "value": value,
                    "multiplicity": m,
                    "path": v.transform_path,
                    "base": significant(v.base_value, digits),
                }
            )
        return records

    def to_json(self, digits: int = 12) -> str:
        return json.dumps(self.to_records(digits))


def significant(value: float, digits: int = 12) -> float:
    """Round a float to the given number of significant digits."""
    return float(f"{value:.{digits}g}")


def _cluster(values: Sequence[float], tol: float) -> list[tuple[float, int]]:
    """Group sorted values into (mean, count) clusters split at gaps above tol."""
    groups: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            chunk = values[start:i]
            groups.append((math.fsum(chunk) / len(chunk), len(chunk)))
            start = i
    return groups


def base_spectrum(g: Graph, oracle_cap: int = DEFAULT_ORACLE_CAP) -> Spectrum:
    """Level-0 spectrum from the dense eigensolver, clustered into multiplicities.

    Eigenvalues within 1e-8 of each other collapse into one entry; the
    constant 0 (and 2, for a bipartite graph) is snapped to its exact form.
    """
    if g.vertex_count > oracle_cap:
        raise ResourceLimitError(
            f"base graph has {g.vertex_count} vertices, above the dense cap {oracle_cap}"
        )
    meta = analyze(g)
    result = jacobi_eigenvalues(normalized_laplacian(g), order_cap=oracle_cap)
    pairs: list[tuple[SpectralValue, int]] = []
    for mean, mult in _cluster(result.eigenvalues, CLUSTER_TOL):
        if abs(mean) <= CLUSTER_TOL:
            value = SpectralValue.constant(0)
        elif meta.is_bipartite and abs(mean - 2.0) <= CLUSTER_TOL:
            value = SpectralValue.constant(2)
        else:
            value = SpectralValue.from_base(mean)
        pairs.append((value, mult))
    spectrum = Spectrum.build(0, pairs)
    if spectrum.zero_mult != 1:
        raise SpectrumStructureError(
            f"eigenvalue 0 has multiplicity {spectrum.zero_mult}; "
            "a connected graph has exactly one"
        )
    expected_two = 1 if meta.is_bipartite else 0
    if spectrum.two_mult != expected_two:
        raise SpectrumStructureError(
            f"eigenvalue 2 has multiplicity {spectrum.two_mult}, expected {expected_two} "
            f"(bipartite: {meta.is_bipartite})"
        )
    return spectrum


def exceptional_multiplicity(meta: GraphMeta, n: int) -> int:
    """Multiplicity of the eigenvalue 1 inserted at subdivision level n >= 1.

    r+1 for every level above 1; at level 1 it is r-1 when the seed graph
    contains an odd cycle, r+1 otherwise (r = circuit rank of the seed).
    """
    if n < 1:
        raise ValueError("the inserted multiplicity is defined for levels n >= 1")
    r = meta.circuit_rank
    mult = r - 1 if (n == 1 and meta.has_odd_cycle) else r + 1
    if mult < 0:
        raise NegativeMultiplicityError(
            f"multiplicity {mult} from circuit rank {r} at level {n}"
        )
    return mult


def step(prev: Spectrum, meta: GraphMeta) -> Spectrum:
    """The spectrum one subdivision level above prev.

    meta describes the level-0 seed graph the recursion started from (its
    circuit rank is shared by every level).  Drops one exact 2 if present,
    lifts everything else through both branches, and inserts the exact 1s.
    """
    level = prev.level + 1
    pairs: list[tuple[SpectralValue, int]] = []
    dropped = False
    for value, mult in prev.entries:
        if value.exact == 2 and not dropped:
            dropped = True
            mult -= 1
            if mult == 0:
                continue
        upper, lower = value.children()
        pairs.append((upper, mult))
        pairs.append((lower, mult))
    inserted = exceptional_multiplicity(meta, level)
    if inserted:
        pairs.append((SpectralValue.constant(1), inserted))
    return Spectrum.build(level, pairs)


def spectrum_at(
    g: Graph,
    n: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    entry_cap: int = DEFAULT_VERTEX_CAP,
) -> Spectrum:
    """Spectrum of the n-th subdivision of g, by n exact steps from level 0.

    Runs in time proportional to the number of distinct eigenvalues, so it
    reaches levels far beyond what dense diagonalization could touch; the
    total multiplicity N + (2^n - 1)E must stay within entry_cap.
    """
    if n < 0:
        raise ValueError("subdivision level must be nonnegative")
    projected = g.vertex_count + (2**n - 1) * g.edge_count
    if projected > entry_cap:
        raise ResourceLimitError(
            f"level {n} spectrum would hold {projected} eigenvalues, above the cap {entry_cap}"
        )
    meta = analyze(g)
    spectrum = base_spectrum(g, oracle_cap)
    for _ in range(n):
        spectrum = step(spectrum, meta)
    return spectrum


@dataclass(frozen=True)
class SpectrumMatchReport:
    """Result of pairing an analytic spectrum against numeric eigenvalues."""

    total: int
    max_deviation: float
    tolerance: float
    ok: bool
    clusters: tuple[tuple[float, int, float], ...]  # (value, multiplicity, worst deviation)


def compare(analytic: Spectrum, numeric: EigenResult, tol: float) -> SpectrumMatchReport:
    """Pair sorted analytic and numeric eigenvalues and report deviations.

    Raises CountMismatchError when the two sides disagree on the total count;
    otherwise reports the worst absolute deviation overall and per cluster.
    """
    values = analytic.flat_values()
    others = numeric.eigenvalues
    if len(values) != len(others):
        raise CountMismatchError(
            f"analytic spectrum has {len(values)} eigenvalues, numeric has {len(others)}"
        )
    clusters: list[tuple[float, int, float]] = []
    position = 0
    worst = 0.0
    for value, mult in analytic.entries:
        local = max(
            abs(value.cached_value - others[position + i]) for i in range(mult)
        )
        clusters.append((value.cached_value, mult, local))
        worst = max(worst, local)
        position += mult
    return SpectrumMatchReport(len(values), worst, tol, worst <= tol, tuple(clusters))
