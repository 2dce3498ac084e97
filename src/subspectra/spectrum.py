"""Exact spectrum bookkeeping for the normalized Laplacian under subdivision.

One subdivision step transforms the eigenvalue multiset as follows: a single
copy of the eigenvalue 2 is dropped (it exists exactly when the current graph
is bipartite), every remaining eigenvalue x is replaced by the two preimages
of the quadratic map x -> 4x - 2x^2, and the eigenvalue 1 is inserted with a
multiplicity fixed by the circuit rank.  Because the step is exact, each
eigenvalue is represented symbolically as a numeric base value plus the chain
of branch choices applied to it, with the constants 0, 1 and 2 tracked
exactly.  The multiset is one structured numpy array with a row per distinct
eigenvalue, so a step is a handful of vectorized operations.  Float error
enters through the level-0 eigensolve and a few roundings per level; both
branches are evaluated without cancellation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CountMismatchError,
    NegativeMultiplicityError,
    ResourceLimitError,
    SpectrumStructureError,
)
from .graph import DEFAULT_VERTEX_CAP, Graph, GraphMeta, analyze
from .linalg import DEFAULT_ORACLE_CAP, EigenResult, jacobi_eigenvalues, normalized_laplacian

CLUSTER_TOL = 1e-8
MAX_LEVEL = 63  # a path of branch choices must fit in one uint64

# One row per distinct eigenvalue.  path holds the branch choices as the low
# path_len bits, oldest in the most significant of them (0 = upper branch into
# [1, 2], 1 = lower branch into [0, 1]); exact is 0, 1 or 2 when the value is
# that constant (with an empty path), else -1.
ENTRY = np.dtype([("value", "f8"), ("multiplicity", "i8"), ("base", "f8"),
                  ("path", "u8"), ("path_len", "u1"), ("exact", "i1")])


def parent_value(x: float) -> float:
    """Forward map: the eigenvalue one level down that x is a preimage of."""
    return 4.0 * x - 2.0 * x * x


def child_upper(x):
    """Preimage of x under :func:`parent_value` lying in [1, 2] (x may be an array)."""
    return 1.0 + np.sqrt(1.0 - 0.5 * x)


def child_lower(x):
    """Preimage of x under :func:`parent_value` lying in [0, 1] (x may be an array).

    Evaluated as (x/2) / (1 + sqrt(1 - x/2)), which equals 1 - sqrt(1 - x/2)
    without its cancellation: small eigenvalues keep full relative accuracy,
    and those dominate the reciprocal sums behind Kemeny and Kirchhoff.
    """
    return 0.5 * x / child_upper(x)


def _left_aligned(path: np.ndarray, path_len: np.ndarray) -> np.ndarray:
    """Path bits shifted so the oldest branch is bit 63: compares like the path strings."""
    return path << ((64 - path_len.astype(np.uint64)) % 64)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalue multiset of the normalized Laplacian at one subdivision level.

    entries is a read-only ENTRY array sorted by value, ties by path string;
    multiplicities are exact integers.  Instances are safe to share.
    """

    level: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.level == other.level and np.array_equal(self.entries, other.entries)

    @classmethod
    def from_pairs(cls, level: int, pairs: Iterable[tuple[float, int]]) -> Spectrum:
        """Spectrum of (value, multiplicity) pairs, ascending by value, with empty paths.

        An int value is that exact constant (0, 1 or 2); a float is numeric.
        """
        rows = [(v, m, v, 0, 0, v if isinstance(v, int) else -1) for v, m in pairs]
        if any(row[-1] not in (-1, 0, 1, 2) for row in rows):
            raise ValueError("exact constants are 0, 1 and 2")
        entries = np.array(rows, dtype=ENTRY)
        if np.any(np.diff(entries["value"]) < 0):
            raise ValueError("pairs must be ascending by value")
        return cls(level, entries)

    def _exact_mult(self, k: int) -> int:
        return int(self.entries["multiplicity"][self.entries["exact"] == k].sum())

    zero_mult = property(lambda self: self._exact_mult(0))
    one_mult = property(lambda self: self._exact_mult(1))
    two_mult = property(lambda self: self._exact_mult(2))

    @property
    def total_multiplicity(self) -> int:
        return int(self.entries["multiplicity"].sum())

    @property
    def values(self) -> np.ndarray:
        """The distinct eigenvalues, ascending (read-only view)."""
        return self.entries["value"]

    def trace(self) -> float:
        return math.fsum((self.values * self.entries["multiplicity"]).tolist())

    def _nonzero(self) -> tuple[list[float], list[int]]:
        rest = self.entries[self.entries["exact"] != 0]
        return rest["value"].tolist(), rest["multiplicity"].tolist()

    def reciprocal_sum(self) -> float:
        """Sum of multiplicity/value over all nonzero eigenvalues."""
        return math.fsum(m / v for v, m in zip(*self._nonzero()))

    def log_sum(self) -> float:
        """Sum of multiplicity*log(value) over all nonzero eigenvalues."""
        return math.fsum(m * math.log(v) for v, m in zip(*self._nonzero()))

    def flat_values(self) -> np.ndarray:
        """Every eigenvalue repeated by multiplicity, ascending."""
        return np.repeat(self.values, self.entries["multiplicity"])

    def paths(self) -> list[str]:
        """Each entry's branch labels, "1" upper and "2" lower, oldest first."""
        lengths = self.entries["path_len"]
        width = max(int(lengths.max(initial=0)), 1)
        left = _left_aligned(self.entries["path"], lengths)
        chars = np.zeros((len(lengths), width), np.uint8)
        for j in range(width):
            bit = (left >> np.uint64(63 - j)) & np.uint64(1)
            chars[:, j] = np.where(lengths > j, bit + ord("1"), 0)
        return chars.view(f"S{width}")[:, 0].astype(str).tolist()

    def to_records(self, digits: int = 12) -> list[dict]:
        """JSON-ready records sorted by value; exact constants stay integers."""
        entries = self.entries
        bases = entries["base"].tolist()
        rounded = {b: significant(b, digits) for b in set(bases)}
        values = [k if k >= 0 else significant(v, digits)
                  for v, k in zip(entries["value"].tolist(), entries["exact"].tolist())]
        mults = entries["multiplicity"].tolist()
        return [{"value": v, "multiplicity": m, "path": p, "base": rounded[b]}
                for v, m, p, b in zip(values, mults, self.paths(), bases)]

    def to_json(self, digits: int = 12) -> str:
        return json.dumps(self.to_records(digits))


def significant(value: float, digits: int = 12) -> float:
    """Round a float to the given number of significant digits."""
    return float(f"{value:.{digits}g}")


def _cluster(values: Sequence[float], tol: float) -> list[tuple[float, int]]:
    """Group sorted values into (mean, count) clusters split at gaps above tol."""
    values = np.asarray(values, dtype=float)
    chunks = np.split(values, np.flatnonzero(np.diff(values) > tol) + 1)
    return [(math.fsum(chunk) / len(chunk), len(chunk)) for chunk in chunks]


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
    pairs: list[tuple[float, int]] = []
    for mean, mult in _cluster(result.eigenvalues, CLUSTER_TOL):
        if abs(mean) <= CLUSTER_TOL:
            mean = 0
        elif meta.is_bipartite and abs(mean - 2.0) <= CLUSTER_TOL:
            mean = 2
        pairs.append((mean, mult))
    spectrum = Spectrum.from_pairs(0, pairs)
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
    lifts everything else through both branches (the exact 0 into the exact
    2 and 0), and inserts the exact 1s.
    """
    level = prev.level + 1
    if prev.two_mult > 1:
        raise ValueError("one eigenvalue 2 is dropped; no other copy can be lifted")
    exact = prev.entries["exact"]
    zeros = prev.entries[exact == 0]
    twos = zeros.copy()
    twos["value"] = twos["base"] = 2.0
    twos["exact"] = 2
    upper = prev.entries[(exact == -1) | (exact == 1)]
    lower = upper.copy()
    upper["value"] = child_upper(lower["value"])
    lower["value"] = 0.5 * lower["value"] / upper["value"]
    upper["path"] <<= np.uint64(1)
    lower["path"] = upper["path"] | np.uint64(1)
    for child in (upper, lower):
        child["path_len"] += 1
        child["exact"] = -1
    inserted = exceptional_multiplicity(meta, level)
    ones = Spectrum.from_pairs(level, [(1, inserted)] if inserted else []).entries
    # The branch maps are monotone, so with the upper children reversed the blocks
    # are already in value order.  Rounding can merge two values; equal values are
    # ordered by path as the strings compare, then by parent order.
    children = np.concatenate([zeros, lower, ones, upper[::-1], twos])
    values = children["value"]
    if np.any(values[1:] <= values[:-1]):
        children = np.concatenate([zeros, lower, ones, upper, twos])
        path_key = _left_aligned(children["path"], children["path_len"])
        children = children[np.lexsort((children["path_len"], path_key, children["value"]))]
    return Spectrum(level, children)


def spectrum_at(
    g: Graph,
    n: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    entry_cap: int = DEFAULT_VERTEX_CAP,
) -> Spectrum:
    """Spectrum of the n-th subdivision of g, by n exact steps from level 0.

    Runs in time proportional to the number of distinct eigenvalues, so it
    reaches levels far beyond what dense diagonalization could touch; the
    total multiplicity N + (2^n - 1)E must stay within entry_cap, and n
    within MAX_LEVEL.
    """
    if n < 0:
        raise ValueError("subdivision level must be nonnegative")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} is above the deepest representable {MAX_LEVEL}")
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
    total = analytic.total_multiplicity
    others = np.asarray(numeric.eigenvalues, dtype=float)
    if total != len(others):
        raise CountMismatchError(
            f"analytic spectrum has {total} eigenvalues, numeric has {len(others)}"
        )
    mult = analytic.entries["multiplicity"]
    deviation = np.abs(analytic.flat_values() - others)
    local = np.maximum.reduceat(deviation, np.cumsum(mult) - mult)
    worst = float(local.max())
    clusters = tuple(zip(analytic.values.tolist(), mult.tolist(), local.tolist()))
    return SpectrumMatchReport(total, worst, tol, worst <= tol, clusters)
