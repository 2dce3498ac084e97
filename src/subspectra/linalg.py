"""Self-contained dense linear algebra for the numerical baselines.

A cyclic-by-row Jacobi eigensolver, Gaussian elimination with partial
pivoting, and an exact integer determinant (fraction-free elimination).
These back the brute-force routes that the analytic machinery is checked
against, so none of them delegates to a library solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, ResourceLimitError, SingularMatrixError
from .graph import Graph

DEFAULT_ORACLE_CAP = 2000
JACOBI_MAX_SWEEPS = 100
JACOBI_TOL_PER_ORDER = 1e-12
PIVOT_FLOOR = 1e-13


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; symmetry is exact by construction."""

    order: int
    entries: np.ndarray

    @classmethod
    def from_dense(cls, array) -> SymMatrix:
        """Build from a square array, mirroring the upper triangle onto the lower."""
        a = np.array(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        sym = np.triu(a) + np.triu(a, 1).T
        sym.setflags(write=False)
        return cls(a.shape[0], sym)


@dataclass(frozen=True)
class EigenResult:
    """Sorted eigenvalues plus convergence metadata from the Jacobi sweeps."""

    eigenvalues: tuple[float, ...]
    sweeps_used: int
    offdiag_norm: float


def normalized_laplacian(g: Graph) -> SymMatrix:
    """The matrix with 1 on the diagonal and -1/sqrt(d_i d_j) on each edge."""
    a = np.eye(g.vertex_count)
    u, v = g.edges.T
    w = -1.0 / np.sqrt((g.degrees[u] * g.degrees[v]).astype(float))
    a[u, v] = w
    a[v, u] = w
    return SymMatrix.from_dense(a)


def _offdiag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def jacobi_eigenvalues(
    m: SymMatrix,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    order_cap: int = DEFAULT_ORACLE_CAP,
) -> EigenResult:
    """All eigenvalues of a symmetric matrix by cyclic-by-row Jacobi rotations.

    Sweeps every off-diagonal pair in row order until the off-diagonal
    Frobenius norm drops below 1e-12 times the order; raises ConvergenceError
    if that has not happened after max_sweeps sweeps.
    """
    n = m.order
    if n > order_cap:
        raise ResourceLimitError(f"matrix order {n} above the dense cap {order_cap}")
    if n == 1:
        return EigenResult((float(m.entries[0, 0]),), 0, 0.0)
    a = m.entries.copy()
    threshold = JACOBI_TOL_PER_ORDER * n
    # if every off-diagonal entry is below threshold/n the norm is below threshold
    skip = threshold / n
    sweeps = 0
    norm = _offdiag_norm(a)
    while norm > threshold:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"off-diagonal norm {norm:.3e} above {threshold:.3e} after {sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                a[p, :] = new_p
                a[:, p] = new_p
                a[q, :] = new_q
                a[:, q] = new_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
        norm = _offdiag_norm(a)
    eigenvalues = tuple(sorted(float(x) for x in np.diag(a)))
    return EigenResult(eigenvalues, sweeps, norm)


def solve_linear(m: SymMatrix, rhs: Sequence[float] | np.ndarray) -> np.ndarray:
    """Solve m x = rhs by Gaussian elimination with partial pivoting.

    rhs is a vector of length n or a matrix of shape (n, k); a matrix is
    carried through one elimination and every column is solved at once, so
    solve_linear(m, np.eye(n)) is the inverse in O(n^3) time.  The result
    has the shape of rhs.  Raises SingularMatrixError when the largest
    available pivot falls below 1e-13 in magnitude.
    """
    n = m.order
    a = m.entries.astype(float)  # entries are read-only, astype copies
    b = np.array(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side must have {n} rows, got shape {b.shape}")
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = a[pivot_row, k]
        if abs(pivot) < PIVOT_FLOOR:
            raise SingularMatrixError(
                f"pivot magnitude {abs(pivot):.3e} below {PIVOT_FLOOR:.0e} at column {k}"
            )
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        factors = a[k + 1 :, k] / pivot
        a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
        b[k + 1 :] -= np.multiply.outer(factors, b[k])
    for k in range(n - 1, -1, -1):  # back-substitute in place: b[k + 1 :] already holds x
        b[k] = (b[k] - a[k, k + 1 :] @ b[k + 1 :]) / a[k, k]
    return b


def bareiss_determinant(matrix: Iterable[Iterable[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every division in the update is exact, so intermediates stay integers and
    the result is exact regardless of magnitude.  Entries must be integral
    (Python ints or integer numpy scalars).
    """
    rows = [[index(x) for x in row] for row in matrix]
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    sign = 1
    previous = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            row_i = rows[i]
            row_k = rows[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // previous
            row_i[k] = 0
        previous = pivot
    return sign * rows[n - 1][n - 1]
