"""Dense eigensolver, linear solves, and exact determinants against known values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, path_graph, random_connected_graph
from subspectra.errors import ConvergenceError, ResourceLimitError, SingularMatrixError
from subspectra.graph import analyze
from subspectra.linalg import (
    SymMatrix,
    bareiss_determinant,
    jacobi_eigenvalues,
    normalized_laplacian,
    solve_linear,
)


def _cofactor_determinant(m: list[list[int]]) -> int:
    """Independent exact determinant by Laplace expansion (small matrices only)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _cofactor_determinant(minor)
    return total


class TestNormalizedLaplacian:
    def test_k2(self):
        m = normalized_laplacian(path_graph(2))
        assert np.allclose(m.entries, [[1.0, -1.0], [-1.0, 1.0]])

    def test_k3(self):
        m = normalized_laplacian(complete_graph(3))
        expected = np.full((3, 3), -0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(m.entries, expected)

    def test_p3_edge_weights(self):
        m = normalized_laplacian(path_graph(3))
        w = -1.0 / math.sqrt(2.0)
        assert m.entries[0, 1] == pytest.approx(w)
        assert m.entries[1, 2] == pytest.approx(w)
        assert m.entries[0, 2] == 0.0

    def test_entries_are_read_only(self):
        m = normalized_laplacian(complete_graph(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestJacobiEigenvalues:
    def test_k2(self):
        result = jacobi_eigenvalues(normalized_laplacian(path_graph(2)))
        assert result.eigenvalues == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_k4(self):
        # hand diagonalization: one zero, then 4/3 three times
        result = jacobi_eigenvalues(normalized_laplacian(complete_graph(4)))
        assert result.eigenvalues == pytest.approx((0.0, 4 / 3, 4 / 3, 4 / 3), abs=1e-10)

    def test_c8_circulant_closed_form(self):
        result = jacobi_eigenvalues(normalized_laplacian(cycle_graph(8)))
        expected = sorted(1.0 - math.cos(2.0 * math.pi * k / 8) for k in range(8))
        assert result.eigenvalues == pytest.approx(expected, abs=1e-10)

    def test_diagonal_matrix_needs_no_sweeps(self):
        result = jacobi_eigenvalues(SymMatrix.from_dense(np.diag([3.0, -1.0, 2.0])))
        assert result.sweeps_used == 0
        assert result.eigenvalues == (-1.0, 2.0, 3.0)

    @pytest.mark.parametrize("order", [5, 12, 40])
    def test_matches_numpy_on_random_symmetric(self, order):
        rng = np.random.default_rng(order)
        raw = rng.standard_normal((order, order))
        m = SymMatrix.from_dense((raw + raw.T) / 2.0)
        result = jacobi_eigenvalues(m)
        reference = np.linalg.eigvalsh(m.entries)
        assert np.max(np.abs(np.array(result.eigenvalues) - reference)) < 1e-10

    def test_convergence_metadata(self):
        m = normalized_laplacian(random_connected_graph(3, 8, 5))
        result = jacobi_eigenvalues(m)
        assert result.offdiag_norm <= 1e-12 * m.order
        assert 0 < result.sweeps_used <= 100

    def test_order_cap(self):
        with pytest.raises(ResourceLimitError):
            jacobi_eigenvalues(normalized_laplacian(complete_graph(4)), order_cap=3)

    def test_max_sweeps_exhausted(self):
        m = normalized_laplacian(complete_graph(5))
        with pytest.raises(ConvergenceError):
            jacobi_eigenvalues(m, max_sweeps=0)

    @pytest.mark.parametrize(
        "g",
        [complete_graph(4), cycle_graph(5), cycle_graph(6), random_connected_graph(7, 8, 6)],
    )
    def test_laplacian_spectrum_invariants(self, g):
        result = jacobi_eigenvalues(normalized_laplacian(g))
        values = result.eigenvalues
        assert all(-1e-9 <= v <= 2.0 + 1e-9 for v in values)
        assert math.fsum(values) == pytest.approx(g.vertex_count, rel=1e-8)
        assert sum(1 for v in values if v < 1e-8) == 1  # simple zero eigenvalue
        largest_is_two = abs(values[-1] - 2.0) <= 1e-9
        assert largest_is_two == analyze(g).is_bipartite


class TestSolveLinear:
    def test_identity(self):
        m = SymMatrix.from_dense(np.eye(4))
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(solve_linear(m, rhs), rhs)

    def test_grounded_k2(self):
        # single unit resistor: grounded Laplacian is the 1x1 matrix [1]
        m = SymMatrix.from_dense([[1.0]])
        assert solve_linear(m, [1.0]) == pytest.approx([1.0])

    def test_c4_effective_resistance(self):
        # ground vertex 2 of the 4-cycle and push a unit current into vertex 0:
        # the potential at 0 is the 0-2 resistance, two 2-paths in parallel = 1
        reduced = SymMatrix.from_dense([[2.0, -1.0, -1.0], [-1.0, 2.0, 0.0], [-1.0, 0.0, 2.0]])
        x = solve_linear(reduced, [1.0, 0.0, 0.0])
        assert x[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [3, 10, 30])
    def test_residual_on_well_conditioned(self, order):
        rng = np.random.default_rng(order + 100)
        raw = rng.standard_normal((order, order))
        m = SymMatrix.from_dense((raw + raw.T) / 2.0 + order * np.eye(order))
        rhs = rng.standard_normal(order)
        x = solve_linear(m, rhs)
        residual = np.max(np.abs(m.entries @ x - rhs))
        assert residual <= 1e-9 * np.max(np.abs(rhs))

    def test_singular(self):
        m = SymMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(m, [1.0, 0.0])

    def test_wrong_rhs_length(self):
        with pytest.raises(ValueError):
            solve_linear(SymMatrix.from_dense(np.eye(3)), [1.0, 2.0])

    @pytest.mark.parametrize("order,columns", [(1, 3), (6, 1), (12, 12), (30, 7)])
    def test_matrix_rhs_matches_column_solves(self, order, columns):
        rng = np.random.default_rng(1000 * order + columns)
        raw = rng.standard_normal((order, order))
        m = SymMatrix.from_dense((raw + raw.T) / 2.0 + order * np.eye(order))
        rhs = rng.standard_normal((order, columns))
        x = solve_linear(m, rhs)
        assert x.shape == (order, columns)
        by_column = np.column_stack([solve_linear(m, rhs[:, j]) for j in range(columns)])
        assert np.max(np.abs(x - by_column)) <= 1e-13 * np.max(np.abs(by_column))
        residual = np.max(np.abs(m.entries @ x - rhs))
        assert residual <= 1e-9 * np.max(np.abs(rhs))

    def test_identity_rhs_gives_the_inverse(self):
        # grounded Laplacian of the 4-cycle, from test_c4_effective_resistance
        reduced = SymMatrix.from_dense([[2.0, -1.0, -1.0], [-1.0, 2.0, 0.0], [-1.0, 0.0, 2.0]])
        inverse = solve_linear(reduced, np.eye(3))
        assert np.allclose(reduced.entries @ inverse, np.eye(3), atol=1e-14)
        assert inverse[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 1), (3, 2, 1), ()])
    def test_wrong_matrix_rhs_shape(self, shape):
        with pytest.raises(ValueError):
            solve_linear(SymMatrix.from_dense(np.eye(3)), np.ones(shape))

    def test_singular_with_matrix_rhs(self):
        m = SymMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(m, np.eye(2))


class TestBareissDeterminant:
    def test_one_by_one(self):
        assert bareiss_determinant([[2]]) == 2

    def test_k4_matrix_tree(self):
        # reduced combinatorial Laplacian of K4; Cayley gives 4^(4-2) = 16
        reduced = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
        assert bareiss_determinant(reduced) == 16

    def test_c4_matrix_tree(self):
        reduced = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        assert bareiss_determinant(reduced) == 4

    def test_zero_determinant(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_pivot_swap_and_sign(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            bareiss_determinant([[1.5]])

    def test_large_entries_stay_exact(self):
        base = 10**9
        m = [[base + i * j + (i == j) for j in range(4)] for i in range(4)]
        assert bareiss_determinant(m) == _cofactor_determinant(m)

    @settings(max_examples=80)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        assert bareiss_determinant(rows) == _cofactor_determinant(rows)
