"""Invariant routes: spectral sums, closed forms, and the independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, path_graph, small_corpus
from subspectra.errors import CrossCheckError, OverflowPolicyError, ResourceLimitError
from subspectra.graph import analyze, iterate_subdivide, subdivide
from subspectra.invariants import (
    InvariantReport,
    grounded_laplacian,
    Route,
    full_report,
    kemeny_closed_form,
    kemeny_montecarlo,
    kemeny_spectral,
    kirchhoff_closed_form,
    kirchhoff_oracle,
    kirchhoff_spectral,
    spanning_trees_closed_form,
    spanning_trees_oracle,
    spanning_trees_spectral,
)
from subspectra.linalg import SymMatrix, normalized_laplacian
from subspectra.spectrum import Spectrum, base_spectrum, spectrum_at

CORPUS = small_corpus()
CORPUS_IDS = [name for name, _ in CORPUS]


def _pinv_kirchhoff(g) -> float:
    """Reference oracle: sum over pairs i < j of d_i d_j R_ij, from the pseudoinverse.

    R_ij = P_ii + P_jj - 2 P_ij with P the Moore-Penrose pseudoinverse of
    the combinatorial Laplacian; shares no code with the package's solver.
    """
    n = g.vertex_count
    lap = np.zeros((n, n))
    for u, v in g.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    pinv = np.linalg.pinv(lap)
    diag = np.diag(pinv)
    resistance = diag[:, None] + diag[None, :] - 2.0 * pinv
    degrees = np.array(g.degrees, dtype=float)
    i, j = np.triu_indices(n, 1)
    return float(np.sum(degrees[i] * degrees[j] * resistance[i, j]))


def _loop_kirchhoff_laplacian(g) -> np.ndarray:
    """The resistance oracle's grounded Laplacian as the per-edge loop once built it."""
    n = g.vertex_count
    lap = np.zeros((n - 1, n - 1))
    for u, v in g.edges.tolist():
        for w in (u, v):
            if w != 0:
                lap[w - 1, w - 1] += 1.0
        if u != 0 and v != 0:
            lap[u - 1, v - 1] -= 1.0
            lap[v - 1, u - 1] -= 1.0
    return lap


def _loop_tree_laplacian(g) -> list[list[int]]:
    """The matrix-tree oracle's reduced Laplacian as the per-edge loop once built it."""
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges.tolist():
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return [row[1:] for row in lap[1:]]


def _loop_normalized_laplacian(g) -> np.ndarray:
    """normalized_laplacian's matrix as the per-edge loop once built it."""
    degrees = g.degrees.tolist()
    a = np.eye(g.vertex_count)
    for u, v in g.edges.tolist():
        w = -1.0 / math.sqrt(degrees[u] * degrees[v])
        a[u, v] = w
        a[v, u] = w
    return SymMatrix.from_dense(a).entries


@pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=CORPUS_IDS)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_array_built_matrices_match_edge_loops(g, n):
    lifted = iterate_subdivide(g, n)
    normalized = normalized_laplacian(lifted).entries
    assert normalized.dtype == np.float64
    assert np.array_equal(normalized, _loop_normalized_laplacian(lifted))
    grounded = grounded_laplacian(lifted)
    assert np.array_equal(grounded.astype(float), _loop_kirchhoff_laplacian(lifted))
    assert grounded.tolist() == _loop_tree_laplacian(lifted)


def _k4_kemeny_exact(n: int) -> Fraction:
    """Kemeny constant of s^n(K4): 4^n * 9/4 + (4^n - 1)/3 * (3 - 1/2), exactly."""
    return 4**n * Fraction(9, 4) + Fraction(4**n - 1, 3) * Fraction(5, 2)


class TestKirchhoffSpectral:
    def test_k4(self):
        # resistance oracle: every pair of K4 has resistance 1/2, so the
        # degree-weighted sum is 6 pairs * 9 * 1/2 = 27
        assert kirchhoff_spectral(base_spectrum(complete_graph(4)), 6) == pytest.approx(27.0)

    def test_k2(self):
        assert kirchhoff_spectral(base_spectrum(path_graph(2)), 1) == pytest.approx(1.0)

    def test_k4_level_one(self):
        spec = spectrum_at(complete_graph(4), 1)
        assert kirchhoff_spectral(spec, 12) == pytest.approx(276.0, rel=1e-9)

    def test_requires_single_zero(self):
        broken = Spectrum.from_pairs(0, [(0.5, 2)])
        with pytest.raises(ValueError):
            kirchhoff_spectral(broken, 1)


class TestKirchhoffClosedForm:
    def test_k4_one_level(self):
        assert kirchhoff_closed_form(27.0, 3, 6, 1) == pytest.approx(276.0)

    def test_level_zero_is_identity(self):
        assert kirchhoff_closed_form(27.0, 3, 6, 0) == 27.0

    def test_two_levels_match_double_recursion(self):
        # one-step rule applied twice: 8*(8*27 + 2*5*6) + 4*5*6 = 2328
        assert kirchhoff_closed_form(27.0, 3, 6, 2) == pytest.approx(2328.0)
        step1 = 8 * 27.0 + 2 * 5 * 6
        step2 = 8 * step1 + 4 * 5 * 6
        assert step2 == kirchhoff_closed_form(27.0, 3, 6, 2)

    @settings(max_examples=60)
    @given(
        st.fractions(min_value=0, max_value=100),
        st.integers(0, 6),
        st.integers(1, 30),
        st.integers(1, 6),
    )
    def test_recursion_equals_closed_form_exactly(self, kf0, r, e0, n):
        # fold the one-step rule in exact arithmetic and compare
        value = Fraction(kf0)
        for k in range(1, n + 1):
            value = 8 * value + Fraction(2**k * (2 * r - 1) * e0)
        direct = Fraction(8**n) * Fraction(kf0) + Fraction((8**n - 2**n), 3) * (2 * r - 1) * e0
        assert value == direct


class TestKemeny:
    def test_k4(self):
        assert kemeny_spectral(base_spectrum(complete_graph(4))) == pytest.approx(2.25)

    def test_k2(self):
        assert kemeny_spectral(base_spectrum(path_graph(2))) == pytest.approx(0.5)

    def test_k4_level_one(self):
        assert kemeny_spectral(spectrum_at(complete_graph(4), 1)) == pytest.approx(11.5, rel=1e-9)

    def test_closed_form_k4(self):
        assert kemeny_closed_form(2.25, 3, 1) == pytest.approx(11.5)

    def test_closed_form_identity(self):
        assert kemeny_closed_form(0.77, 5, 0) == 0.77

    def test_spectral_k4_level_16_matches_exact_closed_form(self):
        # the lower branch at small eigenvalues must not lose digits to
        # cancellation; the deviation would then grow with the level
        spectral = kemeny_spectral(spectrum_at(complete_graph(4), 16))
        exact = _k4_kemeny_exact(16)
        assert float(abs(Fraction(spectral) - exact) / exact) <= 1e-11

    def test_closed_form_p5_matches_spectral_sum(self):
        # s^2 of a single edge is the 5-vertex path
        expected = kemeny_spectral(spectrum_at(path_graph(2), 2))
        assert kemeny_closed_form(0.5, 0, 2) == pytest.approx(5.5)
        assert expected == pytest.approx(5.5, rel=1e-9)


class TestSpanningTrees:
    def test_spectral_k4(self):
        k4 = complete_graph(4)
        count = spanning_trees_spectral(base_spectrum(k4), k4.degrees)
        assert round(count) == 16
        assert count == pytest.approx(16.0, rel=1e-9)

    def test_spectral_c4(self):
        c4 = cycle_graph(4)
        assert round(spanning_trees_spectral(base_spectrum(c4), c4.degrees)) == 4

    def test_spectral_subdivided_k4(self):
        lifted = subdivide(complete_graph(4))
        count = spanning_trees_spectral(spectrum_at(complete_graph(4), 1), lifted.degrees)
        assert round(count) == 128

    def test_closed_form_k4_two_levels(self):
        assert spanning_trees_closed_form(16, 3, 2) == 1024
        assert spanning_trees_oracle(iterate_subdivide(complete_graph(4), 2)) == 1024

    def test_closed_form_trees_stay_one(self):
        assert spanning_trees_closed_form(1, 0, 5) == 1

    def test_closed_form_c4_three_levels_is_c32(self):
        assert spanning_trees_closed_form(4, 1, 3) == 32
        assert spanning_trees_oracle(iterate_subdivide(cycle_graph(4), 3)) == 32

    def test_oracle_k4(self):
        assert spanning_trees_oracle(complete_graph(4)) == 16

    def test_overflow_policy(self):
        huge = Spectrum.from_pairs(0, [(0, 1), (1.9, 4000)])
        with pytest.raises(OverflowPolicyError):
            spanning_trees_spectral(huge, [2] * 2000)


class TestKirchhoffOracle:
    def test_k2(self):
        assert kirchhoff_oracle(path_graph(2)) == pytest.approx(1.0)

    def test_k4(self):
        assert kirchhoff_oracle(complete_graph(4)) == pytest.approx(27.0)

    def test_c4(self):
        # adjacent pairs: 1 in series with 3 gives 3/4; opposite pairs: 2 || 2 = 1
        # degree-weighted: 4 * (4 * 3/4) + 2 * (4 * 1) = 20
        assert kirchhoff_oracle(cycle_graph(4)) == pytest.approx(20.0)

    def test_p3(self):
        # pairs (0,1) and (1,2): resistance 1, weight 2; pair (0,2): resistance 2, weight 1
        assert kirchhoff_oracle(path_graph(3)) == pytest.approx(6.0)

    def test_subdivided_k4(self):
        assert kirchhoff_oracle(subdivide(complete_graph(4))) == pytest.approx(276.0, rel=1e-9)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            kirchhoff_oracle(complete_graph(5), oracle_cap=4)


class TestKirchhoffOracleAgainstPseudoinverse:
    @pytest.mark.parametrize("name,g", CORPUS, ids=CORPUS_IDS)
    def test_small_corpus(self, name, g):
        for n in range(3):
            lifted = iterate_subdivide(g, n)
            assert kirchhoff_oracle(lifted) == pytest.approx(_pinv_kirchhoff(lifted), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_subdivided_k4(self, n):
        lifted = iterate_subdivide(complete_graph(4), n)
        oracle = kirchhoff_oracle(lifted)
        assert oracle == pytest.approx(_pinv_kirchhoff(lifted), rel=1e-10)
        exact = 2 * lifted.edge_count * _k4_kemeny_exact(n)
        assert oracle == pytest.approx(float(exact), rel=1e-10)


class TestKemenyMonteCarlo:
    def test_k2_matches_exact_value(self):
        estimate = kemeny_montecarlo(path_graph(2), steps=10_000, seed=7)
        assert abs(estimate.mean - 0.5) <= 3.0 * estimate.std_error

    def test_k4_matches_spectral_value(self):
        estimate = kemeny_montecarlo(complete_graph(4), steps=10_000, seed=11)
        assert abs(estimate.mean - 2.25) <= 3.0 * estimate.std_error

    def test_deterministic_for_fixed_seed(self):
        first = kemeny_montecarlo(path_graph(3), steps=10_000, seed=3)
        second = kemeny_montecarlo(path_graph(3), steps=10_000, seed=3)
        assert (first.mean, first.std_error) == (second.mean, second.std_error)

    def test_seed_changes_the_stream(self):
        a = kemeny_montecarlo(path_graph(3), steps=10_000, seed=1)
        b = kemeny_montecarlo(path_graph(3), steps=10_000, seed=2)
        assert a.mean != b.mean

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            kemeny_montecarlo(path_graph(2), steps=9_999)

    def test_estimate_pinned_on_subdivided_k4(self):
        # recorded from the tuple-backed graph: each vertex's neighbors must
        # stay in ascending order for the same Philox draws to take the same hops
        estimate = kemeny_montecarlo(iterate_subdivide(complete_graph(4), 1), steps=10_000, seed=42)
        assert (estimate.mean, estimate.std_error) == (11.3996, 0.12925711865995013)


class TestInvariantReport:
    def test_identity_violation_rejected(self):
        with pytest.raises(ValueError):
            InvariantReport(0, 4, 6, 27.0, 9.99, 16, Route.SPECTRAL)

    def test_tree_count_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantReport(0, 4, 6, 27.0, 2.25, 0, Route.SPECTRAL)


class TestFullReport:
    def test_k4_values_per_level(self):
        reports = full_report(complete_graph(4), 2)
        assert len(reports) == 9  # three routes at each of three levels
        by_route = {}
        for rep in reports:
            by_route.setdefault(rep.route, []).append(rep)
        for route, reps in by_route.items():
            assert [r.kirchhoff_mult for r in reps] == pytest.approx(
                [27.0, 276.0, 2328.0], rel=1e-8
            )
            assert [r.spanning_trees for r in reps] == [16, 128, 1024]

    def test_k2_kirchhoff_column(self):
        reports = full_report(path_graph(2), 1)
        closed = [r for r in reports if r.route is Route.CLOSED_FORM]
        assert [r.kirchhoff_mult for r in closed] == pytest.approx([1.0, 6.0])

    def test_tree_seed_keeps_one_spanning_tree(self):
        for rep in full_report(path_graph(5), 3):
            assert rep.spanning_trees == 1

    def test_oracle_route_respects_cap(self):
        reports = full_report(complete_graph(4), 3, oracle_cap=25)
        oracle_levels = [r.level for r in reports if r.route is Route.ORACLE]
        assert oracle_levels == [0, 1, 2]  # level 3 has 46 vertices

    def test_cross_check_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            "subspectra.invariants.kemeny_closed_form", lambda k0, r, n: k0 + 1.0
        )
        with pytest.raises(CrossCheckError) as info:
            full_report(complete_graph(4), 1)
        assert info.value.quantity == "kemeny"

    def test_negative_level(self):
        with pytest.raises(ValueError):
            full_report(complete_graph(4), -1)

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            full_report(complete_graph(4), 8, vertex_cap=100)


@pytest.mark.parametrize("name,g", CORPUS, ids=CORPUS_IDS)
class TestRouteAgreement:
    def test_spectral_vs_closed(self, name, g):
        meta = analyze(g)
        base = base_spectrum(g)
        kf0 = kirchhoff_spectral(base, g.edge_count)
        k0 = kemeny_spectral(base)
        for n in range(4):
            spec = spectrum_at(g, n)
            e_n = 2**n * g.edge_count
            kf = kirchhoff_spectral(spec, e_n)
            kem = kemeny_spectral(spec)
            assert kf == pytest.approx(
                kirchhoff_closed_form(kf0, meta.circuit_rank, g.edge_count, n), rel=1e-8
            )
            assert kem == pytest.approx(kemeny_closed_form(k0, meta.circuit_rank, n), rel=1e-8)
            assert kf == pytest.approx(2.0 * e_n * kem, rel=1e-10)

    def test_one_step_recursion(self, name, g):
        meta = analyze(g)
        previous = kirchhoff_spectral(base_spectrum(g), g.edge_count)
        for n in range(1, 4):
            current = kirchhoff_spectral(spectrum_at(g, n), 2**n * g.edge_count)
            recursed = 8.0 * previous + 2**n * (2 * meta.circuit_rank - 1) * g.edge_count
            assert current == pytest.approx(recursed, rel=1e-9)
            previous = current

    def test_trees_match_matrix_tree_oracle(self, name, g):
        r = analyze(g).circuit_rank
        base_count = spanning_trees_oracle(g)
        for n in range(3):
            lifted = iterate_subdivide(g, n)
            exact = spanning_trees_oracle(lifted)
            assert exact == spanning_trees_closed_form(base_count, r, n)
            spectral = spanning_trees_spectral(spectrum_at(g, n), lifted.degrees)
            assert round(spectral) == exact

    def test_tree_ratio_between_levels(self, name, g):
        r = analyze(g).circuit_rank
        counts = [spanning_trees_oracle(iterate_subdivide(g, n)) for n in range(3)]
        assert counts[1] == 2**r * counts[0]
        assert counts[2] == 2**r * counts[1]

    def test_resistance_oracle_agrees(self, name, g):
        for n in range(2):
            lifted = iterate_subdivide(g, n)
            oracle = kirchhoff_oracle(lifted)
            spectral = kirchhoff_spectral(spectrum_at(g, n), lifted.edge_count)
            assert oracle == pytest.approx(spectral, rel=1e-8)
