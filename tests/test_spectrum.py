"""The exact spectrum recursion, checked against closed forms and the dense solver."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
)
from subspectra import spectrum as spectrum_module
from subspectra.errors import (
    CountMismatchError,
    NegativeMultiplicityError,
    ResourceLimitError,
    SpectrumStructureError,
    SubspectraError,
)
from subspectra.graph import Graph, GraphMeta, analyze, iterate_subdivide
from subspectra.linalg import SymMatrix, jacobi_eigenvalues, normalized_laplacian
from subspectra.spectrum import (
    Spectrum,
    base_spectrum,
    child_lower,
    child_upper,
    compare,
    exceptional_multiplicity,
    parent_value,
    spectrum_at,
    step,
)


def dense_eigenvalues(g):
    return jacobi_eigenvalues(normalized_laplacian(g))


def pairs(spec, field="value"):
    """(field, multiplicity) per entry, in entry order."""
    return list(zip(spec.entries[field].tolist(), spec.entries["multiplicity"].tolist()))


def as_multiset(spec, digits=9):
    return sorted((round(v, digits), m) for v, m in pairs(spec))


def fold(base, path):
    """Apply the branch maps named by path to base, oldest first."""
    x = base
    for label in path:
        x = child_upper(x) if label == "1" else child_lower(x)
    return x


def lineage(spec):
    """Map (base, path) -> value; the pair names each entry's ancestry uniquely."""
    entries = spec.entries
    return dict(zip(zip(entries["base"].tolist(), spec.paths()), entries["value"].tolist()))


# a seed with no cycle: exactly one 1 is inserted at every level
TREE_META = GraphMeta(circuit_rank=0, has_odd_cycle=False, is_bipartite=True)


class TestBranchMaps:
    def test_fixed_points_of_the_constants(self):
        assert child_upper(0.0) == 2.0
        assert child_lower(0.0) == 0.0
        assert child_upper(2.0) == 1.0
        assert child_lower(2.0) == 1.0

    @given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_branches_invert_the_forward_map(self, x):
        assert parent_value(child_upper(x)) == pytest.approx(x, abs=1e-10)
        assert parent_value(child_lower(x)) == pytest.approx(x, abs=1e-10)

    @given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_branch_ranges(self, x):
        assert 1.0 <= child_upper(x) <= 2.0
        assert 0.0 <= child_lower(x) <= 1.0


class TestSpectralValue:
    """One eigenvalue is one row of Spectrum.entries."""

    def test_constants(self):
        two = Spectrum.from_pairs(0, [(2, 1)])
        row = two.entries[0]
        assert (row["exact"], row["value"], two.paths()[0]) == (2, 2.0, "")

    def test_invalid_constant(self):
        with pytest.raises(ValueError):
            Spectrum.from_pairs(0, [(3, 1)])

    def test_children_of_exact_zero_are_constants(self):
        spec = step(Spectrum.from_pairs(0, [(0, 1)]), TREE_META)
        assert pairs(spec, "exact") == [(0, 1), (1, 1), (2, 1)]
        assert spec.entries["base"].tolist() == [0.0, 1.0, 2.0]
        assert spec.paths() == ["", "", ""]

    def test_exact_two_cannot_be_lifted(self):
        # one copy of 2 is dropped without children; a second cannot be lifted
        spec = step(Spectrum.from_pairs(0, [(0, 1), (0.5, 1), (2, 1)]), TREE_META)
        assert spec.two_mult == 1 and spec.total_multiplicity == 5
        with pytest.raises(ValueError):
            step(Spectrum.from_pairs(0, [(0, 1), (2, 2)]), TREE_META)

    def test_path_grows_and_cache_stays_consistent(self):
        spec = Spectrum.from_pairs(0, [(4 / 3, 1)])
        for _ in range(6):
            parents = lineage(spec)
            spec = step(spec, TREE_META)
            children = lineage(spec)
            for (base, path), value in parents.items():
                assert children[(base, path + "1")] == child_upper(value)
                assert children[(base, path + "2")] == child_lower(value)
            for (base, path), value in children.items():
                assert abs(fold(base, path) - value) <= 1e-12


class TestBaseSpectrum:
    def test_k2(self):
        spec = base_spectrum(path_graph(2))
        assert pairs(spec, "exact") == [(0, 1), (2, 1)]

    def test_k4(self):
        spec = base_spectrum(complete_graph(4))
        assert as_multiset(spec) == [(0.0, 1), (round(4 / 3, 9), 3)]
        assert spec.entries["exact"][1] == -1

    def test_c4(self):
        # circulant closed form: eigenvalues 0, 1, 1, 2
        spec = base_spectrum(cycle_graph(4))
        assert as_multiset(spec) == [(0.0, 1), (1.0, 2), (2.0, 1)]
        assert spec.zero_mult == 1
        assert spec.two_mult == 1

    def test_nonbipartite_has_no_exact_two(self):
        assert base_spectrum(complete_graph(4)).two_mult == 0

    def test_disconnected_raw_graph_is_a_typed_error(self):
        # two disjoint triangles through the unvalidated constructor:
        # the eigenvalue 0 comes out twice
        edges = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
        g = Graph(6, edges, (2,) * 6)
        with pytest.raises(SpectrumStructureError, match="multiplicity 2"):
            base_spectrum(g)
        assert issubclass(SpectrumStructureError, SubspectraError)

    def test_oracle_cap(self):
        with pytest.raises(ResourceLimitError):
            base_spectrum(complete_graph(6), oracle_cap=5)


class TestExceptionalMultiplicity:
    def test_k4_level_one(self):
        assert exceptional_multiplicity(analyze(complete_graph(4)), 1) == 2

    def test_k4_higher_levels(self):
        meta = analyze(complete_graph(4))
        assert exceptional_multiplicity(meta, 2) == 4
        assert exceptional_multiplicity(meta, 3) == 4

    def test_tree_level_one(self):
        assert exceptional_multiplicity(analyze(path_graph(4)), 1) == 1

    def test_bipartite_cycle(self):
        assert exceptional_multiplicity(analyze(cycle_graph(4)), 1) == 2

    def test_triangle_inserts_nothing_at_level_one(self):
        assert exceptional_multiplicity(analyze(complete_graph(3)), 1) == 0

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            exceptional_multiplicity(analyze(complete_graph(4)), 0)

    def test_negative_multiplicity_guard(self):
        # graph-theoretically impossible metadata, kept as a defensive check
        fake = GraphMeta(circuit_rank=0, has_odd_cycle=True, is_bipartite=False)
        with pytest.raises(NegativeMultiplicityError):
            exceptional_multiplicity(fake, 1)


class TestStep:
    def test_k2_gives_p3_exactly(self):
        spec = step(base_spectrum(path_graph(2)), analyze(path_graph(2)))
        assert pairs(spec, "exact") == [(0, 1), (1, 1), (2, 1)]

    def test_c4_matches_c8_closed_form(self):
        spec = step(base_spectrum(cycle_graph(4)), analyze(cycle_graph(4)))
        expected = sorted(1.0 - math.cos(2.0 * math.pi * k / 8) for k in range(8))
        assert spec.flat_values() == pytest.approx(expected, abs=1e-9)

    def test_k4_frozen_values(self):
        spec = step(base_spectrum(complete_graph(4)), analyze(complete_graph(4)))
        root = math.sqrt(1.0 / 3.0)
        expected = [
            (0.0, 1),
            (round(1.0 - root, 9), 3),
            (1.0, 2),
            (round(1.0 + root, 9), 3),
            (2.0, 1),
        ]
        assert as_multiset(spec) == expected

    def test_exactly_one_two_is_dropped_and_one_created(self):
        spec = base_spectrum(cycle_graph(4))
        for _ in range(3):
            spec = step(spec, analyze(cycle_graph(4)))
            assert spec.two_mult == 1
            assert spec.zero_mult == 1


class TestSpectrumAt:
    def test_level_zero_is_base(self):
        k4 = complete_graph(4)
        assert spectrum_at(k4, 0) == base_spectrum(k4)

    def test_k2_level_two_is_p5(self):
        spec = spectrum_at(path_graph(2), 2)
        half = math.sqrt(0.5)
        expected = sorted([0.0, 1.0 - half, 1.0, 1.0 + half, 2.0])
        assert spec.flat_values() == pytest.approx(expected, abs=1e-12)
        oracle = dense_eigenvalues(iterate_subdivide(path_graph(2), 2))
        assert compare(spec, oracle, 1e-7).ok

    def test_k4_level_two_against_dense(self):
        spec = spectrum_at(complete_graph(4), 2)
        assert spec.total_multiplicity == 22
        oracle = dense_eigenvalues(iterate_subdivide(complete_graph(4), 2))
        report = compare(spec, oracle, 1e-7)
        assert report.ok

    def test_entry_cap(self):
        with pytest.raises(ResourceLimitError):
            spectrum_at(complete_graph(4), 10, entry_cap=100)

    def test_negative_level(self):
        with pytest.raises(ValueError):
            spectrum_at(complete_graph(4), -1)

    def test_level_beyond_the_path_bits_is_refused_up_front(self, monkeypatch):
        # a path of 64 branch choices does not fit the uint64 path field
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("base_spectrum ran before the level guard")

        monkeypatch.setattr(spectrum_module, "base_spectrum", no_eigensolve)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="level 64"):
                spectrum_at(path_graph(2), 64, entry_cap=10**30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_k4_level_18_structure(self):
        # 1,572,862 eigenvalues in 524,289 entries; no timing gate
        spec = spectrum_at(complete_graph(4), 18)
        expected = 4 + (2**18 - 1) * 6
        assert spec.total_multiplicity == expected
        assert spec.trace() == pytest.approx(expected, rel=1e-8)
        assert (spec.zero_mult, spec.two_mult) == (1, 1)
        mults = spec.entries["multiplicity"]
        assert np.array_equal(mults, mults[::-1])
        assert np.max(np.abs(spec.values + spec.values[::-1] - 2.0)) <= 1e-10


SEEDS = [
    ("k4", complete_graph(4)),
    ("c4", cycle_graph(4)),
    ("c5", cycle_graph(5)),
    ("p4", path_graph(4)),
    ("rand_bip", random_connected_graph(21, 6, 2, bipartite=True)),
    ("rand_odd", random_connected_graph(22, 6, 2, bipartite=False)),
]


@pytest.mark.parametrize("name,g", SEEDS, ids=[name for name, _ in SEEDS])
class TestMultisetInvariants:
    def test_count_and_trace(self, name, g):
        for n in range(4):
            spec = spectrum_at(g, n)
            expected = g.vertex_count + (2**n - 1) * g.edge_count
            assert spec.total_multiplicity == expected
            assert spec.trace() == pytest.approx(expected, rel=1e-8)

    def test_range_and_exact_constants(self, name, g):
        for n in range(1, 4):
            spec = spectrum_at(g, n)
            assert all(0.0 <= v <= 2.0 for v in spec.values.tolist())
            assert spec.zero_mult == 1
            assert spec.two_mult == 1

    def test_lifted_values_invert_to_their_source(self, name, g):
        meta = analyze(g)
        prev = spectrum_at(g, 1)
        sources = lineage(prev)
        lifted = step(prev, meta)
        numeric = lifted.entries["exact"] == -1
        assert numeric.sum() == 2 * np.isin(prev.entries["exact"], (-1, 1)).sum()
        for base, path, value in zip(
            lifted.entries["base"][numeric].tolist(),
            np.array(lifted.paths())[numeric].tolist(),
            lifted.values[numeric].tolist(),
        ):
            source = sources[(base, path[:-1])]
            assert parent_value(value) == pytest.approx(source, abs=1e-10)

    def test_symmetry_about_one(self, name, g):
        for n in (1, 3):
            spec = spectrum_at(g, n)
            for (v, m), (w, mw) in zip(pairs(spec), reversed(pairs(spec))):
                assert m == mw
                assert v + w == pytest.approx(2.0, abs=1e-10)

    def test_inserted_multiplicity_stabilizes(self, name, g):
        r = analyze(g).circuit_rank
        for n in (2, 3):
            assert spectrum_at(g, n).one_mult == r + 1


def test_markov_conjugate_eigenvalues_are_one_minus_spectrum():
    # the symmetric random-walk operator is I minus the normalized Laplacian
    for g in (complete_graph(4), cycle_graph(5)):
        lifted = iterate_subdivide(g, 1)
        lap = normalized_laplacian(lifted)
        walk = SymMatrix.from_dense(np.eye(lifted.vertex_count) - lap.entries)
        walk_values = jacobi_eigenvalues(walk).eigenvalues
        expected = sorted(1.0 - v for v in spectrum_at(g, 1).flat_values())
        assert walk_values == pytest.approx(expected, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_vertices=7), st.integers(1, 2))
def test_analytic_matches_dense_on_random_graphs(g, n):
    spec = spectrum_at(g, n)
    oracle = dense_eigenvalues(iterate_subdivide(g, n))
    report = compare(spec, oracle, 1e-7)
    assert report.ok, f"max deviation {report.max_deviation}"


class TestCompare:
    def test_exact_constants_give_tiny_deviation(self):
        spec = spectrum_at(path_graph(2), 1)
        oracle = dense_eigenvalues(iterate_subdivide(path_graph(2), 1))
        report = compare(spec, oracle, 1e-7)
        assert report.ok
        assert report.max_deviation <= 1e-12

    def test_cluster_reporting(self):
        spec = spectrum_at(complete_graph(4), 1)
        oracle = dense_eigenvalues(iterate_subdivide(complete_graph(4), 1))
        report = compare(spec, oracle, 1e-7)
        assert [(round(v, 6), m) for v, m, _ in report.clusters] == [
            (0.0, 1),
            (0.42265, 3),
            (1.0, 2),
            (1.57735, 3),
            (2.0, 1),
        ]
        assert all(dev <= 1e-9 for _, _, dev in report.clusters)

    def test_count_mismatch(self):
        spec = spectrum_at(path_graph(2), 1)
        with pytest.raises(CountMismatchError):
            compare(spec, dense_eigenvalues(path_graph(2)), 1e-7)


class TestSerialization:
    def test_records_sorted_and_exact(self):
        records = spectrum_at(complete_graph(4), 1).to_records()
        values = [rec["value"] for rec in records]
        assert values == sorted(values, key=float)
        exact = [rec["value"] for rec in records if isinstance(rec["value"], int)]
        assert exact == [0, 1, 2]
        assert [rec["multiplicity"] for rec in records] == [1, 3, 2, 3, 1]
        assert [rec["path"] for rec in records] == ["", "2", "", "1", ""]

    def test_json_round_trip(self):
        spec = spectrum_at(cycle_graph(4), 2)
        parsed = json.loads(spec.to_json())
        assert sum(rec["multiplicity"] for rec in parsed) == spec.total_multiplicity

    def test_significant_digit_rounding(self):
        records = spectrum_at(complete_graph(4), 1).to_records(digits=12)
        lower = [rec for rec in records if rec["path"] == "2"][0]
        assert lower["value"] == float(f"{1.0 - math.sqrt(1.0 / 3.0):.12g}")
