"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in pytest's captured output.
"""

from __future__ import annotations

import time

from conftest import complete_graph, random_connected_graph, small_corpus
from subspectra.graph import analyze, iterate_subdivide
from subspectra.invariants import (
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
from subspectra.linalg import jacobi_eigenvalues, normalized_laplacian
from subspectra.spectrum import base_spectrum, compare, spectrum_at


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_k4_kirchhoff_three_routes():
    """Degree-Kirchhoff index of the K4 family: 27, 276, 2328 by all routes."""
    started = time.perf_counter()
    k4 = complete_graph(4)
    expected = [27.0, 276.0, 2328.0]  # frozen from the resistance oracle
    kf0 = kirchhoff_spectral(base_spectrum(k4), 6)
    failures = []
    for n in range(3):
        routes = {
            "spectral": kirchhoff_spectral(spectrum_at(k4, n), 6 * 2**n),
            "closed_form": kirchhoff_closed_form(kf0, 3, 6, n),
            "oracle": kirchhoff_oracle(iterate_subdivide(k4, n)),
        }
        for route, value in routes.items():
            if _rel(value, expected[n]) > 1e-8:
                failures.append(f"n={n} {route}={value!r}")
    elapsed = time.perf_counter() - started
    _criterion(
        "criterion 1: K4 Kirchhoff index 27/276/2328 by three routes",
        not failures and elapsed < 5.0,
        failures[0] if failures else f"{elapsed:.2f}s",
    )


def test_criterion_2_k4_spanning_trees():
    """Spanning trees of the K4 family: 16 * 8^n, exact and spectral."""
    started = time.perf_counter()
    k4 = complete_graph(4)
    base_count = spanning_trees_oracle(k4)
    failures = []
    for n in range(5):
        expected = 16 * 8**n
        closed = spanning_trees_closed_form(base_count, 3, n)
        if closed != expected:
            failures.append(f"n={n} closed={closed}")
        lifted = iterate_subdivide(k4, n)
        if n <= 2 and spanning_trees_oracle(lifted) != expected:
            failures.append(f"n={n} matrix-tree oracle")
        spectral = spanning_trees_spectral(spectrum_at(k4, n), lifted.degrees)
        if round(spectral) != expected:
            failures.append(f"n={n} spectral={spectral!r}")
    elapsed = time.perf_counter() - started
    _criterion(
        "criterion 2: K4 spanning trees 16*8^n for n=0..4",
        not failures and elapsed < 10.0,
        failures[0] if failures else f"{elapsed:.2f}s",
    )


def test_criterion_3_exceptional_multiplicity():
    """Multiplicity of the eigenvalue 1: r-1 at level 1 for odd-cycle seeds,
    r+1 for bipartite seeds, r+1 at levels 2 and 3 for all seeds, counted in
    the dense eigensolver output of the explicit subdivisions."""
    seeds = [random_connected_graph(2000 + i, 5 + i % 3, 2 + i % 3, bipartite=False)
             for i in range(5)]
    seeds += [random_connected_graph(2100 + i, 5 + i % 3, 2 + i % 3, bipartite=True)
              for i in range(5)]
    failures = []
    for index, g in enumerate(seeds):
        meta = analyze(g)
        r = meta.circuit_rank
        lifted = g
        for n in (1, 2, 3):
            lifted = iterate_subdivide(lifted, 1)
            assert lifted.vertex_count <= 2000
            expected = (r - 1 if meta.has_odd_cycle else r + 1) if n == 1 else r + 1
            values = jacobi_eigenvalues(normalized_laplacian(lifted)).eigenvalues
            counted = sum(1 for v in values if abs(v - 1.0) <= 1e-7)
            if counted != expected:
                failures.append(f"seed {index} n={n}: counted {counted}, expected {expected}")
    _criterion(
        "criterion 3: multiplicity of eigenvalue 1 on 10 random seeds, n=1..3",
        not failures,
        failures[0] if failures else "30 multiplicities verified",
    )


def test_criterion_4_spectrum_oracle_equivalence():
    """Analytic spectra match dense eigenvalues within 1e-7 on 20 random seeds."""
    started = time.perf_counter()
    worst = 0.0
    failures = []
    for i in range(20):
        g = random_connected_graph(3000 + i, 4 + i % 5, i % 6)
        for n in (1, 2):
            report = compare(
                spectrum_at(g, n),
                jacobi_eigenvalues(normalized_laplacian(iterate_subdivide(g, n))),
                1e-7,
            )
            worst = max(worst, report.max_deviation)
            if not report.ok:
                failures.append(f"seed {3000 + i} n={n}: deviation {report.max_deviation:.3e}")
    elapsed = time.perf_counter() - started
    _criterion(
        "criterion 4: analytic vs dense spectra on 20 seeds, n in {1,2}",
        not failures and elapsed < 60.0,
        failures[0] if failures else f"worst deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_closed_form_identities():
    """Kemeny closed form within 1e-9 for n=0..4 and the 2*E*K identity at 1e-10."""
    failures = []
    for name, g in small_corpus():
        meta = analyze(g)
        k0 = kemeny_spectral(base_spectrum(g))
        for n in range(5):
            spec = spectrum_at(g, n)
            e_n = 2**n * g.edge_count
            kemeny = kemeny_spectral(spec)
            closed = kemeny_closed_form(k0, meta.circuit_rank, n)
            if _rel(kemeny, closed) > 1e-9:
                failures.append(f"{name} n={n}: kemeny {kemeny!r} vs closed {closed!r}")
            kirchhoff = kirchhoff_spectral(spec, e_n)
            if abs(kirchhoff - 2.0 * e_n * kemeny) > 1e-10 * abs(kirchhoff):
                failures.append(f"{name} n={n}: identity violated")
    _criterion(
        "criterion 5: Kemeny closed form (1e-9) and 2*E*K identity (1e-10)",
        not failures,
        failures[0] if failures else f"{len(small_corpus())} seeds, n=0..4",
    )


def test_criterion_6_structural_invariants_at_scale():
    """K4 at level 15 (196606 eigenvalues) via the analytic route only."""
    started = time.perf_counter()
    spec = spectrum_at(complete_graph(4), 15)
    elapsed = time.perf_counter() - started
    expected_total = 4 + (2**15 - 1) * 6
    checks = {
        "count": spec.total_multiplicity == expected_total,
        "trace": _rel(spec.trace(), expected_total) <= 1e-8,
        "one zero": spec.zero_mult == 1,
        "one two": spec.two_mult == 1,
        "runtime": elapsed < 5.0,
    }
    values = spec.values.tolist()
    mults = spec.entries["multiplicity"].tolist()
    symmetric = all(
        m == mw and abs(v + w - 2.0) <= 1e-10
        for v, m, w, mw in zip(values, mults, reversed(values), reversed(mults))
    )
    checks["symmetry"] = symmetric
    bad = [key for key, ok in checks.items() if not ok]
    _criterion(
        "criterion 6: structural invariants of the level-15 K4 spectrum",
        not bad,
        bad[0] if bad else f"{expected_total} eigenvalues in {elapsed:.2f}s",
    )


def test_criterion_7_monte_carlo_kemeny():
    """Monte Carlo Kemeny estimate for s(K4): within 3 sigma of 11.5, reproducible."""
    graph = iterate_subdivide(complete_graph(4), 1)
    first = kemeny_montecarlo(graph, steps=100_000, seed=42)
    second = kemeny_montecarlo(graph, steps=100_000, seed=42)
    within = abs(first.mean - 11.5) <= 3.0 * first.std_error
    identical = (first.mean, first.std_error) == (second.mean, second.std_error)
    _criterion(
        "criterion 7: Monte Carlo Kemeny estimate for s(K4)",
        within and identical,
        f"estimate {first.mean:.4f} +- {first.std_error:.4f}, deterministic={identical}",
    )
