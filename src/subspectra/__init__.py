"""Normalized Laplacian spectra of iterated graph subdivisions.

Subdividing every edge of a simple connected graph transforms the spectrum of
its normalized Laplacian by an exact rule, so the full eigenvalue multiset of
the n-th subdivision follows from the seed graph alone.  This package tracks
that multiset symbolically, evaluates the multiplicative degree-Kirchhoff
index, Kemeny's constant and the spanning-tree count from it, and checks
every value against closed forms and independent numerical oracles.
"""

from .errors import (
    ConvergenceError,
    CountMismatchError,
    CrossCheckError,
    DisconnectedError,
    DuplicateEdgeError,
    NegativeMultiplicityError,
    OverflowPolicyError,
    ParseError,
    ResourceLimitError,
    SelfLoopError,
    SingularMatrixError,
    SpectrumStructureError,
    SubspectraError,
)
from .graph import (
    DEFAULT_VERTEX_CAP,
    Graph,
    GraphMeta,
    analyze,
    iterate_subdivide,
    parse_edge_list,
    serialize_edge_list,
    subdivide,
)
from .invariants import (
    InvariantReport,
    MonteCarloEstimate,
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
from .linalg import (
    DEFAULT_ORACLE_CAP,
    EigenResult,
    SymMatrix,
    bareiss_determinant,
    jacobi_eigenvalues,
    normalized_laplacian,
    solve_linear,
)
from .spectrum import (
    Spectrum,
    SpectrumMatchReport,
    base_spectrum,
    child_lower,
    child_upper,
    compare,
    exceptional_multiplicity,
    parent_value,
    spectrum_at,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CountMismatchError",
    "CrossCheckError",
    "DisconnectedError",
    "DuplicateEdgeError",
    "NegativeMultiplicityError",
    "OverflowPolicyError",
    "ParseError",
    "ResourceLimitError",
    "SelfLoopError",
    "SingularMatrixError",
    "SpectrumStructureError",
    "SubspectraError",
    "DEFAULT_VERTEX_CAP",
    "DEFAULT_ORACLE_CAP",
    "Graph",
    "GraphMeta",
    "analyze",
    "iterate_subdivide",
    "parse_edge_list",
    "serialize_edge_list",
    "subdivide",
    "InvariantReport",
    "MonteCarloEstimate",
    "Route",
    "full_report",
    "kemeny_closed_form",
    "kemeny_montecarlo",
    "kemeny_spectral",
    "kirchhoff_closed_form",
    "kirchhoff_oracle",
    "kirchhoff_spectral",
    "spanning_trees_closed_form",
    "spanning_trees_oracle",
    "spanning_trees_spectral",
    "EigenResult",
    "SymMatrix",
    "bareiss_determinant",
    "jacobi_eigenvalues",
    "normalized_laplacian",
    "solve_linear",
    "Spectrum",
    "SpectrumMatchReport",
    "base_spectrum",
    "child_lower",
    "child_upper",
    "compare",
    "exceptional_multiplicity",
    "parent_value",
    "spectrum_at",
    "step",
]
