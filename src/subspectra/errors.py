"""Exception hierarchy for graph validation, numerics, and cross-checking."""

from __future__ import annotations


class SubspectraError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SubspectraError):
    """Edge-list input that cannot be read."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SelfLoopError(ParseError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(ParseError):
    """The same undirected edge appears more than once."""


class DisconnectedError(SubspectraError):
    """The graph is not connected."""


class ResourceLimitError(SubspectraError):
    """A requested computation would exceed a configured size cap."""


class ConvergenceError(SubspectraError):
    """The eigensolver failed to reach its tolerance."""


class SingularMatrixError(SubspectraError):
    """A linear solve hit a pivot too small to trust."""


class NegativeMultiplicityError(SubspectraError):
    """An eigenvalue multiplicity came out negative."""


class SpectrumStructureError(SubspectraError):
    """A computed spectrum lacks a feature every connected graph's spectrum has."""


class CountMismatchError(SubspectraError):
    """Two spectra that should have the same size do not."""


class OverflowPolicyError(SubspectraError):
    """A log-space product left the representable floating-point range."""


class CrossCheckError(SubspectraError):
    """Independent computation routes disagree beyond tolerance."""

    def __init__(self, quantity: str, level: int, detail: str):
        self.quantity = quantity
        self.level = level
        super().__init__(f"{quantity} disagrees at level {level}: {detail}")
