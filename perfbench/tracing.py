"""In-memory span tracing of subspectra's layers, installed by patching.

Each traced function is replaced by a wrapper at every module global that
holds it, so callers that did ``from .linalg import solve_linear`` are
traced too, and at the class attribute for methods.  A span records its
name, start, end, parent span and a few counts taken from the call's
arguments or result.  Functions that no longer exist are skipped and
reported as absent.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _matrix_digest(args, kwargs, result) -> dict:
    matrix = getattr(args[0], "entries", args[0]) if args else None
    data = np.ascontiguousarray(np.asarray(matrix, dtype=float))
    return {
        "digest": hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest(),
        "sweeps": getattr(result, "sweeps_used", 0),
    }


def _order(args, kwargs, result) -> dict:
    return {"order": getattr(args[0], "order", None) or len(args[0])}


def _trials(args, kwargs, result) -> dict:
    return {"trials": getattr(result, "trials", 0)}


def _entries(args, kwargs, result) -> dict:
    entries = getattr(result, "entries", None)
    return {"entries": len(entries) if entries is not None else 0}


# (span name, defining module, attribute, recorder of counts from the call)
TARGETS = [
    ("graph.parse_edge_list", "graph", "parse_edge_list", None),
    ("graph.from_edges", "graph", "Graph.from_edges", None),
    ("graph.subdivide", "graph", "subdivide", None),
    ("graph.iterate_subdivide", "graph", "iterate_subdivide", None),
    ("graph.serialize_edge_list", "graph", "serialize_edge_list", None),
    ("graph.analyze", "graph", "analyze", None),
    ("linalg.normalized_laplacian", "linalg", "normalized_laplacian", None),
    ("linalg.jacobi_eigenvalues", "linalg", "jacobi_eigenvalues", _matrix_digest),
    ("linalg.solve_linear", "linalg", "solve_linear", _order),
    ("linalg.bareiss_determinant", "linalg", "bareiss_determinant", None),
    ("spectrum.spectrum_at", "spectrum", "spectrum_at", None),
    ("spectrum.base_spectrum", "spectrum", "base_spectrum", None),
    ("spectrum.step", "spectrum", "step", _entries),
    ("spectrum.compare", "spectrum", "compare", None),
    ("spectrum.to_records", "spectrum", "Spectrum.to_records", None),
    ("invariants.kirchhoff_oracle", "invariants", "kirchhoff_oracle", None),
    ("invariants.spanning_trees_oracle", "invariants", "spanning_trees_oracle", None),
    ("invariants.kemeny_montecarlo", "invariants", "kemeny_montecarlo", _trials),
    ("invariants.full_report", "invariants", "full_report", None),
    ("cli.main", "cli", "main", None),
]

LAYERS = ("graph", "linalg", "spectrum", "invariants", "cli")
PACKAGE = "subspectra"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; one tracer per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, func, recorder):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if recorder is not None:
                try:
                    span.counts = recorder(args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    span.counts = {}  # the call's shape changed; its counts read as 0
            return result

        traced.__wrapped__ = func
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        self.absent = []
        try:
            for name, module_name, attr, recorder in TARGETS:
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    self.absent.append(name)
                elif owner_name:
                    raw = getattr(original, "__func__", original)
                    wrapped = self._wrap(name, raw, recorder)
                    if isinstance(original, (classmethod, staticmethod)):
                        wrapped = type(original)(wrapped)
                    self._patch(owner, method, wrapped)
                else:
                    wrapped = self._wrap(name, original, recorder)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def command_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(spans):
        duration = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + duration
        self_s[span.name] = self_s.get(span.name, 0.0) + duration - child_time[i]
        calls[span.name] = calls.get(span.name, 0) + 1

    out: dict[str, float] = {}
    for name, *_ in TARGETS:
        out[f"{name}.s"] = total.get(name, 0.0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.share"] = layer_self / wall_s if wall_s > 0 else 0.0

    external = sum(1 for s in spans if s.name == "graph.from_edges" and s.parent is not None
                   and spans[s.parent].name == "graph.parse_edge_list")
    out["graph.from_edges.external"] = external
    out["graph.from_edges.external_frac"] = _ratio(external, calls.get("graph.from_edges", 0))

    jacobi = [s.counts for s in spans if s.name == "linalg.jacobi_eigenvalues"]
    unique = len({c.get("digest") for c in jacobi})
    out["linalg.jacobi_eigenvalues.sweeps"] = sum(c.get("sweeps", 0) for c in jacobi)
    out["linalg.jacobi_eigenvalues.unique"] = unique
    out["linalg.jacobi_eigenvalues.unique_frac"] = _ratio(unique, len(jacobi))

    orders = [s.counts.get("order") or 0 for s in spans if s.name == "linalg.solve_linear"]
    out["linalg.solve_linear.flops_computed"] = sum(2.0 / 3.0 * n**3 for n in orders)

    steps = [s.counts.get("entries", 0) for s in spans if s.name == "spectrum.step"]
    out["spectrum.entries"] = max(steps, default=0)

    trials = sum(s.counts.get("trials", 0) for s in spans if s.name == "invariants.kemeny_montecarlo")
    out["invariants.kemeny_montecarlo.trials"] = trials
    out["invariants.kemeny_montecarlo.us_per_trial"] = _ratio(
        1e6 * total.get("invariants.kemeny_montecarlo", 0.0), trials)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def write_spans(path: Path, commands: list[list[Span]]) -> None:
    """Write every traced command's spans as JSON lines, one span a line."""
    with path.open("w") as out:
        for index, spans in enumerate(commands):
            for span_id, span in enumerate(spans):
                out.write(json.dumps({
                    "command": index, "id": span_id, "name": span.name,
                    "start": span.start, "end": span.end, "parent": span.parent,
                    "counts": span.counts,
                }) + "\n")
