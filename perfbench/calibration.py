"""Fixed pieces of work that measure how fast the machine runs right now.

The benchmark's reference machine is a shared 2-vCPU host whose speed
drifts by 20-45% over seconds to minutes, with CPU time equal to wall time:
the same code simply runs slower for a while, and not every kind of code
slows by the same factor.  So each workload names a calibration: the parts
below that are shaped like its own hot code, none of which calls into
subspectra, so a faster program reads faster against it.  Timing the
calibration right before and right after each command and dividing the
command's wall time by it cancels the drift.  Multiplying by the
calibration's reference time, its median on the reference machine (2-vCPU
Xeon, Python 3.11, numpy 2.4) in a quiet minute, turns the ratio back into
seconds: reference seconds, what the command would take there at that speed.
Set-up time is rescaled the same way, by `SETUP`.
"""

from __future__ import annotations

import gc
import json
import math
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np


def records() -> int:
    """Many small float records, a keyed sort and JSON encoding (spectrum recursion and output)."""
    values = [(i * 0.6180339887498949) % 1.0 for i in range(12_000)]
    recs = [{"value": 1.0 - math.sqrt(1.0 - v / 2.0), "path": format(i, "b")}
            for i, v in enumerate(values)]
    recs.sort(key=lambda rec: (rec["value"], rec["path"]))
    return len(json.dumps(recs))


def rotations() -> int:
    """Row copies and updates of a small dense matrix (hand-rolled Jacobi rotations)."""
    a = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
    c, s = math.cos(0.3), math.sin(0.3)
    for p in range(63):
        for q in range(p + 1, 64):
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * row_q
            a[q, :] = s * row_p + c * row_q
    return int(abs(a).sum())


def elimination() -> int:
    """Gaussian elimination with partial pivoting at order 150 (the oracles' solves)."""
    total = 0.0
    for shift in range(6):
        m = np.arange(150 * 150, dtype=float).reshape(150, 150) % (7.0 + shift)
        m += 150.0 * np.eye(150)
        for k in range(150):
            pivot_row = k + int(np.argmax(np.abs(m[k:, k])))
            m[[k, pivot_row]] = m[[pivot_row, k]]
            m[k + 1 :, k:] -= np.outer(m[k + 1 :, k] / m[k, k], m[k, k:])
        total += m[-1, -1]
    return int(total)


def bareiss() -> int:
    """Fraction-free integer elimination at order 32 (the matrix-tree determinant)."""
    rows = [[(i * 31 + j * 17) % 11 - 5 + (40 if i == j else 0) for j in range(32)]
            for i in range(32)]
    previous = 1
    for k in range(31):
        for i in range(k + 1, 32):
            lead = rows[i][k]
            for j in range(k + 1, 32):
                rows[i][j] = (rows[i][j] * rows[k][k] - lead * rows[k][j]) // previous
        previous = rows[k][k]
    return rows[-1][-1] % 997


def walks() -> int:
    """A Philox generator per trial and scalar draws (the Monte Carlo walks)."""
    cumulative = np.linspace(0.1, 1.0, 10)
    hops = 0
    for trial in range(1000):
        rng = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, trial]))
        hops += int(np.searchsorted(cumulative, rng.random(), side="right"))
        hops += int(rng.integers(5))
    return hops


def edge_lists() -> int:
    """Validate, sort, index and print an edge list (parsing, subdivision, serialization)."""
    # a working set of tens of megabytes, like the subdivided graphs: with a
    # tenth of it, the calibration tracked the workload half as well
    n = 120_000
    pairs = [((i * 7919) % n, (i * 104_729 + 1) % n) for i in range(300_000)]
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    ordered = sorted(seen)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in ordered:
        neighbors[u].append(v)
        neighbors[v].append(u)
    text = "".join(f"{u} {v}\n" for u, v in ordered)
    return len(text) + sum(len(adj) for adj in neighbors)


def interpreter_start() -> int:
    """Start a fresh interpreter that imports numpy (the set-up's process start and imports)."""
    return subprocess.run([sys.executable, "-c", "import numpy"], check=True).returncode


@dataclass(frozen=True)
class Calibration:
    """A workload's calibration: its parts and their reference seconds."""

    parts: Sequence[Callable[[], int]]
    reference_s: float

    def timed(self) -> float:
        """Wall seconds of one run of every part.

        The cyclic garbage collector is off meanwhile: a collection would
        walk the benchmark's own heap, whose size is not part of the work.
        """
        gc.disable()
        try:
            start = time.perf_counter()
            for part in self.parts:
                part()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def rescale(self, elapsed: float, before: float, after: float) -> float:
        """`elapsed` wall seconds in reference seconds, given `timed()` just before and after."""
        return elapsed * self.reference_s / ((before + after) / 2)


# the set-up's calibration; its reference time is a median like the workloads'
SETUP = Calibration((interpreter_start,), 0.14)
