"""The benchmark's workloads: seeded inputs, CLI argv and output checks.

Each workload writes its edge-list input from the benchmark seed, names the
CLI command that runs on it, and checks every printed output against a
reference the benchmark computes itself, without calling into subspectra.
The tolerances are the package's documented contract: 1e-8 relative for
float invariants, exact equality for integers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from calibration import Calibration, bareiss, edge_lists, elimination, records, rotations, walks

REL_TOL = 1e-8

K4_EDGES = list(combinations(range(4), 2))


@dataclass(frozen=True)
class Check:
    """Outcome of one output check on one command."""

    name: str
    ok: bool
    detail: str


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _rng(seed: int, workload: str) -> random.Random:
    # a str seed is hashed with sha512, so streams are stable across processes
    return random.Random(f"{seed}:{workload}")


def random_connected_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random recursive spanning tree on 0..n-1 plus `extra` distinct random edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def write_edge_file(path: Path, lines: list[tuple[int, int]]) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in lines))


def read_edge_file(path: Path) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in line.split()) for line in path.read_text().splitlines()]


def normalized_laplacian(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    deg = np.zeros(n)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    lap = np.eye(n)
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1.0 / math.sqrt(deg[u] * deg[v])
    return lap


def write_k4(workdir: Path) -> dict:
    path = workdir / "k4.edges"
    write_edge_file(path, K4_EDGES)
    return {"path": path, "vertices": 4, "edges": 6}


def k4_kemeny(n: int) -> Fraction:
    """Exact Kemeny constant of K4's n-th subdivision: 4^n K0 + (4^n - 1)/3 (r - 1/2).

    K4's nonzero normalized-Laplacian eigenvalues are 4/3 three times, so
    K0 = 9/4, and its circuit rank r is 3.
    """
    return Fraction(4**n) * Fraction(9, 4) + Fraction(4**n - 1, 3) * Fraction(5, 2)


class Workload:
    """One named CLI command on seeded inputs, with its output checks."""

    name: str
    # fixed work shaped like the command's hot code, with its reference seconds
    calibration: Calibration

    def write_inputs(self, seed: int, workdir: Path) -> dict:
        """Write the input files; return the facts argv and checks need."""
        raise NotImplementedError

    def argv(self, inputs: dict) -> list[str]:
        raise NotImplementedError

    def reference(self, inputs: dict):
        """Precompute what checks compare against (outside timed work)."""
        raise NotImplementedError

    def check(self, stdout: str, ref) -> list[Check]:
        raise NotImplementedError


class SpectrumDeep(Workload):
    name = "spectrum_deep"
    calibration = Calibration((records,), 0.05)
    # The deepest level whose Kemeny sum still meets REL_TOL: the program's
    # `child_lower` cancellation (ROADMAP item 1) puts level 17 at 1.7e-7.
    level = 16

    def write_inputs(self, seed, workdir):
        return write_k4(workdir)

    def argv(self, inputs):
        return ["spectrum", "--n", str(self.level), str(inputs["path"])]

    def reference(self, inputs):
        return {"total": 4 + (2**self.level - 1) * 6, "kemeny": k4_kemeny(self.level)}

    def check(self, stdout, ref):
        records = json.loads(stdout)
        total = sum(rec["multiplicity"] for rec in records)
        trace = math.fsum(rec["multiplicity"] * rec["value"] for rec in records)
        kemeny = math.fsum(rec["multiplicity"] / rec["value"] for rec in records if rec["value"] != 0)
        kemeny_dev = float(abs(Fraction(kemeny) - ref["kemeny"]) / ref["kemeny"])
        trace_dev = rel_dev(trace, ref["total"])
        return [
            Check("total_multiplicity", total == ref["total"], f"{total} vs {ref['total']}"),
            Check("trace", trace_dev <= REL_TOL, f"rel dev {trace_dev:.2e}"),
            Check("kemeny_closed_form", kemeny_dev <= REL_TOL,
                  f"rel dev {kemeny_dev:.2e} vs tol {REL_TOL:.0e}"),
        ]


class VerifyMonteCarlo(Workload):
    name = "verify_mc"
    calibration = Calibration((rotations, elimination, walks), 0.08)
    vertices = 24
    # Keeps the level-2 spanning-tree count at 2.3e9, where the program's
    # float log-sum still rounds to the exact integer.  With 12 extra edges
    # random shapes reach about 1e14, and about one in five fails that check
    # (ROADMAP item 1).
    extra_edges = 8
    # One fixed graph shape.  Between random shapes the Kemeny constant, which
    # sets the Monte Carlo cost, has an interquartile range of 10% of its
    # median, so the run seed would move the work, not only the inputs.  The
    # run seed relabels the shape, reorders its lines and seeds the walks.
    shape_seed = 0
    level = 2
    mc_steps = 10_000

    def write_inputs(self, seed, workdir):
        edges = random_connected_edges(_rng(self.shape_seed, f"{self.name}.shape"),
                                       self.vertices, self.extra_edges)
        rng = _rng(seed, self.name)
        label = list(range(self.vertices))
        rng.shuffle(label)
        lines = [(label[u], label[v]) for u, v in edges]
        rng.shuffle(lines)
        path = workdir / "verify.edges"
        write_edge_file(path, lines)
        return {"path": path, "vertices": self.vertices, "edges": len(lines),
                "mc_seed": rng.randrange(2**31)}

    def argv(self, inputs):
        return ["verify", "--mc", "--n", str(self.level), "--mc-steps", str(self.mc_steps),
                "--seed", str(inputs["mc_seed"]), str(inputs["path"])]

    def reference(self, inputs):
        # ids are the dense range 0..N-1, so the CLI keeps them as written
        edges = read_edge_file(inputs["path"])
        eig = np.linalg.eigvalsh(normalized_laplacian(inputs["vertices"], edges))
        return {"kemeny": float(np.sum(1.0 / eig[1:]))}

    def check(self, stdout, ref):
        checks = json.loads(stdout)
        failed = [f"{c['check']}@{c['level']}" for c in checks if not c["ok"]]
        mc = [c for c in checks if c["check"] == "kemeny_montecarlo"]
        dev = rel_dev(mc[0]["expected"], ref["kemeny"]) if mc else math.inf
        return [
            Check("all_checks_ok", bool(checks) and not failed, f"not ok: {failed}"),
            Check("expected_kemeny_vs_eigvalsh", dev <= REL_TOL, f"rel dev {dev:.2e}"),
        ]


class OracleInvariants(Workload):
    name = "oracle_invariants"
    calibration = Calibration((elimination, bareiss), 0.045)
    level = 5
    routes = ("SPECTRAL", "CLOSED_FORM", "ORACLE")

    def write_inputs(self, seed, workdir):
        return write_k4(workdir)

    def argv(self, inputs):
        return ["invariants", "--n", str(self.level), str(inputs["path"])]

    def reference(self, inputs):
        ref = {}
        for n in range(self.level + 1):
            edges = 6 * 2**n
            kemeny = k4_kemeny(n)
            # K4 has 16 spanning trees; each subdivision multiplies by 2^r
            ref[n] = {"vertex_count": 4 + (2**n - 1) * 6, "edge_count": edges,
                      "spanning_trees": 16 * 2 ** (3 * n),
                      "kemeny": kemeny, "kirchhoff_mult": 2 * edges * kemeny}
        return ref

    def check(self, stdout, ref):
        records = json.loads(stdout)
        got = {(rec["level"], rec["route"]) for rec in records}
        want = {(n, route) for n in ref for route in self.routes}
        counts_bad = [f"{rec['route']}@{rec['level']}" for rec in records
                      if any(rec[key] != ref[rec["level"]][key]
                             for key in ("vertex_count", "edge_count", "spanning_trees"))]
        dev = max(float(abs(Fraction(rec[key]) - ref[rec["level"]][key]) / ref[rec["level"]][key])
                  for rec in records for key in ("kemeny", "kirchhoff_mult"))
        return [
            Check("every_route_every_level", got == want,
                  f"missing {sorted(want - got)}, extra {sorted(got - want)}"),
            Check("counts_and_trees_exact", not counts_bad, f"wrong: {counts_bad}"),
            Check("kemeny_kirchhoff_closed_form", dev <= REL_TOL,
                  f"max rel dev {dev:.2e} vs tol {REL_TOL:.0e}"),
        ]


class SubdivideLarge(Workload):
    name = "subdivide_large"
    calibration = Calibration((edge_lists,), 0.5)
    vertices = 4000
    edges = 10_000
    level = 5

    def write_inputs(self, seed, workdir):
        rng = _rng(seed, self.name)
        edges = random_connected_edges(rng, self.vertices, self.edges - self.vertices + 1)
        # non-contiguous ids, so the parser compacts them
        ids = rng.sample(range(10**6), self.vertices)
        lines = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u]) for u, v in edges]
        rng.shuffle(lines)
        path = workdir / "large.edges"
        write_edge_file(path, lines)
        return {"path": path, "vertices": self.vertices, "edges": len(lines)}

    def argv(self, inputs):
        return ["subdivide", "--n", str(self.level), str(inputs["path"])]

    def reference(self, inputs):
        """Digest of the expected edge list, by the package's documented rules.

        Ids that are not the dense range 0..N-1 are compacted in order of
        first appearance; each subdivision gives the midpoint of the k-th
        edge, in sorted (min, max) order, the id N+k; output is sorted.
        """
        lines = read_edge_file(inputs["path"])
        first_seen: dict[int, int] = {}
        for line in lines:
            for vertex in line:
                first_seen.setdefault(vertex, len(first_seen))
        count = len(first_seen)
        edges = sorted((min(first_seen[u], first_seen[v]), max(first_seen[u], first_seen[v]))
                       for u, v in lines)
        for _ in range(self.level):
            midpoints = range(count, count + len(edges))
            edges = sorted(pair for (u, v), m in zip(edges, midpoints) for pair in ((u, m), (v, m)))
            count += len(midpoints)
        text = "".join(f"{u} {v}\n" for u, v in edges)
        return {"lines": len(edges), "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def check(self, stdout, ref):
        lines = stdout.count("\n")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return [
            Check("edge_count", lines == ref["lines"], f"{lines} vs {ref['lines']} lines"),
            Check("edge_list_sha256", digest == ref["sha256"], f"{digest[:16]} vs {ref['sha256'][:16]}"),
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SpectrumDeep(), OracleInvariants(), VerifyMonteCarlo(), SubdivideLarge())
}
