"""Command line front end: spectra, invariants, subdivision, verification.

Exit codes: 0 on success, 1 on validation or input errors, 2 when a
cross-check between independent computation routes fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import CountMismatchError, CrossCheckError, SubspectraError
from .graph import (
    DEFAULT_VERTEX_CAP,
    Graph,
    analyze,
    iterate_subdivide,
    parse_edge_list,
    serialize_edge_list,
    subdivide,
)
from .invariants import (
    InvariantReport,
    Route,
    full_report,
    kemeny_montecarlo,
    kemeny_spectral,
    relative_deviation,
)
from .linalg import DEFAULT_ORACLE_CAP, jacobi_eigenvalues, normalized_laplacian
from .spectrum import base_spectrum, compare, significant, spectrum_at, step

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
VERIFY_SPECTRUM_TOL = 1e-7
MC_SIGMA = 3.0


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    input_path: str
    n: int = 0
    output_format: str = "json"
    seed: int = 42
    vertex_cap: int = DEFAULT_VERTEX_CAP
    mc_steps: int = 100_000
    oracle_cap: int = DEFAULT_ORACLE_CAP
    monte_carlo: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspectra",
        description="Spectra and invariants of iterated graph subdivisions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="edge-list file: one 'u v' pair per line, '#' comments")
    common.add_argument("--n", type=int, default=0, help="subdivision level (default 0)")
    common.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    common.add_argument("--seed", type=int, default=42, help="PRNG seed for Monte Carlo")
    common.add_argument(
        "--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP,
        help="maximum vertex / eigenvalue count (default 10^7)",
    )
    common.add_argument(
        "--mc-steps", type=int, default=100_000,
        help="Monte Carlo trial count (default 10^5, minimum 10^4)",
    )
    common.add_argument(
        "--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
        help="maximum order for dense numeric routes (default 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="print the eigenvalue multiset at level n")
    sub.add_parser("invariants", parents=[common],
                   help="print cross-checked invariants for levels 0..n")
    sub.add_parser("subdivide", parents=[common],
                   help="write the edge list of the n-th subdivision")
    verify = sub.add_parser("verify", parents=[common],
                            help="run oracle cross-checks up to level n")
    verify.add_argument("--mc", action="store_true",
                        help="also run the Monte Carlo Kemeny check (slower)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=args.input,
        n=args.n,
        output_format=args.format,
        seed=args.seed,
        vertex_cap=args.vertex_cap,
        mc_steps=args.mc_steps,
        oracle_cap=args.oracle_cap,
        monte_carlo=getattr(args, "mc", False),
    )


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        text = Path(config.input_path).read_text()
    except OSError as exc:
        print(f"error: cannot read {config.input_path}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        graph = parse_edge_list(text)
        if config.command == "spectrum":
            _cmd_spectrum(graph, config)
        elif config.command == "invariants":
            _cmd_invariants(graph, config)
        elif config.command == "subdivide":
            _cmd_subdivide(graph, config)
        elif config.command == "verify":
            return _cmd_verify(graph, config)
        else:
            print(f"error: unknown command {config.command!r}", file=sys.stderr)
            return EXIT_INVALID
    except CrossCheckError as exc:
        print(f"{config.input_path}: cross-check failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (SubspectraError, ValueError) as exc:
        print(f"{config.input_path}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cmd_spectrum(graph: Graph, config: RunConfig) -> None:
    spec = spectrum_at(graph, config.n, oracle_cap=config.oracle_cap,
                       entry_cap=config.vertex_cap)
    if config.output_format == "json":
        print(spec.to_json())
        return
    records = spec.to_records()
    rows = [[_fmt(rec["value"]) if isinstance(rec["value"], float) else str(rec["value"]),
             str(rec["multiplicity"]), rec["path"] or "-", _fmt(rec["base"])]
            for rec in records]
    _print_table(["value", "multiplicity", "path", "base"], rows)
    print(f"# level {config.n}: {len(records)} distinct values, "
          f"total multiplicity {spec.total_multiplicity}")


def _report_record(report: InvariantReport, reference: InvariantReport) -> dict:
    return {
        "level": report.level,
        "route": report.route.value,
        "vertex_count": report.vertex_count,
        "edge_count": report.edge_count,
        "kirchhoff_mult": significant(report.kirchhoff_mult),
        "kemeny": significant(report.kemeny),
        "spanning_trees": report.spanning_trees,
        "kirchhoff_rel_dev": significant(
            relative_deviation(report.kirchhoff_mult, reference.kirchhoff_mult), 3
        ),
        "kemeny_rel_dev": significant(
            relative_deviation(report.kemeny, reference.kemeny), 3
        ),
        "spanning_trees_match": report.spanning_trees == reference.spanning_trees,
    }


def _cmd_invariants(graph: Graph, config: RunConfig) -> None:
    reports = full_report(graph, config.n, oracle_cap=config.oracle_cap,
                          vertex_cap=config.vertex_cap)
    closed = {rep.level: rep for rep in reports if rep.route is Route.CLOSED_FORM}
    if config.output_format == "json":
        records = [_report_record(rep, closed[rep.level]) for rep in reports]
        print(json.dumps(records))
        return
    levels = sorted(closed)
    header = ["quantity"] + [f"n={n}" for n in levels]
    rows = [
        ["vertices"] + [str(closed[n].vertex_count) for n in levels],
        ["edges"] + [str(closed[n].edge_count) for n in levels],
        ["kirchhoff_mult"] + [_fmt(closed[n].kirchhoff_mult) for n in levels],
        ["kemeny"] + [_fmt(closed[n].kemeny) for n in levels],
        ["spanning_trees"] + [str(closed[n].spanning_trees) for n in levels],
    ]
    _print_table(header, rows)
    routes = sorted({rep.route.value for rep in reports})
    print(f"# routes {', '.join(routes)} agree per level (checked)")


def _cmd_subdivide(graph: Graph, config: RunConfig) -> None:
    result = iterate_subdivide(graph, config.n, vertex_cap=config.vertex_cap)
    sys.stdout.write(serialize_edge_list(result))


def _cmd_verify(graph: Graph, config: RunConfig) -> int:
    checks: list[dict] = []
    meta = analyze(graph)
    base = base_spectrum(graph, config.oracle_cap)
    spectrum = base
    level_graph: Graph | None = graph
    for level in range(config.n + 1):
        if level > 0:
            spectrum = step(spectrum, meta)
            if level_graph is not None:
                next_size = level_graph.vertex_count + level_graph.edge_count
                level_graph = subdivide(level_graph) if next_size <= config.oracle_cap else None
        if level_graph is None:
            continue
        try:
            numeric = jacobi_eigenvalues(normalized_laplacian(level_graph),
                                         order_cap=config.oracle_cap)
            match = compare(spectrum, numeric, VERIFY_SPECTRUM_TOL)
            checks.append({
                "check": "spectrum_vs_dense", "level": level,
                "max_deviation": significant(match.max_deviation, 3), "ok": match.ok,
            })
        except CountMismatchError as exc:
            checks.append({"check": "spectrum_vs_dense", "level": level,
                           "detail": str(exc), "ok": False})

    try:
        full_report(graph, config.n, oracle_cap=config.oracle_cap,
                    vertex_cap=config.vertex_cap)
        checks.append({"check": "invariant_routes", "level": config.n, "ok": True})
    except CrossCheckError as exc:
        checks.append({"check": "invariant_routes", "level": exc.level,
                       "detail": str(exc), "ok": False})

    if config.monte_carlo:
        estimate = kemeny_montecarlo(graph, steps=config.mc_steps, seed=config.seed)
        expected = kemeny_spectral(base)
        gap = abs(estimate.mean - expected)
        ok = gap <= MC_SIGMA * estimate.std_error
        checks.append({
            "check": "kemeny_montecarlo", "level": 0,
            "estimate": significant(estimate.mean), "expected": significant(expected),
            "std_error": significant(estimate.std_error, 3), "ok": ok,
        })

    if config.output_format == "json":
        print(json.dumps(checks))
    else:
        rows = [[c["check"], str(c["level"]), "pass" if c["ok"] else "FAIL",
                 c.get("detail", "")] for c in checks]
        _print_table(["check", "level", "status", "detail"], rows)
    return EXIT_OK if all(c["ok"] for c in checks) else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
