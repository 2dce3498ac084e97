#!/usr/bin/env python3
"""End-to-end benchmark of the subspectra CLI, with a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the
workload's inputs from the seed, then calls ``subspectra.cli.main(argv)``
in this process in a closed loop with one caller (the next command starts
when the previous one returns), capturing stdout, until the commands have
taken ``--seconds`` in total.  Every command's output is checked after its
timing stops.  BLAS is pinned to one thread.  The workload's calibration,
fixed work shaped like its hot code (calibration.py), is timed between
commands, and each command's wall time is also given in reference seconds:
divided by the calibration time around it, so that the drift of a shared
machine's speed cancels.  Set-up times are rescaled the same way, against a
fresh interpreter that imports numpy.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced commands and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibration
from tracing import Tracer, command_metrics, write_spans
from workloads import WORKLOADS, Check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# (ratio, numerator, denominator, what the base counts); later changes cite these
RATIOS = [
    ("graph.from_edges.external_frac", "graph.from_edges.external", "graph.from_edges.calls",
     "validations of outside input / all validations"),
    ("linalg.jacobi_eigenvalues.unique_frac", "linalg.jacobi_eigenvalues.unique",
     "linalg.jacobi_eigenvalues.calls", "distinct matrices / eigensolves"),
    ("invariants.kemeny_montecarlo.us_per_trial", "invariants.kemeny_montecarlo.s",
     "invariants.kemeny_montecarlo.trials", "Monte Carlo seconds x 1e6 / trials"),
]


def measure_setup(workload, seed: int, workdir: Path) -> tuple[float, float, dict]:
    """Time a fresh interpreter importing subspectra plus writing the inputs.

    Returns wall seconds, the same in reference seconds, and the inputs.
    """
    before = calibration.SETUP.timed()
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import subspectra.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    inputs = workload.write_inputs(seed, workdir)
    elapsed = time.perf_counter() - start
    return elapsed, calibration.SETUP.rescale(elapsed, before, calibration.SETUP.timed()), inputs


def run_command(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """One CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        code, failure = -1, exc
    elapsed = time.perf_counter() - start
    if failure is not None:
        err.write("".join(traceback.format_exception(failure)))
    return elapsed, code, out.getvalue(), err.getvalue()


def judge(workload, ref, code: int, stdout: str, stderr: str) -> list[Check]:
    checks = [Check("exit_code", code == 0, f"exit {code}: {stderr.strip()[-300:]}".rstrip(": "))]
    if stdout:
        try:
            checks += workload.check(stdout, ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            checks.append(Check("output_readable", False, f"{type(exc).__name__}: {exc}"))
    return checks


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    k = len(samples)
    if k <= TAIL_BEYOND:
        return None
    return 100.0 * (k - TAIL_BEYOND) / k, sorted(samples)[k - TAIL_BEYOND - 1]


def line_counts() -> dict[str, int]:
    counts = {}
    for path in sorted((SRC / "subspectra").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        counts[f"{name}.loc"] = len(path.read_text().splitlines())
    counts["src.loc"] = sum(counts.values())
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subspectra" / "__init__.py").is_file():
        print(f"error: no subspectra source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_wall, setup_ref, inputs = measure_setup(workload, args.seed, workdir)
        setup_walls, setup_refs = [setup_wall], [setup_ref]
        sys.path.insert(0, str(SRC))
        import subspectra.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported subspectra from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        ref = workload.reference(inputs)
        cmd_argv = workload.argv(inputs)
        tracer = Tracer()
        plain: list[float] = []
        plain_ref: list[float] = []
        speed = workload.calibration.timed()
        traced: list[float] = []
        per_command: list[dict] = []
        traced_spans = []
        check_log: dict[str, list[Check]] = {}
        attempted = failed = 0
        while sum(plain) + sum(traced) < args.seconds or not plain or (args.trace and not traced):
            if args.trace and len(traced) < len(plain):
                with tracer.installed():
                    elapsed, code, stdout, stderr = run_command(cli, cmd_argv)
                spans = tracer.take()
                traced.append(elapsed)
                traced_spans.append(spans)
                metrics = command_metrics(spans, elapsed)
                metrics["cli.stdout_bytes"] = len(stdout.encode())
                per_command.append(metrics)
            else:
                elapsed, code, stdout, stderr = run_command(cli, cmd_argv)
                before, speed = speed, workload.calibration.timed()
                plain.append(elapsed)
                plain_ref.append(workload.calibration.rescale(elapsed, before, speed))
            checks = judge(workload, ref, code, stdout, stderr)
            del stdout
            for check in checks:
                check_log.setdefault(check.name, []).append(check)
            attempted += 1
            failed += not all(check.ok for check in checks)
            gc.collect()
            if len(setup_walls) < SETUP_REPEATS:
                # spread the repetitions over the run, so one slow moment of
                # a shared machine does not set the median
                setup_wall, setup_ref, _ = measure_setup(workload, args.seed, workdir)
                setup_walls.append(setup_wall)
                setup_refs.append(setup_ref)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  why:  {next(w['why'] for w in spec['workloads'] if w['name'] == workload.name)}")
    print(f"  argv: subspectra {' '.join(cmd_argv)}".replace(f"{workdir}/", ""))
    print(f"  input: {inputs['vertices']} vertices, {inputs['edges']} edges")
    print(f"  setup_s      {statistics.median(setup_refs):.4f} s   (median of {len(setup_refs)} "
          f"set-ups in reference seconds; wall median {statistics.median(setup_walls):.4f} s)")
    print(f"  cmd_s        {statistics.median(plain):.4f} s   (median of {len(plain)} commands, "
          f"min {min(plain):.4f}, max {max(plain):.4f})")
    print(f"  samples      {' '.join(f'{x:.4f}' for x in plain)}")
    print(f"  cmd_ref_s    {statistics.median(plain_ref):.4f} s   (median of {len(plain_ref)} "
          f"commands in reference seconds, min {min(plain_ref):.4f}, max {max(plain_ref):.4f})")
    tail_value = tail(plain)
    print("  cmd_s.tail   " + (f"p{tail_value[0]:.0f} {tail_value[1]:.4f} s" if tail_value
                             else f"n/a (needs more than {TAIL_BEYOND} samples, have {len(plain)})"))
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_rate    {failed}/{attempted} = {failed / attempted:.3f}")
    for name, results in check_log.items():
        passed = sum(c.ok for c in results)
        shown = next((c for c in results if not c.ok), results[-1])
        print(f"  check {name:30s} {passed}/{len(results)} ok   {shown.detail}")

    if args.trace:
        layer = {key: statistics.median(m[key] for m in per_command) for key in per_command[0]}
        layer.update(line_counts())
        layer["trace.cmd_s"] = statistics.median(traced)
        layer["trace.overhead_s"] = layer["trace.cmd_s"] - statistics.median(plain)
        if tracer.absent:
            print(f"  absent (not in this source tree): {', '.join(tracer.absent)}")
        print(f"  traced commands: {len(traced)}; per-layer values are medians over them")
        for key, value in sorted(layer.items()):
            print(f"    {key:48s} {value:.6g}")
        for name, numerator, denominator, meaning in RATIOS:
            print(f"  ratio {name} = {layer[name]:.6g}   base: {meaning}, "
                  f"{layer[numerator]:.6g} / {layer[denominator]:.6g}")
        print(f"  count linalg.solve_linear.flops_computed = "
              f"{layer['linalg.solve_linear.flops_computed']:.6g}   base: sum of 2/3 n^3 over "
              f"{layer['linalg.solve_linear.calls']:.0f} calls, computed from orders, not measured")
        write_spans(WORK / f"spans-{workload.name}.jsonl", traced_spans)
        wanted = spec["per_layer"]
    else:
        layer = {
            "cmd_s": statistics.median(plain),
            "cmd_ref_s": statistics.median(plain_ref),
            "setup_s": statistics.median(setup_refs),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
