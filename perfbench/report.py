#!/usr/bin/env python3
"""Run every workload of the benchmark and print one summary.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own fresh process (``run.py``), so peak memory is
per workload.  Each run's lines (metrics with units and sample counts, and
every output check) are passed through, followed by a table of the
end-to-end metrics and fail rates.  ``--trace`` adds a traced run per
workload for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make a traced run")
    args = parser.parse_args()

    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
                return 1
            if trace == 0:
                rows.append((workload, json.loads(lines[-1])))
            print()

    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    header = ["workload"] + [f"{n} ({units[n]})" for n in names] + ["fail_rate"]
    table = [[w] + [f"{r['metrics'][n]['value']:.4g}" for n in names]
             + [f"{r['failed']}/{r['attempted']}"] for w, r in rows]
    widths = [max(len(row[i]) for row in [header] + table) for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
