"""The object-per-eigenvalue spectrum recursion, kept as a byte-identity oracle.

Each eigenvalue is a frozen object holding its base value, its branch path as
a string and its value.  A level lifts every object through both branches and
then sorts all of them by (value, path string), stable on input order.  The
package replaced this with array operations; the helpers below reproduce the
`spectrum` command's JSON and table output from the objects, so tests can
require the two implementations to print the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from subspectra.graph import Graph, analyze
from subspectra.linalg import jacobi_eigenvalues, normalized_laplacian
from subspectra.spectrum import exceptional_multiplicity

CLUSTER_TOL = 1e-8


def child_upper(x: float) -> float:
    return 1.0 + math.sqrt(1.0 - 0.5 * x)


def child_lower(x: float) -> float:
    return 0.5 * x / (1.0 + math.sqrt(1.0 - 0.5 * x))


@dataclass(frozen=True)
class SpectralValue:
    """One eigenvalue: a base value plus the branch labels applied to it."""

    base_value: float
    transform_path: str
    cached_value: float
    exact: int | None = None

    @classmethod
    def constant(cls, k: int) -> SpectralValue:
        return cls(float(k), "", float(k), k)

    def children(self) -> tuple[SpectralValue, SpectralValue]:
        if self.exact == 0:
            return SpectralValue.constant(2), SpectralValue.constant(0)
        if self.exact == 2:
            raise ValueError("the eigenvalue 2 is dropped, never lifted")
        upper = SpectralValue(
            self.base_value, self.transform_path + "1", child_upper(self.cached_value)
        )
        lower = SpectralValue(
            self.base_value, self.transform_path + "2", child_lower(self.cached_value)
        )
        return upper, lower

    def refold(self) -> float:
        """Recompute the value by folding the path over the base."""
        x = self.base_value
        for label in self.transform_path:
            x = child_upper(x) if label == "1" else child_lower(x)
        return x


Entries = list[tuple[SpectralValue, int]]


def _sorted(pairs: Entries) -> Entries:
    return sorted(pairs, key=lambda entry: (entry[0].cached_value, entry[0].transform_path))


def reference_base(g: Graph) -> Entries:
    values = jacobi_eigenvalues(normalized_laplacian(g)).eigenvalues
    bipartite = analyze(g).is_bipartite
    pairs: Entries = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > CLUSTER_TOL:
            chunk = values[start:i]
            mean = math.fsum(chunk) / len(chunk)
            start = i
            if abs(mean) <= CLUSTER_TOL:
                value = SpectralValue.constant(0)
            elif bipartite and abs(mean - 2.0) <= CLUSTER_TOL:
                value = SpectralValue.constant(2)
            else:
                value = SpectralValue(mean, "", mean)
            pairs.append((value, len(chunk)))
    return _sorted(pairs)


def reference_step(prev: Entries, level: int, meta) -> Entries:
    pairs: Entries = []
    dropped = False
    for value, mult in prev:
        if value.exact == 2 and not dropped:
            dropped = True
            mult -= 1
            if mult == 0:
                continue
        upper, lower = value.children()
        pairs.append((upper, mult))
        pairs.append((lower, mult))
    inserted = exceptional_multiplicity(meta, level)
    if inserted:
        pairs.append((SpectralValue.constant(1), inserted))
    return _sorted(pairs)


def reference_spectrum(g: Graph, n: int) -> Entries:
    meta = analyze(g)
    entries = reference_base(g)
    for level in range(1, n + 1):
        entries = reference_step(entries, level, meta)
    return entries


def _significant(value: float, digits: int = 12) -> float:
    return float(f"{value:.{digits}g}")


def reference_records(entries: Entries) -> list[dict]:
    return [
        {
            "value": v.exact if v.exact is not None else _significant(v.cached_value),
            "multiplicity": m,
            "path": v.transform_path,
            "base": _significant(v.base_value),
        }
        for v, m in entries
    ]


def reference_json(g: Graph, n: int) -> str:
    return json.dumps(reference_records(reference_spectrum(g, n)))


def reference_table(g: Graph, n: int) -> str:
    """The `spectrum --format table` output, trailing newline included."""
    entries = reference_spectrum(g, n)
    records = reference_records(entries)
    headers = ["value", "multiplicity", "path", "base"]
    rows = [
        [
            f"{rec['value']:.12g}" if isinstance(rec["value"], float) else str(rec["value"]),
            str(rec["multiplicity"]),
            rec["path"] or "-",
            f"{rec['base']:.12g}",
        ]
        for rec in records
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    total = sum(m for _, m in entries)
    lines.append(f"# level {n}: {len(records)} distinct values, total multiplicity {total}")
    return "\n".join(lines) + "\n"
