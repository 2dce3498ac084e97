"""Command-line surface: commands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import random

import pytest

from subspectra.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from subspectra.errors import CrossCheckError

K4_TEXT = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C4_TEXT = "0 1\n1 2\n2 3\n3 0\n"
# a fixed 24-vertex, 31-edge graph (a random tree plus 8 extra edges)
G24_TEXT = "".join(
    f"{pair.replace('-', ' ')}\n"
    for pair in (
        "0-1 0-2 0-6 0-8 0-15 0-21 0-23 1-3 2-4 3-4 3-12 3-13 4-5 4-7 4-10 4-18 4-20 "
        "7-9 7-15 7-19 8-11 8-22 10-15 11-14 12-16 12-17 12-21 12-22 15-16 16-21 19-22"
    ).split()
)
G24_VERIFY_MC_JSON = (
    '[{"check": "spectrum_vs_dense", "level": 0, "max_deviation": 5.55e-16, "ok": true}, '
    '{"check": "spectrum_vs_dense", "level": 1, "max_deviation": 2.22e-15, "ok": true}, '
    '{"check": "spectrum_vs_dense", "level": 2, "max_deviation": 4e-15, "ok": true}, '
    '{"check": "invariant_routes", "level": 2, "ok": true}, '
    '{"check": "kemeny_montecarlo", "level": 0, "estimate": 35.6444, '
    '"expected": 34.9225559051, "std_error": 0.531, "ok": true}]\n'
)


def _reference_subdivision(text: str, n: int) -> str:
    """The documented output of `subdivide --n n`, computed from the rules alone.

    Ids that are not already 0..N-1 are compacted in order of first
    appearance; the midpoint of the k-th sorted edge gets id N + k; edges
    are printed as sorted (min, max) pairs.
    """
    pairs = [tuple(int(x) for x in line.split()) for line in text.splitlines()]
    first_seen: dict[int, int] = {}
    for pair in pairs:
        for vertex in pair:
            first_seen.setdefault(vertex, len(first_seen))
    dense = set(first_seen) == set(range(len(first_seen)))
    label = (lambda x: x) if dense else first_seen.__getitem__
    edges = sorted(tuple(sorted((label(u), label(v)))) for u, v in pairs)
    count = len(first_seen)
    for _ in range(n):
        halves = []
        for k, (u, v) in enumerate(edges):
            halves += [(u, count + k), (v, count + k)]
        count += len(edges)
        edges = sorted(halves)
    return "".join(f"{u} {v}\n" for u, v in edges)


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def c4_path(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text(C4_TEXT)
    return str(path)


class TestSpectrumCommand:
    def test_json_output(self, k4_path, capsys):
        assert main(["spectrum", "--n", "1", k4_path]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 5
        assert sum(rec["multiplicity"] for rec in records) == 10
        exact = [rec["value"] for rec in records if isinstance(rec["value"], int)]
        assert exact == [0, 1, 2]

    def test_table_output(self, k4_path, capsys):
        assert main(["spectrum", "--n", "1", "--format", "table", k4_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "value" in out and "multiplicity" in out
        assert "total multiplicity 10" in out

    def test_twelve_significant_digits(self, k4_path, capsys):
        main(["spectrum", "--n", "1", k4_path])
        out = capsys.readouterr().out
        assert "0.42264973081" in out


class TestInvariantsCommand:
    def test_json_records(self, k4_path, capsys):
        assert main(["invariants", "--n", "2", k4_path]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 9
        closed = [r for r in records if r["route"] == "CLOSED_FORM"]
        assert [r["kirchhoff_mult"] for r in closed] == [27.0, 276.0, 2328.0]
        assert [r["spanning_trees"] for r in closed] == [16, 128, 1024]
        assert all(r["spanning_trees_match"] for r in records)
        assert all(r["kirchhoff_rel_dev"] <= 1e-8 for r in records)

    def test_table_rows(self, k4_path, capsys):
        assert main(["invariants", "--n", "2", "--format", "table", k4_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kirchhoff_mult  27    276   2328" in out
        assert "spanning_trees  16    128   1024" in out

    def test_deterministic_output(self, k4_path, capsys):
        main(["invariants", "--n", "2", "--seed", "42", k4_path])
        first = capsys.readouterr().out
        main(["invariants", "--n", "2", "--seed", "42", k4_path])
        assert capsys.readouterr().out == first


class TestSubdivideCommand:
    def test_round_trip_composition(self, k4_path, tmp_path, capsys):
        assert main(["subdivide", "--n", "1", k4_path]) == EXIT_OK
        once = capsys.readouterr().out
        intermediate = tmp_path / "sk4.edges"
        intermediate.write_text(once)
        assert main(["subdivide", "--n", "1", str(intermediate)]) == EXIT_OK
        twice = capsys.readouterr().out
        assert main(["subdivide", "--n", "2", k4_path]) == EXIT_OK
        direct = capsys.readouterr().out
        assert twice == direct

    def test_output_reparses(self, c4_path, capsys):
        main(["subdivide", "--n", "1", c4_path])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 8

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_documented_rules(self, n, tmp_path, capsys):
        # sparse ids, shuffled lines, random orientation: a tree plus extras
        rng = random.Random(20)
        ids = rng.sample(range(1000), 12)
        pairs = {(rng.randrange(i), i) for i in range(1, 12)}
        while len(pairs) < 18:
            u, v = sorted(rng.sample(range(12), 2))
            pairs.add((u, v))
        lines = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u]) for u, v in pairs]
        rng.shuffle(lines)
        text = "".join(f"{u} {v}\n" for u, v in lines)
        path = tmp_path / "sparse.edges"
        path.write_text(text)
        assert main(["subdivide", "--n", str(n), str(path)]) == EXIT_OK
        assert capsys.readouterr().out == _reference_subdivision(text, n)


class TestVerifyCommand:
    def test_c4_passes(self, c4_path, capsys):
        assert main(["verify", "--n", "2", c4_path]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)
        assert all(check["ok"] for check in checks)
        spectrum_levels = [c["level"] for c in checks if c["check"] == "spectrum_vs_dense"]
        assert spectrum_levels == [0, 1, 2]

    def test_monte_carlo_check(self, c4_path, capsys):
        code = main(["verify", "--mc", "--mc-steps", "10000", "--seed", "5", c4_path])
        assert code == EXIT_OK
        checks = json.loads(capsys.readouterr().out)
        assert any(check["check"] == "kemeny_montecarlo" for check in checks)

    def test_monte_carlo_json_pinned(self, tmp_path, capsys):
        path = tmp_path / "g24.edges"
        path.write_text(G24_TEXT)
        assert main(["verify", "--mc", "--n", "2", "--mc-steps", "10000", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == G24_VERIFY_MC_JSON

    def test_cross_check_failure_exits_two(self, c4_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise CrossCheckError("kemeny", 1, "forced failure")

        monkeypatch.setattr("subspectra.cli.full_report", broken)
        assert main(["verify", "--n", "1", c4_path]) == EXIT_MISMATCH
        checks = json.loads(capsys.readouterr().out)
        failed = [c for c in checks if not c["ok"]]
        assert failed and failed[0]["check"] == "invariant_routes"


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["spectrum", "/nonexistent/file.edges"]) == EXIT_INVALID
        assert "cannot read" in capsys.readouterr().err

    def test_self_loop_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n1 1\n")
        assert main(["spectrum", str(bad)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "line 2" in err and str(bad) in err

    def test_vertex_cap_violation(self, k4_path, capsys):
        assert main(["subdivide", "--n", "10", "--vertex-cap", "100", k4_path]) == EXIT_INVALID
        assert "cap" in capsys.readouterr().err

    def test_mc_steps_minimum(self, c4_path, capsys):
        code = main(["verify", "--mc", "--mc-steps", "50", c4_path])
        assert code == EXIT_INVALID

    def test_cross_check_error_in_invariants_exits_two(self, k4_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise CrossCheckError("spanning_trees", 0, "forced failure")

        monkeypatch.setattr("subspectra.cli.full_report", broken)
        assert main(["invariants", k4_path]) == EXIT_MISMATCH
        assert "cross-check failure" in capsys.readouterr().err
