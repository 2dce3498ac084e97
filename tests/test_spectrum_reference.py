"""The array recursion prints the same bytes as the object-per-eigenvalue reference."""

from __future__ import annotations

import json

import pytest

from conftest import complete_graph, cycle_graph, path_graph, small_corpus
from spectrum_reference import (
    SpectralValue,
    reference_json,
    reference_records,
    reference_spectrum,
    reference_step,
    reference_table,
)
from subspectra.cli import main
from subspectra.graph import GraphMeta, parse_edge_list, serialize_edge_list
from subspectra.spectrum import Spectrum, spectrum_at, step

CASES = (
    [(name, g, n) for name, g in small_corpus() for n in range(7)]
    + [("c6", cycle_graph(6), n) for n in range(11)]
    + [("p5", path_graph(5), n) for n in range(11)]
    + [("k4", complete_graph(4), 12)]
)


@pytest.mark.parametrize("name,g,n", CASES, ids=[f"{name}-n{n}" for name, _, n in CASES])
def test_cli_output_matches_reference(name, g, n, tmp_path, capsys):
    path = tmp_path / f"{name}.edges"
    path.write_text(serialize_edge_list(g))
    parsed = parse_edge_list(path.read_text())
    expected_json = reference_json(parsed, n)
    assert spectrum_at(parsed, n).to_json() == expected_json

    assert main(["spectrum", "--n", str(n), str(path)]) == 0
    assert capsys.readouterr().out == expected_json + "\n"
    assert main(["spectrum", "--n", str(n), "--format", "table", str(path)]) == 0
    assert capsys.readouterr().out == reference_table(parsed, n)


def test_reference_drops_one_two_on_bipartite_seeds():
    # the cases above only pin the exact-2 drop if the reference performs it
    for g in (cycle_graph(6), path_graph(5)):
        for n in range(4):
            twos = [m for v, m in reference_spectrum(g, n) if v.exact == 2]
            assert twos == [1]


# a seed without cycles: one exact 1 is inserted at every level
TREE_META = GraphMeta(circuit_rank=0, has_odd_cycle=False, is_bipartite=True)


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1), (2.0, 1)],  # a numeric 2 lifts onto the exact 1: ties across path lengths
        [(0, 1), (1e-20, 1), (2e-20, 2)],  # tiny values lift onto 2.0: ties on equal paths
    ],
    ids=["across-lengths", "equal-paths"],
)
def test_value_ties_follow_the_reference_order(pairs):
    # no graph in the corpus produces two equal values, so build the ties by hand
    spec = Spectrum.from_pairs(0, pairs)
    reference = [
        (SpectralValue.constant(v) if isinstance(v, int) else SpectralValue(v, "", v), m)
        for v, m in pairs
    ]
    for level in range(1, 5):
        spec = step(spec, TREE_META)
        reference = reference_step(reference, level, TREE_META)
        assert spec.to_json() == json.dumps(reference_records(reference))
        values = spec.values.tolist()
        assert len(set(values)) < len(values)
