"""Tests of the benchmark itself: its inputs, its copied settings, its
oracles, its span accounting, and a smoke run of every workload."""

import json

import numpy as np
import pytest

import harness
import oracles
import spans
import workloads
from subspace_lrr import cli, datasets, hypergraph


def test_paper_grid_inputs_are_byte_equal_to_the_package_generators():
    work = workloads.build("paper-grid", 0)
    expected = {
        "two-moons": datasets.two_moons(
            seed=0, **cli.BENCHMARK_CONFIG["two-moons"]["generator"]),
        "three-circles": datasets.three_circles(
            seed=0, **cli.BENCHMARK_CONFIG["three-circles"]["generator"]),
    }
    for name, ds in expected.items():
        inp = work.inputs[name]
        assert inp.data.tobytes() == ds.observations.data.tobytes()
        assert inp.labels.tobytes() == ds.labels.tobytes()


def test_frozen_settings_equal_the_cli_benchmark_config():
    assert workloads.FROZEN_GRID == cli.BENCHMARK_CONFIG
    assert workloads.METHODS == cli.METHODS


def test_oracles_reject_wrong_outputs():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(2, 30))
    z = rng.normal(size=(3, 30))
    obs = hypergraph.ObservationMatrix(data)

    truth = np.repeat([0, 1, 2], 10)
    assert oracles.check_labels(truth[::-1], truth, 3, 1.0) == []
    assert oracles.check_labels(truth, truth, 3, 0.9)
    assert oracles.check_labels(truth[:-1], truth, 3, 1.0)

    graph = hypergraph.epsilon_ball_hyperedges(obs, 0.2, mode="quantile")
    operator = hypergraph.locality_operator_from_hypergraph(graph)
    assert oracles.check_clique_operator(operator, graph, data, z) == []
    scaled = hypergraph.LocalityOperator(2.0 * operator.matrix)
    assert oracles.check_clique_operator(scaled, graph, data, z)

    for kind, build in (("knn-graph", hypergraph.knn_graph_laplacian),
                        ("knn-hypergraph", hypergraph.knn_hypergraph_laplacian)):
        assert oracles.check_knn_operator(build(obs, 4), kind, data, 4, z) == []
        assert oracles.check_knn_operator(build(obs, 3), kind, data, 4, z)

    assert oracles.check_solve(np.zeros((30, 30)), 2, [0.1, 0.1], 30, 5) == []
    assert oracles.check_solve(np.full((30, 30), np.nan), 2, [0.1, 0.1], 30, 5)
    assert oracles.check_solve(np.zeros((30, 30)), 2, [0.1], 30, 5)


def test_self_time_subtracts_the_time_children_cover():
    tracer = spans.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["inner", 1.0, 3.0, 0, 0],
        ["inner", 2.0, 4.0, 0, 0],     # overlaps the first child
        ["leaf", 1.5, 2.5, 1, 0],
    ]
    total, own, calls = tracer.totals()
    assert total["outer"] == 10.0 and own["outer"] == 7.0
    assert total["inner"] == 4.0 and own["inner"] == 3.0
    assert calls["inner"] == 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_declared_metric(workload, trace, capsys):
    code = harness.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    for m in spec["end_to_end"]:
        assert harness.SUMMARY_UNITS[m["name"]] == m["unit"]
    for name, unit in harness.SUMMARY_UNITS.items():
        if trace and name == "setup_s":
            continue
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in out)
