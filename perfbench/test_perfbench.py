"""The benchmark's own tests: metric coverage and the layer map.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute: each workload runs once untraced and once traced, each
in a fresh process).
"""

import json
import os

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)

#: ``other.self_ms`` (time no layer claims) may be at most this share of
#: the traced timed phase.
OTHER_SHARE_MAX = 0.05


@pytest.fixture(scope="module", params=run.WORKLOADS)
def records(request):
    untraced = run.spawn(request.param, 2018, False, run.DEADLINE_S)
    traced = run.spawn(request.param, 2018, True, run.DEADLINE_S)
    return untraced, traced


def test_benchmark_lists_the_runner_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)


def test_every_end_to_end_metric_is_present(records):
    untraced, _ = records
    metrics = run.end_to_end([untraced])
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for name, value in metrics.items():
        assert value > 0, f"{untraced['workload']}: {name} is {value}"


def test_every_per_layer_metric_is_present(records):
    untraced, traced = records
    layers = run.per_layer(untraced, traced)
    assert ([(m["name"], m["unit"]) for m in BENCH["per_layer"]]
            == [(name, unit) for name, (_, unit) in layers.items()])


def test_traced_run_models_the_same_outputs(records):
    untraced, traced = records
    assert run.problems([untraced, traced]) == []


def test_layer_map_leaves_little_unattributed(records):
    _, traced = records
    other_ms = traced["ledger"]["self_ms"]["other"]
    assert abs(other_ms) <= OTHER_SHARE_MAX * 1e3 * traced["run_s"], (
        f"{traced['workload']}: {other_ms:.1f} ms of "
        f"{1e3 * traced['run_s']:.1f} ms unattributed")
