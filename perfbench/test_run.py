"""BENCHMARK.json and the benchmark script must name the same workloads
and metrics. Run with: python -m pytest perfbench
"""

import json
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


def test_p99_is_nearest_rank():
    assert run.p99(list(range(1, 101))) == 99
    assert run.p99([5.0]) == 5.0
