"""BENCHMARK.json is the contract; bench/spec.py is its annotated
source.  They must not drift, and the file must stay inside the
driver's limits."""

import re

from bench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_and_command(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark_json["command"] == ["python3", "bench/run.py"]
    assert benchmark_json["paths"] == ["bench"]
    assert benchmark_json["run_seconds"] == spec.DEFAULT_SECONDS


def test_workloads_match_spec(benchmark_json):
    assert benchmark_json["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)


def test_metrics_match_spec(benchmark_json):
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]


def test_inside_the_drivers_limits(benchmark_json):
    metrics = benchmark_json["end_to_end"] + benchmark_json["per_layer"]
    names = [m["name"] for m in metrics + benchmark_json["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])
