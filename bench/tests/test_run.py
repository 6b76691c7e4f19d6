"""The command itself: the driver's contract and ``--compare``."""

import json
import os
import subprocess
import sys

from bench import run, spec
from bench.tests.conftest import ROOT, TINY_SCALE


def _driver(workload, trace, tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--scale", str(TINY_SCALE),
         "--workdir", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, cwd=str(tmp_path), check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_driver_form_prints_the_contracts_result_line(tmp_path):
    for trace, metrics in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        result = _driver("serve_durable", trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert result["metrics"] == {
            m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
            for m in metrics
        }
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert os.listdir(tmp_path) == ["trace-serve_durable.json"]


def _result(path, events_per_s, correct=True):
    entry = {
        "correct": correct, "failed_share": 0.0,
        "end_to_end": {
            metric.name: {"value": 10.0, "unit": metric.unit}
            for metric in spec.END_TO_END
        },
    }
    entry["end_to_end"]["events_per_s"]["value"] = events_per_s
    with open(path, "w") as handle:
        json.dump({"workloads": {w.name: entry for w in spec.WORKLOADS}}, handle)
    return str(path)


def test_compare_holds_each_pair_to_its_bound(tmp_path, capsys):
    bound = run.BOUNDS["events_per_s"]
    base = _result(tmp_path / "a.json", 1000.0)
    slower = _result(tmp_path / "b.json", 1000.0 * (1 - bound / 2))
    assert run.compare(base, slower) == 0
    assert f"{bound / 2:+.1%}" in capsys.readouterr().out  # slower = B worse
    assert run.compare(base, _result(tmp_path / "c.json", 1500.0)) == 0
    broken = _result(tmp_path / "d.json", 1000.0 * (1 - bound * 1.2))
    assert run.compare(base, broken) == 1
    assert capsys.readouterr().out.count("OUTSIDE") == len(spec.WORKLOADS)
    assert run.compare(base, _result(tmp_path / "e.json", 1000.0, correct=False)) == 1
