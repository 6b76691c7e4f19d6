"""The tracer's arithmetic, and the traced child end to end."""

import json
import time

from bench import child, spec
from bench.trace import Tracer


class _Layers:
    def outer(self, n):
        time.sleep(0.002)
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        time.sleep(0.001)
        return i


def test_self_time_is_span_minus_children_and_patches_come_off():
    tracer = Tracer(["outer", "inner"])
    original = _Layers.__dict__["outer"]
    tracer.patch(_Layers, "outer", "outer", keep_calls=True)
    tracer.patch(_Layers, "inner", "inner", measure=lambda args, result: result)
    tracer.begin_pass(0)
    tracer.begin_slice(0)
    began = time.perf_counter()
    assert _Layers().outer(3) == 3
    wall = time.perf_counter() - began
    tracer.end_pass()
    tracer.unpatch()
    assert _Layers.__dict__["outer"] is original

    outer, inner = tracer.totals["outer"], tracer.totals["inner"]
    assert (outer[1], inner[1], inner[2]) == (1, 3, 3)
    assert inner[0] >= 0.003 and outer[0] >= 0.002
    assert abs(tracer.root_busy - (outer[0] + inner[0])) < 1e-9
    assert tracer.root_busy <= wall
    assert tracer.calls["outer"] == [tracer.root_busy]
    spans = {span["name"]: span for span in tracer.spans}
    assert spans["inner"]["calls"] == 3 and spans["inner"]["parent"] == "outer"
    assert spans["outer"]["parent"] == "harness"
    assert spans["inner"]["slice"] == 0 and spans["inner"]["phase"] == "run"


def test_traced_child_reports_every_layer_and_the_columns_add_up(manifests, tmp_path):
    names = {metric.name for metric in spec.PER_LAYER}
    for workload, manifest in manifests.items():
        record = child.run(manifest, seconds=0.0, trace=True)
        assert record["correct"], record["error"]
        layers = dict(record["per_layer"], **manifest["generate_timings"])
        assert set(layers) == names, workload
        assert layers["trace.overhead_ratio"] > 0
        assert layers["failed_share"] == 0

        with open(record["trace_file"]) as handle:
            trace = json.load(handle)
        run_spans = [s for s in trace["spans"] if s["phase"] == "run"]
        assert run_spans and all(
            {"name", "start", "end", "parent", "slice"} <= set(s) for s in run_spans
        )
        passes = {span["pass"] for span in run_spans}
        self_seconds = sum(span["self_s"] for span in run_spans) / len(passes)
        wall = trace["summary"]["mean_pass_wall_s"]
        assert abs(self_seconds + layers["harness.unattributed_s"] - wall) <= 0.01 * wall
        assert layers["harness.unattributed_s"] >= 0
