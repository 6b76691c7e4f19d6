"""Unit tests for the seeded routing delta stream (serve feeder).

The :class:`DeltaGenerator` replays §3.4's intra-day churn as an online
announce/withdraw stream: its base churn is calibrated against the
period-0 dynamic prefix set from :func:`study_dynamics`, with seeded
flap / deaggregation / aggregation events layered on top.
"""

from collections import Counter

import pytest

from repro.bgp.dynamics import study_dynamics
from repro.bgp.sources import source_by_name
from repro.bgp.synth import DeltaGenerator, RouteDelta

AADS = source_by_name("AADS")


class TestRouteDelta:
    def test_json_round_trip(self):
        from repro.net.prefix import Prefix

        delta = RouteDelta(
            op=RouteDelta.OP_ANNOUNCE,
            prefix=Prefix.from_cidr("192.0.2.0/24"),
            origin_asn=64500,
            source="AADS",
            reason="flap",
        )
        assert RouteDelta.from_json(delta.to_json()) == delta

    def test_wire_format_uses_type_key(self):
        import json

        from repro.net.prefix import Prefix

        delta = RouteDelta(
            op=RouteDelta.OP_WITHDRAW,
            prefix=Prefix.from_cidr("192.0.2.0/24"),
        )
        document = json.loads(delta.to_json())
        assert document["type"] == "withdraw"

    def test_invalid_op_rejected(self):
        from repro.net.prefix import Prefix

        with pytest.raises(ValueError):
            RouteDelta(op="update", prefix=Prefix.from_cidr("10.0.0.0/8"))


class TestDeltaGenerator:
    def test_deterministic_across_instances(self, factory):
        first = DeltaGenerator(factory, source=AADS, seed=77).events(200)
        second = DeltaGenerator(factory, source=AADS, seed=77).events(200)
        assert [d.to_json() for d in first] == [d.to_json() for d in second]

    def test_chunked_calls_concatenate(self, factory):
        """events() resumes: two 100-event calls equal one 200-event
        call, so a feeder can drain the stream at any granularity."""
        chunked = DeltaGenerator(factory, source=AADS, seed=77)
        stream = chunked.events(100) + chunked.events(100)
        whole = DeltaGenerator(factory, source=AADS, seed=77).events(200)
        assert [d.to_json() for d in stream] == [d.to_json() for d in whole]

    def test_seed_changes_stream(self, factory):
        first = DeltaGenerator(factory, source=AADS, seed=77).events(100)
        second = DeltaGenerator(factory, source=AADS, seed=78).events(100)
        assert [d.to_json() for d in first] != [d.to_json() for d in second]

    def test_withdraws_only_name_live_prefixes(self, factory):
        """The serve invariant: a withdraw always targets a prefix the
        stream has announced (or the day-0 snapshot contains), so the
        daemon never sees a structurally impossible delta."""
        generator = DeltaGenerator(factory, source=AADS, seed=5)
        live = set(factory.snapshot(AADS).prefix_set())
        for delta in generator.events(400):
            if delta.op == RouteDelta.OP_WITHDRAW:
                assert delta.prefix in live
                live.discard(delta.prefix)
            else:
                live.add(delta.prefix)

    def test_churn_calibrated_to_period_zero_dynamics(self, factory):
        """Base churn replays exactly the §3.4 period-0 dynamic set:
        every churn-reason delta names a prefix study_dynamics marks
        dynamic for the same source and seed."""
        report = study_dynamics(factory, AADS, periods=(0,))
        dynamic = report.periods[0].dynamic_prefixes
        generator = DeltaGenerator(factory, source=AADS, seed=factory.seed)
        churned = {
            delta.prefix
            for delta in generator.events(300)
            if delta.reason == "churn" and delta.prefix in
            report.periods[0].union_prefixes
        }
        day_zero = {
            delta.prefix
            for delta in DeltaGenerator(
                factory, source=AADS, seed=factory.seed
            ).events(60)
            if delta.reason == "churn"
        }
        assert day_zero <= dynamic
        assert churned  # the stream does carry calibrated churn

    def test_reason_mix_includes_synthetic_events(self, factory):
        generator = DeltaGenerator(factory, source=AADS, seed=9)
        reasons = Counter(d.reason for d in generator.events(400))
        assert reasons["churn"] > 0
        assert reasons["flap"] > 0
        assert set(reasons) <= {
            "churn", "flap", "deaggregation", "aggregation"
        }
