"""End-to-end integration tests over the full pipeline.

These exercise the library the way the paper's §3 pipeline runs: build
the world, collect and merge snapshots, generate a log, cluster,
validate, correct, detect, threshold, simulate caching — asserting the
paper's qualitative claims at every stage.
"""

import random

import pytest

from repro.cache.simulator import CachingSimulator
from repro.core.clustering import METHOD_SIMPLE, cluster_log
from repro.core.metrics import summary
from repro.core.selfcorrect import SelfCorrector
from repro.core.spiders import classify_clients
from repro.core.threshold import threshold_busy_clusters
from repro.core.validation import (
    nslookup_validate,
    sample_clusters,
    traceroute_validate,
)
from repro.pipeline import quick_pipeline
from repro.simnet.dns import SimulatedDns
from repro.simnet.traceroute import SimulatedTraceroute


@pytest.fixture(scope="module")
def pipeline():
    return quick_pipeline(seed=1337, preset="nagano", scale=0.12)


class TestPipelineHeadlines:
    def test_999_permille_clustered(self, pipeline):
        """§3.2.2: ≥ 99.9 % of clients clusterable (0.1 % bogus)."""
        assert pipeline.cluster_set.clustered_fraction >= 0.99

    def test_cluster_count_order_of_magnitude(self, pipeline):
        stats = summary(pipeline.cluster_set)
        assert 0 < stats.num_clusters < stats.num_clients

    def test_heavy_tailed_requests(self, pipeline):
        requests = sorted(
            (c.requests for c in pipeline.cluster_set.clusters), reverse=True
        )
        top_decile = sum(requests[: max(1, len(requests) // 10)])
        assert top_decile > 0.3 * sum(requests)

    def test_registry_contribution_small_but_positive(self, pipeline):
        registry_clients = pipeline.cluster_set.registry_clustered_clients()
        total = pipeline.cluster_set.num_clients
        assert 0 <= registry_clients / total < 0.2


class TestValidationStage:
    def test_both_validators_pass_most_clusters(self, pipeline):
        dns = SimulatedDns(pipeline.topology)
        traceroute = SimulatedTraceroute(pipeline.topology, dns)
        sample = sample_clusters(
            pipeline.cluster_set, 0.3, random.Random(0), minimum=40
        )
        ns = nslookup_validate(sample, dns, pipeline.topology)
        tr = traceroute_validate(sample, traceroute, pipeline.topology)
        assert ns.pass_rate > 0.8
        assert tr.pass_rate > 0.8
        # Traceroute reaches everyone; nslookup only ~half.
        assert tr.reachable_clients == tr.sampled_clients
        assert ns.reachable_clients < ns.sampled_clients


class TestSelfCorrectionStage:
    def test_correction_clears_unclustered(self, pipeline):
        traceroute = SimulatedTraceroute(pipeline.topology)
        corrector = SelfCorrector(traceroute, samples_per_cluster=3, seed=1)
        corrected, report = corrector.correct(pipeline.cluster_set)
        assert corrected.unclustered_clients == []
        assert report.clusters_before == len(pipeline.cluster_set)


class TestCachingStage:
    def test_simulation_runs_and_orders_methods(self, pipeline):
        log = pipeline.synthetic_log.log
        detections = classify_clients(log, pipeline.cluster_set)
        cleaned = log.without_clients(
            detections.spider_clients() + detections.proxy_clients()
        )
        aware = cluster_log(cleaned, pipeline.table)
        simple = cluster_log(cleaned, method=METHOD_SIMPLE)
        r_aware = CachingSimulator(
            cleaned, pipeline.synthetic_log.catalog, aware, min_url_accesses=5
        ).run(cache_bytes=20_000_000)
        r_simple = CachingSimulator(
            cleaned, pipeline.synthetic_log.catalog, simple, min_url_accesses=5
        ).run(cache_bytes=20_000_000)
        assert 0.0 < r_aware.server_hit_ratio <= 1.0
        assert r_aware.server_hit_ratio >= r_simple.server_hit_ratio - 0.01

    def test_thresholding_after_detection(self, pipeline):
        report = threshold_busy_clusters(pipeline.cluster_set)
        assert report.busy
        assert report.busy_requests >= 0.7 * pipeline.cluster_set.total_requests


class TestDeterminism:
    def test_pipeline_reproducible(self):
        a = quick_pipeline(seed=99, preset="ew3", scale=0.05)
        b = quick_pipeline(seed=99, preset="ew3", scale=0.05)
        assert len(a.cluster_set) == len(b.cluster_set)
        assert [c.identifier for c in a.cluster_set.clusters] == [
            c.identifier for c in b.cluster_set.clusters
        ]

    def test_seed_changes_world(self):
        a = quick_pipeline(seed=99, preset="ew3", scale=0.05)
        b = quick_pipeline(seed=100, preset="ew3", scale=0.05)
        assert [c.identifier for c in a.cluster_set.clusters] != [
            c.identifier for c in b.cluster_set.clusters
        ]
