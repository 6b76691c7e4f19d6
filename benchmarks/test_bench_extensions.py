"""Benchmarks for the extension features (paper's stated future work).

* real-time sliding-window clustering throughput;
* AS-level grouping (probe-free) vs traceroute-based grouping;
* selective (tolerant) validation;
* multi-server merged-trace replay.
"""

import random

from repro.cache.multiserver import MultiServerSimulator, OriginSpec, merge_logs
from repro.core.asclusters import group_clusters_by_as
from repro.core.clustering import cluster_log
from repro.core.netclusters import cluster_networks
from repro.core.realtime import RealTimeClusterer
from repro.core.selective import selective_validate
from repro.core.validation import nslookup_validate, sample_clusters
from repro.weblog.presets import make_log

from conftest import BENCH_SCALE, BENCH_SEED


def test_ext_realtime_streaming_throughput(benchmark, nagano, merged_table):
    entries = nagano.log.entries

    def stream():
        clusterer = RealTimeClusterer(merged_table, window_seconds=1800.0)
        for item in entries:
            clusterer.feed(item)
        return clusterer

    clusterer = benchmark(stream)
    assert clusterer.entries_processed == len(entries)
    # The assignment cache keeps LPM lookups down to one per client.
    assert clusterer.lookups_performed <= nagano.log.num_clients()


def test_ext_as_grouping_vs_traceroute(benchmark, nagano_clusters,
                                       merged_table, traceroute):
    def group_both():
        by_as = group_clusters_by_as(nagano_clusters, merged_table)
        by_path = cluster_networks(nagano_clusters, traceroute, level=3)
        return by_as, by_path

    by_as, by_path = benchmark(group_both)
    # Both aggregate; the AS grouping needs zero probes.
    assert len(by_as) < len(nagano_clusters)
    assert len(by_path) < len(nagano_clusters)
    assert by_path.probes_used > 0


def test_ext_selective_validation(benchmark, nagano_clusters, dns, topology):
    sample = sample_clusters(nagano_clusters, 0.25, random.Random(8),
                             minimum=50)

    def validate():
        return selective_validate(sample, dns, tolerance=0.05)

    tolerant = benchmark(validate)
    strict = nslookup_validate(sample, dns, topology)
    # Tolerance can only help.
    assert tolerant.pass_rate >= strict.pass_rate


def test_ext_multiserver_replay(benchmark, topology, merged_table):
    origins = []
    for index, preset in enumerate(("nagano", "ew3")):
        synthetic = make_log(topology, preset, scale=BENCH_SCALE * 0.4,
                             seed=BENCH_SEED + index)
        origins.append(OriginSpec(preset, synthetic.log, synthetic.catalog))
    clusters = cluster_log(merge_logs(origins), merged_table)
    simulator = MultiServerSimulator(origins, clusters)

    def replay():
        return simulator.run(cache_bytes=5_000_000)

    result = benchmark(replay)
    assert result.total_requests == sum(len(o.log) for o in origins)
    assert 0.0 < result.overall_hit_ratio < 1.0
