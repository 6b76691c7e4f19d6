"""Ablation benchmarks for the design choices DESIGN.md calls out.

* clustering-method accuracy against ground truth (network-aware vs
  simple vs classful);
* merged-table coverage vs a single snapshot;
* end-to-end pipeline throughput.
"""

import random

from repro.bgp.sources import source_by_name
from repro.bgp.table import MergedPrefixTable
from repro.core.clustering import (
    METHOD_CLASSFUL,
    METHOD_NETWORK_AWARE,
    METHOD_SIMPLE,
    cluster_log,
)
from repro.core.validation import ground_truth_validate, sample_clusters


def test_ablation_method_accuracy(benchmark, nagano, merged_table, topology):
    """Ground-truth cluster correctness by method: the oracle the paper
    could not run.  Network-aware must beat the fixed-/24 split on
    too-big errors while keeping far fewer too-small splits."""

    def score_all():
        scores = {}
        for method in (METHOD_NETWORK_AWARE, METHOD_SIMPLE, METHOD_CLASSFUL):
            table = merged_table if method == METHOD_NETWORK_AWARE else None
            clusters = cluster_log(nagano.log, table, method=method)
            sample = sample_clusters(
                clusters, 0.25, random.Random(7), minimum=60
            )
            report = ground_truth_validate(sample, topology)
            scores[method] = (report.pass_rate, len(clusters))
        return scores

    scores = benchmark(score_all)
    aware_rate, aware_count = scores[METHOD_NETWORK_AWARE]
    classful_rate, _ = scores[METHOD_CLASSFUL]
    _, simple_count = scores[METHOD_SIMPLE]
    # Classful clusters merge whole class-B spaces across entities, so
    # network-aware must be strictly more accurate than classful.
    assert aware_rate > classful_rate
    # The simple approach fragments the space into many more clusters.
    assert simple_count > aware_count


def test_ablation_single_source_vs_merged(benchmark, factory, nagano):
    """§3.1.2: merging tables materially improves client coverage over
    even the best single vantage point."""
    single = MergedPrefixTable.from_tables(
        [factory.snapshot(source_by_name("MAE-WEST"))]
    )
    merged = factory.merged()

    def cluster_both():
        return (
            cluster_log(nagano.log, single),
            cluster_log(nagano.log, merged),
        )

    partial, full = benchmark(cluster_both)
    assert full.clustered_fraction > partial.clustered_fraction


def test_ablation_end_to_end_pipeline(benchmark):
    """Whole §3 pipeline at reduced scale: world -> snapshots -> merge
    -> log -> clusters."""
    from repro.pipeline import quick_pipeline

    def pipeline():
        return quick_pipeline(seed=77, preset="nagano", scale=0.04)

    result = benchmark(pipeline)
    assert result.cluster_set.clustered_fraction > 0.99
