"""The paper's core contribution: network-aware client clustering.

Cluster identification by longest-prefix match on merged BGP tables
(§3.2) with the simple-/24 and classful baselines (§2), distribution
metrics (Figures 3–7), nslookup/traceroute validation (§3.3),
self-correction and adaptation (§3.5), spider/proxy detection (§4.1.2),
busy-cluster thresholding (§4.1.3), server clustering (§3.6), and
second-level network clusters (§3.6).
"""

from repro.core.asclusters import (
    AsGroup,
    AsGroupingReport,
    as_merge_candidates,
    group_clusters_by_as,
)
from repro.core.clustering import (
    METHOD_CLASSFUL,
    METHOD_NETWORK_AWARE,
    METHOD_SIMPLE,
    Cluster,
    ClusterSet,
    classful_prefix,
    cluster_addresses,
    cluster_log,
    simple_prefix,
)
from repro.core.hidden import (
    ClientCensus,
    HiddenClientEstimate,
    census,
    estimate_hidden_clients,
)
from repro.core.metrics import (
    ClusterDistributions,
    ClusterSummary,
    distributions,
    fraction_below,
    prefix_length_histogram,
    summary,
)
from repro.core.netclusters import NetworkCluster, NetworkClusterSet, cluster_networks
from repro.core.placement import (
    LatencyReport,
    PlacementPlan,
    ProxySite,
    evaluate_latency,
    plan_placement,
)
from repro.core.realtime import RealTimeClusterer, WindowStats
from repro.core.report import SiteReport, analyze_log
from repro.core.selective import (
    MODE_CLIENT,
    MODE_REQUEST,
    SelectiveReport,
    SelectiveVerdict,
    selective_validate,
)
from repro.core.selfcorrect import CorrectionReport, SelfCorrector, covering_prefix
from repro.core.servercluster import ServerClusterReport, cluster_servers
from repro.core.spiders import (
    ClientProfile,
    Detection,
    DetectionReport,
    arrival_histogram,
    classify_clients,
    detect_proxies,
    detect_spiders,
    pattern_correlation,
    profile_clients,
)
from repro.core.threshold import ThresholdReport, threshold_busy_clusters
from repro.core.validation import (
    ClusterVerdict,
    ValidationReport,
    ground_truth_validate,
    names_share_suffix,
    nslookup_validate,
    sample_clusters,
    simple_approach_pass_rate,
    traceroute_validate,
)

__all__ = [
    "AsGroup",
    "AsGroupingReport",
    "group_clusters_by_as",
    "as_merge_candidates",
    "ClientCensus",
    "HiddenClientEstimate",
    "census",
    "estimate_hidden_clients",
    "ProxySite",
    "PlacementPlan",
    "LatencyReport",
    "plan_placement",
    "evaluate_latency",
    "SiteReport",
    "analyze_log",
    "RealTimeClusterer",
    "WindowStats",
    "MODE_CLIENT",
    "MODE_REQUEST",
    "SelectiveReport",
    "SelectiveVerdict",
    "selective_validate",
    "METHOD_NETWORK_AWARE",
    "METHOD_SIMPLE",
    "METHOD_CLASSFUL",
    "Cluster",
    "ClusterSet",
    "cluster_addresses",
    "cluster_log",
    "simple_prefix",
    "classful_prefix",
    "ClusterDistributions",
    "ClusterSummary",
    "distributions",
    "fraction_below",
    "summary",
    "prefix_length_histogram",
    "ClusterVerdict",
    "ValidationReport",
    "sample_clusters",
    "names_share_suffix",
    "nslookup_validate",
    "traceroute_validate",
    "ground_truth_validate",
    "simple_approach_pass_rate",
    "CorrectionReport",
    "SelfCorrector",
    "covering_prefix",
    "ClientProfile",
    "Detection",
    "DetectionReport",
    "arrival_histogram",
    "pattern_correlation",
    "profile_clients",
    "detect_spiders",
    "detect_proxies",
    "classify_clients",
    "ThresholdReport",
    "threshold_busy_clusters",
    "ServerClusterReport",
    "cluster_servers",
    "NetworkCluster",
    "NetworkClusterSet",
    "cluster_networks",
]
