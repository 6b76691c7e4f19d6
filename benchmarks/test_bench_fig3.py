"""Benchmark: Figure 3 — CDFs of clients/requests per cluster."""

from repro.core.metrics import fraction_below


def cdf(values):
    """Empirical CDF of ``values`` as (value, fraction <= value) steps."""
    ordered = sorted(values)
    n = len(ordered)
    return [
        (value, (index + 1) / n)
        for index, value in enumerate(ordered)
        if index + 1 == n or ordered[index + 1] != value
    ]


def test_fig3_cdfs(benchmark, nagano_clusters):
    def build_cdfs():
        clients = [c.num_clients for c in nagano_clusters.clusters]
        requests = [c.requests for c in nagano_clusters.clusters]
        return cdf(clients), cdf(requests)

    client_cdf, request_cdf = benchmark(build_cdfs)
    assert client_cdf[-1][1] == 1.0
    assert request_cdf[-1][1] == 1.0
    # Paper: the vast majority of clusters are small.
    clients = [c.num_clients for c in nagano_clusters.clusters]
    assert fraction_below(clients, 100) > 0.9
