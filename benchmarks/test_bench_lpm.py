"""Ablation benchmark: LPM matcher choice (radix vs per-length hash vs
linear scan).

The clustering step is one longest-prefix match per unique client; this
ablation shows why the radix trie is the paper's baseline matcher and
the linear scan only a correctness oracle.
"""

import random

import pytest

from repro.net.lpm import LinearLpm, SortedLpm
from repro.net.radix import RadixTree

KINDS = {"radix": RadixTree, "sorted": SortedLpm, "linear": LinearLpm}


def build_engine(kind, entries):
    engine = KINDS[kind]()
    for prefix, value in entries:
        engine.insert(prefix, value)
    return engine


@pytest.fixture(scope="module")
def workload(merged_table, nagano):
    entries = [(result.prefix, result.source_name)
               for _, result in _iter_table(merged_table)]
    clients = nagano.log.clients()
    return entries, clients


def _iter_table(merged_table):
    return list(merged_table.items())


@pytest.mark.parametrize("kind", ["radix", "sorted", "linear"])
def test_lpm_engine_lookup_throughput(benchmark, workload, kind):
    entries, clients = workload
    engine = build_engine(kind, entries)
    # The linear oracle is O(n) per lookup: give it a smaller batch so
    # the harness finishes, and scale the comparison per-lookup.
    batch = clients[:50] if kind == "linear" else clients

    def match_all():
        hits = 0
        for address in batch:
            if engine.longest_match(address) is not None:
                hits += 1
        return hits

    hits = benchmark(match_all)
    assert hits > 0.98 * len(batch)


@pytest.mark.parametrize("kind", ["radix", "sorted"])
def test_lpm_engine_build_time(benchmark, workload, kind):
    entries, _ = workload

    def build():
        return build_engine(kind, entries)

    engine = benchmark(build)
    assert len(engine) == len({p for p, _ in entries})


def test_lpm_engines_agree_on_log_clients(workload):
    entries, clients = workload
    rng = random.Random(0)
    sample = rng.sample(clients, min(300, len(clients)))
    radix = build_engine("radix", entries)
    sorted_engine = build_engine("sorted", entries)
    for address in sample:
        a = radix.longest_match(address)
        b = sorted_engine.longest_match(address)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0]
