"""Unit + property tests for Zipf sampling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.zipf import ZipfSampler, zipf_weights


class TestWeights:
    def test_harmonic_weights(self):
        weights = zipf_weights(4, alpha=1.0)
        assert weights == [1.0, 0.5, 1 / 3, 0.25]

    def test_alpha_zero_uniform(self):
        assert zipf_weights(3, alpha=0.0) == [1.0, 1.0, 1.0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, alpha=-1.0)


class TestSampler:
    def test_rank_zero_most_frequent(self):
        sampler = ZipfSampler(50, alpha=1.0)
        rng = random.Random(1)
        counts = [0] * 50
        for _ in range(20_000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[10]

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=0.0, max_value=3.0),
           st.integers(min_value=0, max_value=2**31))
    def test_samples_always_in_range(self, n, alpha, seed):
        sampler = ZipfSampler(n, alpha)
        rng = random.Random(seed)
        for _ in range(20):
            assert 0 <= sampler.sample(rng) < n
