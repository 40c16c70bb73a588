"""Unit tests for the popularity model and server-side tracker."""

from __future__ import annotations

import math
import random

import pytest

from repro.catalog.popularity import (
    PopularityModel,
    PopularityTracker,
    sample_popularity,
    truncated_exponential_mean,
)
from repro.types import DAY, NodeId, Uri

URI = Uri("dtn://fox/f000001")


class TestSamplePopularity:
    def test_boundaries(self):
        assert sample_popularity(0.0, lam=5.0) == 0.0
        assert sample_popularity(1.0, lam=5.0) == pytest.approx(1.0)

    def test_monotonic_in_x(self):
        lam = 10.0
        xs = [i / 20 for i in range(21)]
        ys = [sample_popularity(x, lam) for x in xs]
        assert ys == sorted(ys)

    def test_matches_inverse_cdf_formula(self):
        lam, x = 7.0, 0.35
        expected = -math.log(1.0 - x * (1.0 - math.exp(-lam))) / lam
        assert sample_popularity(x, lam) == pytest.approx(expected)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            sample_popularity(0.5, 0.0)

    def test_rejects_out_of_range_x(self):
        with pytest.raises(ValueError):
            sample_popularity(-0.1, 1.0)
        with pytest.raises(ValueError):
            sample_popularity(1.1, 1.0)

    def test_mean_approx_one_over_lambda(self):
        lam = 20.0
        rng = random.Random(0)
        samples = [sample_popularity(rng.random(), lam) for __ in range(20_000)]
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(1.0 / lam, rel=0.1)

    def test_exact_mean_formula(self):
        lam = 20.0
        rng = random.Random(1)
        samples = [sample_popularity(rng.random(), lam) for __ in range(40_000)]
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(truncated_exponential_mean(lam), rel=0.05)


class TestPopularityModel:
    def test_paper_lambda_coupling(self):
        # λ = n/2 so that n files/day × mean popularity ≈ 2 queries/day.
        model = PopularityModel.for_files_per_day(40)
        assert model.lam == pytest.approx(20.0)

    def test_custom_query_rate(self):
        model = PopularityModel.for_files_per_day(30, queries_per_node_per_day=3.0)
        assert model.lam == pytest.approx(10.0)

    def test_samples_in_unit_interval(self):
        model = PopularityModel(lam=5.0)
        rng = random.Random(2)
        for p in (model.sample(rng) for __ in range(500)):
            assert 0.0 <= p <= 1.0

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            PopularityModel(lam=-1.0)

    def test_rejects_bad_files_per_day(self):
        with pytest.raises(ValueError):
            PopularityModel.for_files_per_day(0)

    def test_mean_property(self):
        model = PopularityModel(lam=10.0)
        assert model.mean == pytest.approx(truncated_exponential_mean(10.0))


class TestPopularityTracker:
    def test_popularity_counts_distinct_requesters(self):
        tracker = PopularityTracker(population=10)
        tracker.record_request(URI, NodeId(1), now=0.0)
        tracker.record_request(URI, NodeId(2), now=10.0)
        tracker.record_request(URI, NodeId(1), now=20.0)  # duplicate node
        assert tracker.popularity_of(URI, now=30.0) == pytest.approx(0.2)

    def test_window_expires_old_requests(self):
        tracker = PopularityTracker(population=4, window=DAY)
        tracker.record_request(URI, NodeId(1), now=0.0)
        assert tracker.popularity_of(URI, now=DAY - 1) == pytest.approx(0.25)
        assert tracker.popularity_of(URI, now=DAY + 1) == 0.0

    def test_unknown_uri_is_zero(self):
        tracker = PopularityTracker(population=4)
        assert tracker.popularity_of(URI, now=0.0) == 0.0

    def test_capped_at_one(self):
        tracker = PopularityTracker(population=1)
        tracker.record_request(URI, NodeId(1), now=0.0)
        tracker.record_request(URI, NodeId(2), now=0.0)
        assert tracker.popularity_of(URI, now=1.0) == 1.0

    def test_snapshot(self):
        tracker = PopularityTracker(population=2)
        other = Uri("dtn://abc/f2")
        tracker.record_request(URI, NodeId(1), now=0.0)
        snap = tracker.snapshot([URI, other], now=1.0)
        assert snap[URI] == pytest.approx(0.5)
        assert snap[other] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PopularityTracker(population=0)
        with pytest.raises(ValueError):
            PopularityTracker(population=1, window=0.0)
