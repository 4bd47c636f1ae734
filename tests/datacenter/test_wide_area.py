"""Unit tests for wide-area analytics and secure aggregation (C10)."""

import random

import pytest

from repro.datacenter import (
    QueryResult,
    SiteData,
    WideAreaAnalytics,
    WideAreaLink,
    secure_sum,
)


def make_sites(seed=1, n_sites=4, per_site=200):
    rng = random.Random(seed)
    return [SiteData(f"site-{i}",
                     tuple(rng.gauss(50.0 + i, 10.0)
                           for _ in range(per_site)))
            for i in range(n_sites)]


class TestWideAreaAnalytics:
    def test_validation(self):
        with pytest.raises(ValueError):
            WideAreaAnalytics([])
        with pytest.raises(ValueError):
            SiteData("empty", ())
        sites = make_sites(n_sites=2)
        with pytest.raises(ValueError):
            WideAreaAnalytics([sites[0], sites[0]])

    def test_full_transfer_is_exact_and_expensive(self):
        analytics = WideAreaAnalytics(make_sites())
        result = analytics.query_mean("full")
        assert result.relative_error == 0.0
        assert result.bytes_transferred == 4 * 200 * 8

    def test_aggregation_is_exact_and_cheap(self):
        analytics = WideAreaAnalytics(make_sites())
        result = analytics.query_mean("aggregate")
        assert result.relative_error == pytest.approx(0.0, abs=1e-12)
        assert result.bytes_transferred == 4 * 2 * 8
        full = analytics.query_mean("full")
        assert result.bytes_transferred < full.bytes_transferred / 10

    def test_sampling_trades_accuracy_for_traffic(self):
        analytics = WideAreaAnalytics(make_sites(seed=2),
                                      rng=random.Random(3))
        small = analytics.query_mean("sample", sample_fraction=0.05)
        large = analytics.query_mean("sample", sample_fraction=0.5)
        assert small.bytes_transferred < large.bytes_transferred
        # Sampling error is bounded for this well-behaved data.
        assert small.relative_error < 0.2
        assert large.relative_error < 0.1

    def test_sample_fraction_validated(self):
        analytics = WideAreaAnalytics(make_sites())
        with pytest.raises(ValueError):
            analytics.query_mean("sample", sample_fraction=0.0)
        with pytest.raises(ValueError):
            analytics.query_mean("teleport")

    def test_pareto_frontier_sorted_by_traffic(self):
        analytics = WideAreaAnalytics(make_sites(), rng=random.Random(4))
        frontier = analytics.pareto_frontier()
        transfers = [r.bytes_transferred for r in frontier]
        assert transfers == sorted(transfers)
        # Aggregation sits at the cheap end, full at the expensive end.
        assert frontier[0].strategy == "aggregate"
        assert frontier[-1].strategy == "full"

    def test_relative_error_zero_base(self):
        result = QueryResult("x", estimate=0.5, exact=0.0,
                             bytes_transferred=1)
        assert result.relative_error == 0.5


class TestSecureSum:
    def test_total_is_exact(self):
        values = {"a": 10.0, "b": -3.5, "c": 7.25}
        total, published = secure_sum(values, rng=random.Random(5))
        assert total == pytest.approx(sum(values.values()))
        assert set(published) == set(values)

    def test_published_shares_hide_inputs(self):
        values = {"a": 10.0, "b": 20.0, "c": 30.0}
        _, published = secure_sum(values, rng=random.Random(6),
                                  mask_range=1e6)
        # No site's published aggregate equals (or is near) its input.
        for name, value in values.items():
            assert abs(published[name] - value) > 1.0

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            secure_sum({"solo": 1.0})

    def test_different_seeds_different_masks_same_total(self):
        values = {"a": 1.0, "b": 2.0}
        total1, pub1 = secure_sum(values, rng=random.Random(1))
        total2, pub2 = secure_sum(values, rng=random.Random(2))
        assert total1 == pytest.approx(total2)
        assert pub1 != pub2


class TestWideAreaLink:
    @pytest.mark.parametrize("latency", [0.0, -1.0, float("nan")])
    def test_latency_must_be_positive(self, latency):
        with pytest.raises(ValueError, match="positive latency"):
            WideAreaLink("a", "b", latency)
