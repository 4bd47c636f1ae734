"""Unit tests for the queueing-theory models."""

import pytest

from repro.solvers import MM1, MMc, littles_law_holds


class TestQueueing:
    def test_mm1_formulas(self):
        queue = MM1(arrival_rate=8.0, service_rate=10.0)
        assert queue.utilization == pytest.approx(0.8)
        assert queue.mean_jobs_in_system == pytest.approx(4.0)
        assert queue.mean_response_time == pytest.approx(0.5)
        assert queue.mean_waiting_time == pytest.approx(0.4)
        assert queue.mean_queue_length == pytest.approx(3.2)

    def test_mm1_littles_law_internal_consistency(self):
        queue = MM1(arrival_rate=3.0, service_rate=5.0)
        assert queue.mean_jobs_in_system == pytest.approx(
            queue.arrival_rate * queue.mean_response_time)

    def test_mm1_stability_required(self):
        with pytest.raises(ValueError):
            MM1(arrival_rate=10.0, service_rate=10.0)

    def test_mmc_reduces_to_mm1(self):
        mm1 = MM1(arrival_rate=4.0, service_rate=10.0)
        mmc = MMc(arrival_rate=4.0, service_rate=10.0, servers=1)
        assert mmc.mean_response_time == pytest.approx(
            mm1.mean_response_time)

    def test_mmc_more_servers_less_waiting(self):
        two = MMc(arrival_rate=8.0, service_rate=5.0, servers=2)
        four = MMc(arrival_rate=8.0, service_rate=5.0, servers=4)
        assert four.mean_waiting_time < two.mean_waiting_time
        assert 0.0 < four.erlang_c < two.erlang_c < 1.0

    def test_mmc_stability(self):
        with pytest.raises(ValueError):
            MMc(arrival_rate=10.0, service_rate=5.0, servers=2)

    def test_littles_law_checker(self):
        assert littles_law_holds(2.0, mean_in_system=1.0,
                                 mean_response=0.5)
        assert not littles_law_holds(2.0, mean_in_system=5.0,
                                     mean_response=0.5)
        with pytest.raises(ValueError):
            littles_law_holds(0.0, 1.0, 1.0)
