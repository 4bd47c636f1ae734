"""Unit tests for arrival processes and burstiness metrics."""

import random

import pytest

from repro.workload import (
    MMPPArrivals,
    PoissonArrivals,
    index_of_dispersion,
    peak_to_mean_ratio,
)


def test_poisson_rate_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0.0)


def test_poisson_mean_rate():
    arrivals = PoissonArrivals(rate=2.0, rng=random.Random(1))
    times = arrivals.arrival_times(horizon=5000.0)
    assert len(times) / 5000.0 == pytest.approx(2.0, rel=0.05)


def test_poisson_times_sorted_within_horizon():
    times = PoissonArrivals(1.0, rng=random.Random(2)).arrival_times(100.0)
    assert times == sorted(times)
    assert all(0 <= t < 100.0 for t in times)


def test_poisson_dispersion_near_one():
    times = PoissonArrivals(5.0, rng=random.Random(3)).arrival_times(2000.0)
    iod = index_of_dispersion(times, horizon=2000.0, bin_width=10.0)
    assert iod == pytest.approx(1.0, abs=0.3)


def test_mmpp_validation():
    with pytest.raises(ValueError):
        MMPPArrivals(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MMPPArrivals(1.0, 1.0, 0.0, 1.0)


def test_mmpp_mean_rate_formula():
    mmpp = MMPPArrivals(quiet_rate=1.0, burst_rate=9.0,
                        quiet_duration=30.0, burst_duration=10.0)
    assert mmpp.mean_rate == pytest.approx(3.0)


def test_mmpp_is_burstier_than_poisson():
    horizon = 5000.0
    mmpp = MMPPArrivals(quiet_rate=0.5, burst_rate=20.0,
                        quiet_duration=50.0, burst_duration=5.0,
                        rng=random.Random(4))
    poisson = PoissonArrivals(mmpp.mean_rate, rng=random.Random(4))
    iod_mmpp = index_of_dispersion(mmpp.arrival_times(horizon), horizon, 10.0)
    iod_poisson = index_of_dispersion(poisson.arrival_times(horizon),
                                      horizon, 10.0)
    assert iod_mmpp > 2.0 * iod_poisson


def test_mmpp_peak_to_mean_exceeds_poisson():
    horizon = 5000.0
    mmpp = MMPPArrivals(quiet_rate=0.5, burst_rate=20.0,
                        quiet_duration=50.0, burst_duration=5.0,
                        rng=random.Random(5))
    ptm = peak_to_mean_ratio(mmpp.arrival_times(horizon), horizon, 10.0)
    assert ptm > 3.0


def test_metrics_handle_empty_arrivals():
    assert index_of_dispersion([], horizon=10.0, bin_width=1.0) == 0.0
    assert peak_to_mean_ratio([], horizon=10.0, bin_width=1.0) == 0.0


def test_metrics_validate_bin_width():
    with pytest.raises(ValueError):
        index_of_dispersion([1.0], horizon=10.0, bin_width=0.0)


def test_determinism_same_seed():
    a = PoissonArrivals(1.0, rng=random.Random(42)).arrival_times(50.0)
    b = PoissonArrivals(1.0, rng=random.Random(42)).arrival_times(50.0)
    assert a == b
