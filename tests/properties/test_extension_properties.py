"""Property-based tests for the extension subsystems."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import secure_sum
from repro.evolution import EvolutionModel
from repro.navigation import NFRProfile, Requirements


# ---------------------------------------------------------------------------
# Secure aggregation: exactness and masking
# ---------------------------------------------------------------------------
@given(st.dictionaries(st.from_regex(r"site-[a-z]{1,6}", fullmatch=True),
                       st.floats(min_value=-1e4, max_value=1e4,
                                 allow_nan=False),
                       min_size=2, max_size=8),
       st.integers(min_value=0, max_value=10**6))
def test_secure_sum_exact_for_any_inputs(values, seed):
    total, published = secure_sum(values, rng=random.Random(seed))
    assert total == pytest.approx(sum(values.values()), abs=1e-4)
    assert set(published) == set(values)


# ---------------------------------------------------------------------------
# Evolution: shares are a distribution after every run length
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6))
def test_evolution_shares_always_normalized(n_initial, radical, lock_in,
                                            generations, seed):
    model = EvolutionModel(n_initial=n_initial,
                           radical_probability=radical,
                           lock_in_strength=lock_in,
                           rng=random.Random(seed))
    trace = model.run(generations=generations)
    assert sum(t.share for t in model.population) == pytest.approx(1.0)
    assert all(t.share >= 0 for t in model.population)
    assert all(t.quality > 0 for t in model.population)
    assert len(trace.mean_quality) == generations
    assert all(0.0 < c <= 1.0 + 1e-9 for c in trace.concentration)


# ---------------------------------------------------------------------------
# Navigation: utilities are bounded and monotone in quality
# ---------------------------------------------------------------------------
profile_strategy = st.builds(
    NFRProfile,
    latency_ms=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    availability=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    cost=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    throughput=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))


@given(profile_strategy)
def test_navigation_utility_bounded(profile):
    utility = Requirements().utility(profile)
    assert 0.0 <= utility <= 1.0


@given(profile_strategy)
def test_pareto_improvement_never_lowers_utility(profile):
    better = NFRProfile(latency_ms=profile.latency_ms / 2,
                        availability=min(1.0, profile.availability + 0.01
                                         * (1 - profile.availability)),
                        cost=profile.cost / 2,
                        throughput=profile.throughput * 2 + 1)
    requirements = Requirements()
    assert (requirements.utility(better)
            >= requirements.utility(profile) - 1e-12)

