"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    r1, r2, r3 = resource.request(), resource.request(), resource.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert resource.in_use == 2
    assert resource.queue_length == 1


def test_resource_release_wakes_fifo_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def user(sim, resource, label, hold):
        with resource.request() as req:
            yield req
            order.append(("start", label, sim.now))
            yield sim.timeout(hold)
        order.append(("end", label, sim.now))

    sim.process(user(sim, resource, "a", 2.0))
    sim.process(user(sim, resource, "b", 1.0))
    sim.run()
    assert order == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 3.0),
    ]


def test_resource_double_release_is_idempotent():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    req = resource.request()
    sim.run()
    req.release()
    req.release()  # no-op
    assert resource.in_use == 0


def test_resource_cancel_waiting_request():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    holder = resource.request()
    waiter = resource.request()
    waiter.release()  # cancels the queued request
    assert resource.queue_length == 0
    holder.release()
    assert resource.available == 1


def test_release_without_grant_is_error():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource._release_one()

