"""Tests for the bandwidth/latency link model."""

from types import SimpleNamespace

import pytest

from repro.interconnect.link import Link
from repro.interconnect.message import Message
from repro.overlay import arm_link
from repro.sim import Simulator, TrafficMeter


def make_link(sim, latency=15.0, bandwidth=3.2, traffic=None):
    return Link(sim, "test", latency, bandwidth, traffic)


def send(link, size_bytes, category, callback, *args):
    """Carry one message of ``size_bytes`` over ``link`` by ``cross``."""
    msg = Message(src=0, dst=1, size_bytes=size_bytes, category=category)
    link.cross(msg, callback, args)


def test_latency_only_delivery_time():
    sim = Simulator()
    link = make_link(sim, latency=15.0, bandwidth=None)
    arrivals = []
    send(link, 8, "request", lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [15.0]


def test_serialization_adds_size_over_bandwidth():
    sim = Simulator()
    link = make_link(sim, latency=15.0, bandwidth=3.2)
    arrivals = []
    send(link, 72, "data", lambda: arrivals.append(sim.now))
    sim.run()
    # 72 / 3.2 = 22.5 ns serialization + 15 ns latency
    assert arrivals == [pytest.approx(37.5)]


def test_back_to_back_messages_queue_for_bandwidth():
    sim = Simulator()
    link = make_link(sim, latency=15.0, bandwidth=3.2)
    arrivals = []
    send(link, 72, "data", lambda: arrivals.append(("a", sim.now)))
    send(link, 72, "data", lambda: arrivals.append(("b", sim.now)))
    sim.run()
    assert arrivals[0] == ("a", pytest.approx(22.5 + 15.0))
    assert arrivals[1] == ("b", pytest.approx(45.0 + 15.0))


def test_unlimited_bandwidth_messages_do_not_queue():
    sim = Simulator()
    link = make_link(sim, latency=15.0, bandwidth=None)
    arrivals = []
    send(link, 72, "data", lambda: arrivals.append(sim.now))
    send(link, 72, "data", lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [15.0, 15.0]


def test_link_is_fifo():
    sim = Simulator()
    link = make_link(sim)
    order = []
    for label in range(5):
        send(link, 8, "request", order.append, label)
    sim.run()
    assert order == list(range(5))


def test_link_frees_up_after_idle():
    sim = Simulator()
    link = make_link(sim, latency=10.0, bandwidth=8.0)
    arrivals = []
    send(link, 8, "request", lambda: arrivals.append(sim.now))
    sim.run()
    # Send again well after the link went idle: no queueing delay.
    sim.schedule(0.0, lambda: send(link, 8, "request", lambda: arrivals.append(sim.now)))
    sim.run()
    assert arrivals[0] == pytest.approx(11.0)
    assert arrivals[1] == pytest.approx(arrivals[0] + 11.0)


def test_traffic_meter_integration():
    sim = Simulator()
    meter = TrafficMeter()
    link = make_link(sim, traffic=meter)
    send(link, 8, "request", lambda: None)
    send(link, 72, "data", lambda: None)
    sim.run()
    assert meter.bytes_by_category() == {"request": 8, "data": 72}
    assert link.crossings == 2


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "bad", -1.0, 3.2)
    with pytest.raises(ValueError):
        Link(sim, "bad", 1.0, 0.0)


def _crossings(sim, link, use_cross):
    """Cross three messages at t=5 (the link still busy for the second
    and third), by ``cross`` or by ``occupy`` + ``post_at``; returns the
    heap, the traffic by category, the crossings and the slot state."""
    meter = link.traffic
    sim.schedule(5.0, lambda: None)
    sim.run()
    for size, category in ((72, "data"), (8, "request"), (72, "data")):
        msg = Message(src=0, dst=1, size_bytes=size, category=category)
        if use_cross:
            link.cross(msg, print, (msg.msg_id,))
        else:
            sim.post_at(link.occupy(size, category), print, msg.msg_id)
    heap = sorted((t, seq, args) for t, seq, _cb, args in sim._heap)
    return heap, meter.bytes_by_category(), link.crossings, link.busy_until


def test_cross_pushes_what_occupy_and_post_at_would():
    """``cross`` is the reference crossing in one frame: same arrival
    floats, same seqs, same traffic, same slot state — stock, hooked
    with an empty chain, and on a kernel subclass (which it posts to)."""

    class Posting(Simulator):
        __slots__ = ()

    def link_on(sim, hooked=False):
        link = make_link(sim, traffic=TrafficMeter())
        if hooked:
            arm_link(SimpleNamespace(), link)
        return link

    sim = Simulator()
    reference = _crossings(sim, link_on(sim), use_cross=False)
    for kernel in (Simulator, Posting):
        for hooked in (False, True):
            sim = kernel()
            observed = _crossings(sim, link_on(sim, hooked), use_cross=True)
            assert observed[1:] == reference[1:]
            assert [(t, seq) for t, seq, _ in observed[0]] == [
                (t, seq) for t, seq, _ in reference[0]
            ]


def test_cross_on_a_kernel_subclass_goes_through_post_at():
    posts = []

    class Recording(Simulator):
        __slots__ = ()

        def post_at(self, time, callback, *args):
            posts.append(time)
            super().post_at(time, callback, *args)

    sim = Recording()
    link = make_link(sim, traffic=TrafficMeter())
    link.cross(Message(src=0, dst=1, size_bytes=72), print, ())
    assert posts == [72 / 3.2 + 15.0]
