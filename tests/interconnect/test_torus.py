"""Tests for the unordered 2-D torus (Figure 1b)."""

import pytest

from repro.interconnect.message import Message
from repro.interconnect.torus import TorusInterconnect, torus_dims
from repro.sim import Simulator


def build_torus(n_nodes=16, bandwidth=None, latency=15.0):
    sim = Simulator()
    torus = TorusInterconnect(sim, n_nodes, latency, bandwidth)
    inboxes = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        torus.attach(i, lambda msg, i=i: inboxes[i].append(msg))
    return sim, torus, inboxes


def test_dims_factorization():
    assert torus_dims(16) == (4, 4)
    assert torus_dims(64) == (8, 8)
    assert torus_dims(8) == (2, 4)
    assert torus_dims(32) == (4, 8)


def test_wraparound_neighbours():
    _, torus, _ = build_torus(16)
    # Node 3 is at (3, 0) in a 4x4: x+ wraps to (0, 0) = node 0.
    assert torus.neighbour(3, "x+") == 0
    assert torus.neighbour(0, "x-") == 3
    assert torus.neighbour(0, "y-") == 12
    assert torus.neighbour(12, "y+") == 0


def test_dimension_ordered_route_takes_shorter_wrap():
    _, torus, _ = build_torus(16)
    # (0,0) -> (3,0): one hop west via wraparound, not three east.
    assert torus.route(0, 3) == ["x-"]
    # (0,0) -> (2,0): distance two either way; tie goes positive.
    assert torus.route(0, 2) == ["x+", "x+"]
    # X is routed before Y.
    assert torus.route(0, 5) == ["x+", "y+"]


def test_average_unicast_hops_is_two_for_4x4():
    """Figure 1b: the 4x4 torus averages two link crossings."""
    _, torus, _ = build_torus(16)
    assert torus.average_unicast_hops() == pytest.approx(2.0)


def test_unicast_delivery_and_latency():
    sim, torus, inboxes = build_torus(16)
    torus.send(Message(src=0, dst=10, vnet="request"))
    sim.run()
    assert len(inboxes[10]) == 1
    hops = torus.unicast_hops(0, 10)
    assert sim.now == pytest.approx(hops * 15.0)


def test_local_unicast_is_free():
    sim, torus, inboxes = build_torus(16)
    torus.send(Message(src=7, dst=7))
    sim.run()
    assert len(inboxes[7]) == 1
    assert sim.now == 0.0


def test_broadcast_reaches_everyone_except_self():
    sim, torus, inboxes = build_torus(16)
    torus.broadcast(Message(src=6, dst=-1), include_self=False)
    sim.run()
    assert len(inboxes[6]) == 0
    assert all(len(inboxes[i]) == 1 for i in range(16) if i != 6)


def test_broadcast_include_self():
    sim, torus, inboxes = build_torus(16)
    torus.broadcast(Message(src=6, dst=-1), include_self=True)
    sim.run()
    assert all(len(inboxes[i]) == 1 for i in range(16))


def test_broadcast_uses_spanning_tree_crossings():
    sim, torus, _ = build_torus(16)
    before = torus.traffic.total_bytes()
    torus.broadcast(Message(src=0, dst=-1, size_bytes=8))
    sim.run()
    # N-1 spanning-tree links, each crossed once.
    assert torus.traffic.total_bytes() - before == 8 * 15
    assert torus.broadcast_crossings() == 15


def test_broadcast_arrival_latency_bounded_by_tree_depth():
    sim, torus, inboxes = build_torus(16)
    arrival_times = {}

    def record(msg, node):
        arrival_times[node] = sim.now

    for i in range(16):
        torus._handlers[i] = lambda msg, i=i: record(msg, i)
    torus.broadcast(Message(src=0, dst=-1))
    sim.run()
    # Max distance on a 4x4 torus is 2+2 = 4 hops.
    assert max(arrival_times.values()) == pytest.approx(4 * 15.0)
    # The nearest neighbours hear it after one hop.
    assert min(arrival_times.values()) == pytest.approx(15.0)
    del inboxes


def test_torus_does_not_provide_total_order():
    """Two broadcasts can be observed in different orders by different
    nodes — the property that breaks traditional snooping (Section 2)."""
    sim, torus, inboxes = build_torus(16)
    a = Message(src=0, dst=-1)
    b = Message(src=15, dst=-1)
    torus.broadcast(a)
    torus.broadcast(b)
    sim.run()
    order_near_0 = [m.msg_id for m in inboxes[1]]
    order_near_15 = [m.msg_id for m in inboxes[14]]
    assert set(order_near_0) == {a.msg_id, b.msg_id}
    assert order_near_0 != order_near_15
    assert not torus.provides_total_order


def test_bandwidth_contention_on_shared_link():
    sim, torus, inboxes = build_torus(16, bandwidth=3.2)
    # Two data messages from 0 to 1 share the single x+ link at node 0.
    arrivals = []
    torus._handlers[1] = lambda msg: arrivals.append(sim.now)
    torus.send(Message(src=0, dst=1, size_bytes=72, category="data"))
    torus.send(Message(src=0, dst=1, size_bytes=72, category="data"))
    sim.run()
    assert arrivals[0] == pytest.approx(22.5 + 15.0)
    assert arrivals[1] == pytest.approx(45.0 + 15.0)
    del inboxes


@pytest.mark.parametrize("bandwidth", [3.2, None])
def test_delivery_to_an_unattached_node_names_it(bandwidth):
    sim = Simulator()
    torus = TorusInterconnect(sim, 16, 15.0, bandwidth)
    for i in range(16):
        if i != 5:
            torus.attach(i, lambda msg: None)
    torus.send(Message(src=0, dst=5))
    with pytest.raises(RuntimeError, match="no handler attached to node 5"):
        sim.run()
    torus.broadcast(Message(src=0, dst=-1))
    with pytest.raises(RuntimeError, match="no handler attached to node 5"):
        sim.run()
    torus.attach(5, lambda msg: None)
    with pytest.raises(ValueError, match="already attached"):
        torus.attach(5, lambda msg: None)
