"""Tests for the totally-ordered broadcast tree (Figure 1a)."""

import pytest

from repro.interconnect.message import Message
from repro.interconnect.tree import FANOUT, ORDERED_VNET, OrderedTreeInterconnect
from repro.sim import Simulator


def build_tree(n_nodes=16, bandwidth=None, latency=15.0):
    sim = Simulator()
    tree = OrderedTreeInterconnect(sim, n_nodes, latency, bandwidth)
    inboxes = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        tree.attach(i, lambda msg, i=i: inboxes[i].append(msg))
    return sim, tree, inboxes


def test_sixteen_node_tree_has_nine_switches_worth_of_links():
    _, tree, _ = build_tree(16)
    assert tree.n_groups == 4
    assert FANOUT == 4


def test_unicast_crosses_four_links():
    sim, tree, inboxes = build_tree(16)
    tree.send(Message(src=3, dst=12, vnet="response"))
    sim.run()
    assert len(inboxes[12]) == 1
    # 4 crossings x 15 ns
    assert sim.now == pytest.approx(60.0)
    assert tree.unicast_hops(3, 12) == 4
    assert tree.average_unicast_hops() == pytest.approx(4.0)


def test_broadcast_reaches_all_nodes_including_sender_when_ordered():
    sim, tree, inboxes = build_tree(16)
    tree.broadcast(Message(src=5, dst=-1, vnet=ORDERED_VNET))
    sim.run()
    for node, inbox in inboxes.items():
        assert len(inbox) == 1, f"node {node} missed the broadcast"


def test_unordered_broadcast_can_exclude_sender():
    sim, tree, inboxes = build_tree(16)
    tree.broadcast(Message(src=5, dst=-1, vnet="request"), include_self=False)
    sim.run()
    assert len(inboxes[5]) == 0
    assert all(len(inboxes[i]) == 1 for i in range(16) if i != 5)


def test_total_order_identical_at_every_node():
    """Racing broadcasts from every node arrive in one global order."""
    sim, tree, inboxes = build_tree(16)
    for src in range(16):
        tag = Message(src=src, dst=-1, vnet=ORDERED_VNET)
        sim.schedule(float(src % 3), tree.broadcast, tag)
    sim.run()
    reference = [m.msg_id for m in inboxes[0]]
    assert len(reference) == 16
    for node in range(16):
        assert [m.msg_id for m in inboxes[node]] == reference


def test_ordered_seq_is_dense_and_increasing():
    sim, tree, inboxes = build_tree(8)
    for src in range(8):
        tree.broadcast(Message(src=src, dst=-1, vnet=ORDERED_VNET))
    sim.run()
    seqs = [m.ordered_seq for m in inboxes[3]]
    assert seqs == sorted(seqs)
    assert set(seqs) == set(range(8))


def test_ordered_unicast_rejected():
    sim, tree, _ = build_tree(4)
    with pytest.raises(ValueError):
        tree.send(Message(src=0, dst=1, vnet=ORDERED_VNET))
    del sim


def test_local_unicast_skips_network():
    sim, tree, inboxes = build_tree(8)
    tree.send(Message(src=2, dst=2, vnet="response"))
    sim.run()
    assert len(inboxes[2]) == 1
    assert sim.now == 0.0


def test_broadcast_latency_is_four_crossings():
    sim, tree, inboxes = build_tree(16)
    times = {}
    for i in range(16):
        pass
    tree.broadcast(Message(src=0, dst=-1, vnet=ORDERED_VNET))
    sim.run()
    # All arrivals at 4 x 15 ns with unlimited bandwidth.
    assert sim.now == pytest.approx(60.0)
    del times, inboxes


def test_broadcast_crossings_accounting():
    sim, tree, _ = build_tree(16)
    before = tree.traffic.total_bytes()
    tree.broadcast(Message(src=0, dst=-1, size_bytes=8, vnet=ORDERED_VNET))
    sim.run()
    crossings = tree.broadcast_crossings()
    assert crossings == 2 + 4 + 16
    assert tree.traffic.total_bytes() - before == 8 * crossings


def test_non_multiple_of_fanout_node_count():
    sim, tree, inboxes = build_tree(6)
    tree.broadcast(Message(src=0, dst=-1, vnet=ORDERED_VNET))
    sim.run()
    assert all(len(inboxes[i]) == 1 for i in range(6))


def test_delivery_to_an_unattached_node_names_it():
    sim = Simulator()
    tree = OrderedTreeInterconnect(sim, 16, 15.0, 3.2)
    for i in range(16):
        if i != 9:
            tree.attach(i, lambda msg: None)
    tree.send(Message(src=0, dst=9, vnet="response"))
    with pytest.raises(RuntimeError, match="no handler attached to node 9"):
        sim.run()
    for vnet in ("request", ORDERED_VNET):
        tree.broadcast(Message(src=0, dst=-1, vnet=vnet))
        with pytest.raises(RuntimeError, match="no handler attached to node 9"):
            sim.run()
