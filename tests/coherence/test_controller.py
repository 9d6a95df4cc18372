"""Tests for the protocol-node base class plumbing."""

import functools

import pytest

from repro.config import SystemConfig
from repro.coherence.controller import ProtocolError
from repro.coherence.messages import CoherenceMessage
from repro.core.substrate import TokenNodeBase
from repro.processor.sequencer import MemoryOp
from repro.protocols.mosi import BlockingHomeNode
from repro.system.builder import build_system
from repro.system.grid import ALL_PROTOCOLS, interconnect_for
from repro.workloads.adversarial import false_sharing_streams


def make_system(**overrides):
    defaults = dict(
        protocol="tokenb",
        interconnect="torus",
        n_procs=4,
        l2_bytes=8 * 64,
        l2_assoc=2,
    )
    defaults.update(overrides)
    return build_system(SystemConfig(**defaults), {})


def test_home_interleaving():
    """Memory is block-interleaved: block b's home is node b mod n, and
    exactly that node answers ``is_home``."""
    system = make_system(n_procs=16)
    node = system.nodes[3]
    homes = [node.home_of(block) for block in range(32)]
    assert homes[:16] == list(range(16))
    assert homes[16:] == list(range(16))
    for block in range(32):
        assert [n.node_id for n in system.nodes if n.is_home(block)] == [
            block % 16
        ]


def test_probe_miss_returns_none():
    system = make_system()
    assert system.nodes[0].probe(5, for_write=False) is None
    assert system.nodes[0].probe(5, for_write=True) is None


def test_perform_store_without_permission_raises():
    system = make_system()
    with pytest.raises(ProtocolError):
        system.nodes[0].perform_store(5)


def test_home_mapping_interleaves():
    system = make_system()
    node = system.nodes[0]
    assert node.home_of(0) == 0
    assert node.home_of(1) == 1
    assert node.home_of(5) == 1
    assert node.is_home(4)
    assert not node.is_home(5)


def test_start_miss_coalesces_same_block():
    system = make_system()
    node = system.nodes[0]
    seen = []
    node.start_miss(5, False, seen.append)
    node.start_miss(5, False, seen.append)
    assert len(node.mshrs) == 1
    entry = node.mshrs.get(5)
    assert len(entry.waiters) == 2
    system.sim.run(max_events=100_000)
    assert len(seen) == 2


def test_miss_counters_track_kind():
    system = make_system()
    node = system.nodes[1]
    node.start_miss(5, False, lambda v: None)
    node.start_miss(6, True, lambda v: None)
    assert system.counters.get("l2_miss") == 2
    assert system.counters.get("miss_load") == 1
    assert system.counters.get("miss_store") == 1
    system.sim.run(max_events=100_000)


def test_lose_block_hook_fires_on_invalidation():
    config = SystemConfig(protocol="tokenb", interconnect="torus", n_procs=4)
    streams = {
        0: [MemoryOp(0x1000, False)],
        1: [MemoryOp(0x1000, True, think_ns=600.0)],
    }
    system = build_system(config, streams)
    lost = []
    system.nodes[0].set_lose_block_hook(lost.append)
    system.run()
    assert 0x1000 // 64 in lost


def test_local_send_skips_network():
    system = make_system()
    node = system.nodes[2]
    before = system.traffic.total_bytes()
    msg = node.make_control(dst=2, mtype="GETS", block=5, requester=2)
    node.send_msg(msg)
    assert system.traffic.total_bytes() == before


# ----------------------------------------------------------------------
# The one message dispatch: a handler table bound per node
# ----------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_unknown_message_type_names_the_class(protocol):
    system = make_system(
        protocol=protocol, interconnect=interconnect_for(protocol)
    )
    node = system.nodes[0]
    assert node._handlers.keys() == node.handlers.keys()
    msg = CoherenceMessage(src=1, dst=0, mtype="BOGUS", block=5)
    with pytest.raises(
        ProtocolError,
        match=rf"^{type(node).__name__} got unknown mtype 'BOGUS'$",
    ):
        node.handle_message(msg)


@pytest.mark.parametrize("protocol,owner,name,mtypes", [
    ("tokenb", TokenNodeBase, "_handle_tokens", {"TOKEN_DATA", "TOKEN_ONLY"}),
    ("directory", BlockingHomeNode, "_handle_ack", {"ACK"}),
])
def test_a_class_wrap_made_before_the_build_is_what_the_table_calls(
    monkeypatch, protocol, owner, name, mtypes
):
    """Wrapped the way the benchmark's span tracer wraps a layer: on the
    class that defines the method, before the system is built."""
    original = owner.__dict__[name]
    seen = []

    @functools.wraps(original)
    def wrapped(self, msg):
        seen.append(msg.mtype)
        original(self, msg)

    monkeypatch.setattr(owner, name, wrapped)
    config = SystemConfig(protocol=protocol, interconnect="torus", n_procs=4)
    system = build_system(config, false_sharing_streams(0, 4, 24))
    for node in system.nodes:
        for mtype in mtypes:
            assert node._handlers[mtype].__func__ is wrapped
    assert system.run().total_ops == 4 * 24
    assert seen and set(seen) <= mtypes
