"""Tests for coherence message construction (Section 5.1 sizes)."""

import pytest

from repro.coherence.messages import CoherenceMessage
from repro.config import SystemConfig
from repro.system.builder import build_system


@pytest.fixture
def node():
    config = SystemConfig(protocol="directory", interconnect="torus", n_procs=4)
    return build_system(config, {}).nodes[0]


def test_control_message_is_8_bytes(node):
    msg = node.make_control(dst=1, mtype="GETS", block=5)
    assert msg.size_bytes == 8
    assert msg.src == 0
    assert not msg.carries_data()


def test_data_message_is_72_bytes(node):
    msg = node.make_data(dst=1, mtype="DATA", block=5, data_version=3)
    assert msg.size_bytes == 72
    assert msg.carries_data()


def test_data_message_requires_version(node):
    with pytest.raises(ValueError):
        node.make_data(dst=1, mtype="DATA", block=5)


def test_message_ids_unique(node):
    a = node.make_control(dst=1)
    b = node.make_control(dst=1)
    assert a.msg_id != b.msg_id


def test_defaults():
    msg = CoherenceMessage(src=2, dst=3)
    assert msg.tokens == 0
    assert not msg.owner_token
    assert msg.acks_expected == 0
    assert msg.tx == 0
    assert msg.requester == -1
