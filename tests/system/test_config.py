"""Table 1 defaults and configuration validation."""

import pytest

from repro.config import SystemConfig


def test_defaults_match_table1():
    config = SystemConfig()
    assert config.n_procs == 16
    assert config.l1_bytes == 128 * 1024
    assert config.l1_assoc == 4
    assert config.l1_latency_ns == 2.0
    assert config.l2_bytes == 4 * 1024 * 1024
    assert config.l2_assoc == 4
    assert config.l2_latency_ns == 6.0
    assert config.block_bytes == 64
    assert config.dram_latency_ns == 80.0
    assert config.controller_latency_ns == 6.0
    assert config.link_bandwidth_bytes_per_ns == pytest.approx(3.2)
    assert config.link_latency_ns == 15.0


def test_snooping_requires_tree():
    with pytest.raises(ValueError, match="total"):
        SystemConfig(protocol="snooping", interconnect="torus")
    SystemConfig(protocol="snooping", interconnect="tree")  # fine


def test_tokens_default_to_processor_count():
    assert SystemConfig(n_procs=16).total_tokens == 16
    assert SystemConfig(n_procs=16, tokens_per_block=64).total_tokens == 64


def test_tokens_below_processor_count_rejected():
    # T must be at least the number of processors (Section 3.1).
    with pytest.raises(ValueError):
        SystemConfig(n_procs=16, tokens_per_block=8)


def test_block_bytes_must_be_power_of_two():
    # The sequencer maps an address to its block with a shift.
    for block_bytes in (0, 48, 60):
        with pytest.raises(ValueError, match="power of two"):
            SystemConfig(block_bytes=block_bytes)
    assert SystemConfig(block_bytes=128).block_bytes == 128


def test_negative_dram_latency_rejected():
    with pytest.raises(ValueError, match="dram_latency_ns"):
        SystemConfig(dram_latency_ns=-1.0)
    assert SystemConfig(dram_latency_ns=0.0).dram_latency_ns == 0.0


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        SystemConfig(protocol="mesi")


def test_unknown_interconnect_rejected():
    with pytest.raises(ValueError):
        SystemConfig(interconnect="bus")


def test_replace_returns_modified_copy():
    base = SystemConfig()
    variant = base.replace(link_bandwidth_bytes_per_ns=None)
    assert variant.link_bandwidth_bytes_per_ns is None
    assert base.link_bandwidth_bytes_per_ns == pytest.approx(3.2)


def test_token_storage_overhead_matches_paper():
    """Section 3.1: 64 tokens on a 64-byte block costs one byte (1.6%)."""
    config = SystemConfig(n_procs=16, tokens_per_block=64)
    bits = config.token_state_bits()
    assert bits <= 9  # valid + owner + 7 count bits fits in ~one byte
    overhead = (bits / 8) / config.block_bytes
    assert overhead < 0.02


def test_minimum_processors():
    with pytest.raises(ValueError):
        SystemConfig(n_procs=1)
