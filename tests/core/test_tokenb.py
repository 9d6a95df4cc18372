"""TokenB performance-protocol policy tests (Section 4.2)."""

import pytest

from repro.config import SystemConfig
from repro.system.builder import build_system

from tests.core.conftest import op, run_ops


@pytest.fixture
def config():
    return SystemConfig(protocol="tokenb", interconnect="torus", n_procs=4)


def test_cold_read_miss_served_by_memory(config):
    streams = {1: [op(0x1000)]}
    system, result = run_ops(config, streams)
    assert result.counters["data_from_memory"] == 1
    assert result.counters.get("data_from_cache", 0) == 0


def test_dirty_miss_served_cache_to_cache(config):
    streams = {
        0: [op(0x1000, write=True)],
        1: [op(0x1000, think=700.0)],
    }
    _, result = run_ops(config, streams)
    assert result.counters["data_from_cache"] == 1


def test_transient_requests_are_broadcast(config):
    streams = {1: [op(0x1000)]}
    system, result = run_ops(config, streams)
    # One transient request crosses the torus multicast tree: N-1 links.
    crossings = system.traffic.crossings_by_category()
    assert crossings["request"] == config.n_procs - 1


def test_request_messages_are_8_bytes(config):
    streams = {1: [op(0x1000)]}
    system, _ = run_ops(config, streams)
    traffic = system.traffic.bytes_by_category()
    crossings = system.traffic.crossings_by_category()
    assert traffic["request"] / crossings["request"] == 8


def test_data_messages_are_72_bytes(config):
    streams = {1: [op(0x1000)]}
    system, _ = run_ops(config, streams)
    traffic = system.traffic.bytes_by_category()
    crossings = system.traffic.crossings_by_category()
    assert traffic["data"] / crossings["data"] == 72


def test_s_state_responds_datalessly_to_getm(config):
    # P0 and P1 read (each holds one token); P2 then writes.  The S
    # holders must send dataless token messages (8 bytes), "like an
    # invalidation acknowledgment".
    streams = {
        0: [op(0x2000)],
        1: [op(0x2000)],
        2: [op(0x2000, write=True, think=900.0)],
    }
    system, _ = run_ops(config, streams)
    traffic = system.traffic.bytes_by_category()
    assert traffic.get("token", 0) > 0
    crossings = system.traffic.crossings_by_category()
    assert traffic["token"] / crossings["token"] == 8


def test_upgrade_from_shared_collects_all_tokens(config):
    streams = {
        0: [op(0x2000), op(0x2000, write=True, dep=True, think=5.0)],
        1: [op(0x2000)],
    }
    system, result = run_ops(config, streams)
    assert result.total_ops == 3
    block = 0x2000 // 64
    line = system.nodes[0].l2.peek(block)
    assert line is not None and line.tokens == config.total_tokens


def test_racing_writers_both_complete(config):
    streams = {
        0: [op(0x2000, write=True)],
        1: [op(0x2000, write=True)],
        2: [op(0x2000, write=True)],
        3: [op(0x2000, write=True)],
    }
    system, result = run_ops(config, streams)
    assert result.total_ops == 4
    assert system.checker.current_version(0x2000 // 64) == 4
    system.ledger.audit_all_touched()


def test_reissue_classification_buckets_sum_to_total(config):
    streams = {
        p: [op(0x3000 + 64 * (i % 4), write=True, think=5.0) for i in range(20)]
        for p in range(4)
    }
    _, result = run_ops(config, streams)
    classes = result.miss_classification()
    assert sum(classes.values()) == pytest.approx(1.0)


def test_miss_latency_ewma_updates(config):
    streams = {1: [op(0x1000), op(0x5000, think=10.0)]}
    system, _ = run_ops(config, streams)
    assert system.nodes[1].miss_latency.count == 2


def test_tokenb_torus_and_tree_produce_identical_final_versions():
    """Interconnect changes timing, never outcomes (same op streams)."""
    streams = {
        p: [op(0x2000 + 64 * (i % 3), write=(p + i) % 2 == 0, think=15.0)
            for i in range(12)]
        for p in range(4)
    }
    finals = []
    for interconnect in ("torus", "tree"):
        config = SystemConfig(
            protocol="tokenb", interconnect=interconnect, n_procs=4
        )
        system, result = run_ops(config, streams)
        assert result.total_ops == 48
        finals.append(
            tuple(
                system.checker.current_version(0x2000 // 64 + i)
                for i in range(3)
            )
        )
    assert finals[0] == finals[1]


def test_deterministic_repeat_runs(config):
    streams = {
        p: [op(0x2000 + 64 * (i % 3), write=(p + i) % 3 == 0, think=8.0)
            for i in range(15)]
        for p in range(4)
    }
    results = [run_ops(config, streams)[1] for _ in range(2)]
    assert results[0].runtime_ns == results[1].runtime_ns
    assert results[0].traffic_bytes == results[1].traffic_bytes
    assert results[0].counters == results[1].counters
