"""Behavioural tests run identically against all three baselines."""

from tests.protocols.conftest import make_config, op, run_ops


def test_cold_read_from_memory(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {1: [op(0x1000)]}
    system, result = run_ops(config, streams)
    assert result.total_ops == 1
    assert result.counters["data_from_memory"] == 1
    line = system.nodes[1].l2.peek(0x1000 // 64)
    assert line is not None and line.state == "S"


def test_store_makes_modified(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {1: [op(0x1000, write=True)]}
    system, result = run_ops(config, streams)
    line = system.nodes[1].l2.peek(0x1000 // 64)
    assert line is not None and line.state == "M"
    assert system.checker.current_version(0x1000 // 64) == 1


def test_dirty_miss_is_cache_to_cache(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {
        0: [op(0x2000, write=True)],
        1: [op(0x2000, think=900.0)],
    }
    _, result = run_ops(config, streams)
    assert result.counters["data_from_cache"] == 1


def test_write_invalidates_readers(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {
        0: [op(0x2000)],
        1: [op(0x2000)],
        2: [op(0x2000, write=True, think=1200.0)],
    }
    system, _ = run_ops(config, streams)
    block = 0x2000 // 64
    writer = system.nodes[2].l2.peek(block)
    assert writer is not None and writer.state == "M"
    for reader in (0, 1):
        line = system.nodes[reader].l2.peek(block)
        assert line is None or line.state == "I"


def test_racing_writers_serialize(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {p: [op(0x2000, write=True)] for p in range(4)}
    system, result = run_ops(config, streams)
    assert result.total_ops == 4
    assert system.checker.current_version(0x2000 // 64) == 4


def test_read_modify_write_contention(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {
        p: [op(0x2000), op(0x2000, write=True, dep=True)] * 4
        for p in range(4)
    }
    system, result = run_ops(config, streams)
    assert result.total_ops == 32
    assert system.checker.current_version(0x2000 // 64) == 16


def test_eviction_writes_back_dirty_data(baseline_protocol):
    config = make_config(baseline_protocol)
    # 16 sets: five same-set blocks force one eviction.
    base = 0x8000 // 64
    blocks = [base + 16 * i for i in range(5)]
    streams = {0: [op(b * 64, write=True, think=5.0) for b in blocks]}
    system, result = run_ops(config, streams)
    evicted = [b for b in blocks if not system.nodes[0].l2.contains(b)]
    assert len(evicted) == 1
    # The writeback must be re-readable with the stored value.
    streams2 = {1: [op(evicted[0] * 64)]}
    # (fresh run: rebuild with both phases in one stream instead)
    combined = {
        0: [op(b * 64, write=True, think=5.0) for b in blocks],
        1: [op(evicted[0] * 64, think=2000.0)],
    }
    system, result = run_ops(config, combined)
    assert result.total_ops == 6
    del streams2


def test_upgrade_from_shared(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {
        0: [op(0x2000)],
        1: [op(0x2000)],
        # After both have read, P0 writes (upgrade).
        0: [op(0x2000), op(0x2000, write=True, dep=True, think=500.0)],
    }
    system, result = run_ops(config, streams)
    assert result.total_ops == result.counters.get("l2_miss", 0) + (
        result.total_ops - result.counters.get("l2_miss", 0)
    )  # sanity: completed
    line = system.nodes[0].l2.peek(0x2000 // 64)
    assert line is not None and line.state == "M"


def test_writeback_buffer_empty_after_run(baseline_protocol):
    config = make_config(baseline_protocol)
    base = 0x8000 // 64
    blocks = [base + 16 * i for i in range(6)]
    streams = {
        p: [op(b * 64, write=True, think=7.0) for b in blocks]
        for p in range(2)
    }
    system, _ = run_ops(config, streams)
    for node in system.nodes:
        assert not node.writeback_buffer


def test_deterministic_runs(baseline_protocol):
    config = make_config(baseline_protocol)
    streams = {
        p: [op(0x2000 + 64 * (i % 3), write=(p + i) % 2 == 0, think=9.0)
            for i in range(12)]
        for p in range(4)
    }
    a = run_ops(config, streams)[1]
    b = run_ops(config, streams)[1]
    assert a.runtime_ns == b.runtime_ns
    assert a.traffic_bytes == b.traffic_bytes


def test_migratory_optimization_reduces_transactions(baseline_protocol):
    # Two processors ping-pong read-modify-writes on one block, far
    # enough apart that nothing coalesces.  After the first round each
    # handoff costs GETS + upgrade without the optimization; with the
    # predictor the load requests exclusive permission up front, so the
    # handoff is a single transaction.
    def rmw(start):
        return [op(0x2000, think=start), op(0x2000, write=True, dep=True)]

    streams = {
        0: rmw(100.0) + rmw(1900.0) + rmw(1900.0),
        1: rmw(1100.0) + rmw(1900.0) + rmw(1900.0),
    }
    with_opt = run_ops(make_config(baseline_protocol), streams)[1]
    without_opt = run_ops(
        make_config(baseline_protocol, migratory_optimization=False), streams
    )[1]
    assert with_opt.total_misses < without_opt.total_misses
