"""Sequencer tests: issue timing, L1 filtering, MLP, dependencies."""

import pytest

from repro.config import SystemConfig
from repro.processor.sequencer import MemoryOp
from repro.system.builder import build_system


def make_system(streams, **overrides):
    defaults = dict(protocol="tokenb", interconnect="torus", n_procs=4)
    defaults.update(overrides)
    config = SystemConfig(**defaults)
    return build_system(config, streams)


def test_l1_hit_costs_l1_latency_only():
    # Two loads of the same block, spaced so the first completes
    # before the second dispatches: the second is an L1 hit.
    streams = {
        0: [
            MemoryOp(0x1000, False),
            MemoryOp(0x1000, False, depends_on_prev=True),
        ]
    }
    system = make_system(streams)
    result = system.run()
    seq = system.sequencers[0]
    assert seq.l1_hits == 1
    assert seq.misses == 1
    del result


def test_block_of_uses_block_size():
    # Byte addresses 0, 63 and 64 in sequence: with 64-byte blocks the
    # second load hits the first's block in the L1 and the third misses
    # into the next block; with 128-byte blocks all three share block 0.
    streams = {0: [
        MemoryOp(0, False),
        MemoryOp(63, False, depends_on_prev=True),
        MemoryOp(64, False, depends_on_prev=True),
    ]}
    for block_bytes, misses in ((64, 2), (128, 1)):
        system = make_system(streams, block_bytes=block_bytes)
        system.run()
        seq = system.sequencers[0]
        assert (seq.misses, seq.l1_hits) == (misses, 3 - misses)


def test_offset_bits():
    # The sequencer drops log2(block_bytes) offset bits, so byte
    # 100 * B + 5 lands in block 100 for 64- and 128-byte blocks alike.
    for block_bytes in (64, 128):
        streams = {0: [MemoryOp(100 * block_bytes + 5, False)]}
        system = make_system(streams, block_bytes=block_bytes)
        system.run()
        l1 = system.sequencers[0].l1
        assert l1.contains(100)
        assert not l1.contains(50) and not l1.contains(200)


def test_feed_refuses_a_sequencer_with_work_in_flight():
    # A raise, not an assert: under ``python -O`` the replaced stream
    # would silently drop every op not yet fetched.
    streams = {0: [MemoryOp(0x1000 + 64 * i, False) for i in range(50)]}
    system = make_system(streams)
    system.start()
    seq = system.sequencers[0]
    while seq.outstanding == 0 and system.sim.step():
        pass
    assert seq.outstanding > 0
    with pytest.raises(RuntimeError, match="requires a drained sequencer"):
        seq.feed(iter([]))
    system.drain()
    assert seq.completed_ops == 50


def test_l2_hit_after_l1_eviction():
    # Fill L1 (8 lines in the test config below) past capacity, then
    # re-touch the first block: L1 miss, L2 hit.
    config_streams = {
        0: [MemoryOp(0x0 + 64 * i, False, think_ns=5.0) for i in range(10)]
        + [MemoryOp(0x0, False, think_ns=5.0, depends_on_prev=True)]
    }
    system = make_system(config_streams, l1_bytes=8 * 64, l1_assoc=2)
    system.run()
    seq = system.sequencers[0]
    assert seq.l2_hits >= 1


def test_dependent_op_waits_for_pipeline_drain():
    streams = {
        0: [
            MemoryOp(0x1000, False),
            MemoryOp(0x2000, True, depends_on_prev=True),
        ]
    }
    system = make_system(streams)
    system.run()
    assert system.sequencers[0].completed_ops == 2


def test_outstanding_misses_bounded():
    max_out = 2
    streams = {
        0: [MemoryOp(0x1000 + 64 * i, False) for i in range(10)]
    }
    system = make_system(streams, max_outstanding_misses=max_out)
    peak = 0

    def watch():
        nonlocal peak
        peak = max(peak, system.sequencers[0].outstanding)
        if system.sim.pending_events:
            system.sim.schedule(1.0, watch)

    system.sim.schedule(0.0, watch)
    system.run()
    assert peak <= max_out


def test_think_time_spaces_dispatches():
    streams = {0: [MemoryOp(0x1000, False, think_ns=500.0)]}
    system = make_system(streams)
    result = system.run()
    assert result.runtime_ns >= 500.0


def test_store_to_owned_line_is_a_hit():
    streams = {
        0: [
            MemoryOp(0x1000, True),
            MemoryOp(0x1000, True, think_ns=5.0, depends_on_prev=True),
            MemoryOp(0x1000, False, think_ns=5.0, depends_on_prev=True),
        ]
    }
    system = make_system(streams)
    system.run()
    seq = system.sequencers[0]
    assert seq.misses == 1
    block = 0x1000 // 64
    assert system.checker.current_version(block) == 2


def test_loads_validate_against_checker():
    streams = {
        0: [MemoryOp(0x1000, True)],
        1: [MemoryOp(0x1000, False, think_ns=600.0)],
    }
    system = make_system(streams)
    system.run()
    assert system.checker.loads_checked == 1
    assert system.checker.stores_checked == 1


def test_finish_time_recorded_per_processor():
    streams = {0: [MemoryOp(0x1000, False)], 1: []}
    system = make_system(streams)
    system.run()
    assert system.sequencers[0].finish_time > 0.0
    assert system.sequencers[1].finish_time == 0.0
    assert all(s.done for s in system.sequencers)


def test_empty_stream_finishes_immediately():
    system = make_system({})
    result = system.run()
    assert result.total_ops == 0
    assert result.runtime_ns == 0.0
