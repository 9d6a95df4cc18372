"""Substrate-level tests: token movement, invariants, state mapping.

These exercise the Figure 3 state transitions through real (small)
systems rather than mocking the network, so every assertion holds under
actual message timing.
"""

import pytest

from repro.config import SystemConfig
from repro.coherence.states import Moesi, state_from_tokens
from repro.system.builder import build_system

from tests.core.conftest import op, run_ops


def line_state(node, block):
    """Map a node's cache line to its MOESI-equivalent state."""
    line = node.l2.peek(block)
    if line is None:
        return Moesi.INVALID
    return state_from_tokens(
        line.tokens, line.owner_token, node.config.total_tokens
    )


def test_initially_memory_holds_all_tokens(small_config):
    system = build_system(small_config, {})
    block = 4  # home = 0
    home = system.nodes[0]
    tokens, owner, valid = home.memory_tokens(block)
    assert tokens == small_config.total_tokens
    assert owner and valid


def test_load_gets_one_token_and_shared_state(small_config):
    streams = {1: [op(0x1000)]}
    system, result = run_ops(small_config, streams)
    block = 0x1000 // 64
    assert line_state(system.nodes[1], block) is Moesi.SHARED
    home = system.nodes[block % 4]
    tokens, owner, valid = home.memory_tokens(block)
    assert tokens == small_config.total_tokens - 1
    assert owner and valid
    assert result.total_misses == 1


def test_store_gathers_all_tokens_modified_state(small_config):
    streams = {1: [op(0x1000, write=True)]}
    system, _ = run_ops(small_config, streams)
    block = 0x1000 // 64
    assert line_state(system.nodes[1], block) is Moesi.MODIFIED
    home = system.nodes[block % 4]
    assert home.memory_tokens(block)[0] == 0


def test_read_then_remote_read_shares_tokens(small_config):
    streams = {
        0: [op(0x2000)],
        2: [op(0x2000, think=500.0)],
    }
    system, _ = run_ops(small_config, streams)
    block = 0x2000 // 64
    assert line_state(system.nodes[0], block) is Moesi.SHARED
    assert line_state(system.nodes[2], block) is Moesi.SHARED


def test_write_invalidates_all_readers(small_config):
    streams = {
        0: [op(0x2000)],
        1: [op(0x2000)],
        2: [op(0x2000, write=True, think=800.0)],
    }
    system, _ = run_ops(small_config, streams)
    block = 0x2000 // 64
    assert line_state(system.nodes[2], block) is Moesi.MODIFIED
    assert line_state(system.nodes[0], block) is Moesi.INVALID
    assert line_state(system.nodes[1], block) is Moesi.INVALID


def test_owner_with_some_tokens_is_owned_state(small_config):
    # Writer takes all tokens (M, dirty); a later reader triggers the
    # migratory optimization... disable it to observe the O state.
    config = small_config.replace(migratory_optimization=False)
    streams = {
        0: [op(0x2000, write=True)],
        1: [op(0x2000, think=800.0)],
    }
    system, _ = run_ops(config, streams)
    block = 0x2000 // 64
    assert line_state(system.nodes[0], block) is Moesi.OWNED
    assert line_state(system.nodes[1], block) is Moesi.SHARED


def test_migratory_optimization_hands_over_all_tokens(small_config):
    assert small_config.migratory_optimization
    streams = {
        0: [op(0x2000, write=True)],
        1: [op(0x2000, think=800.0)],  # read of written (dirty) block
    }
    system, _ = run_ops(small_config, streams)
    block = 0x2000 // 64
    # The dirty M owner responded with data + ALL tokens (Section 4.2).
    assert line_state(system.nodes[1], block) is Moesi.MODIFIED
    assert line_state(system.nodes[0], block) is Moesi.INVALID
    assert system.counters.get("migratory_transfer") == 1


def test_token_conservation_audited_after_run(small_config):
    streams = {
        proc: [op(0x3000 + 64 * i, write=(i + proc) % 2 == 0, think=10.0)
               for i in range(20)]
        for proc in range(4)
    }
    system, _ = run_ops(small_config, streams)
    # The run's own audit covered the touched blocks, then retired them
    # (quiesced blocks drop out of the set so long-lived systems don't
    # rescan all of history on every periodic audit).
    assert system.audited_blocks > 0
    assert system.ledger.touched_blocks == set()


def test_eviction_returns_tokens_to_memory(small_config):
    # 64-line L2, 4-way: 16 sets. Touch 5 blocks mapping to one set.
    base = 0x8000 // 64
    blocks = [base + i * 16 for i in range(5)]
    streams = {0: [op(b * 64, write=True, think=5.0) for b in blocks]}
    system, _ = run_ops(small_config, streams)
    resident = sum(
        1 for b in blocks if system.nodes[0].l2.contains(b)
    )
    assert resident == 4  # one block was evicted
    evicted = [b for b in blocks if not system.nodes[0].l2.contains(b)]
    for b in evicted:
        home = system.nodes[b % 4]
        tokens, owner, valid = home.memory_tokens(b)
        assert tokens == small_config.total_tokens
        assert owner and valid
    system.ledger.audit_all_touched()


def test_valid_bit_cleared_when_tokens_leave(small_config):
    streams = {
        0: [op(0x2000)],
        1: [op(0x2000, write=True, think=600.0)],
    }
    system, _ = run_ops(small_config, streams)
    block = 0x2000 // 64
    # Reader's line dropped entirely when its last token was taken.
    assert system.nodes[0].l2.peek(block) is None


def test_strict_checker_active_for_tokenb(small_config):
    system = build_system(small_config, {})
    assert system.checker.strict


def test_tokens_held_reports_cache_plus_memory(small_config):
    system = build_system(small_config, {})
    block = 8  # home node 0
    tokens, owners = system.nodes[0].tokens_held(block)
    assert (tokens, owners) == (small_config.total_tokens, 1)
    assert system.nodes[1].tokens_held(block) == (0, 0)
