"""Adversarial workloads for the schedule explorer.

Where the synthetic commercial workloads model *realistic* sharing, these
generators maximize the race windows the correctness substrate has to
survive:

``false_sharing``
    Every processor hammers a different byte offset of the *same* small
    set of blocks with read-modify-writes.  Program-level accesses never
    conflict, but at block granularity every op contends — the classic
    worst case for an invalidation protocol's write-permission churn.
``eviction_storm``
    Addresses stride exactly one L2 set apart, so with the explorer's
    tiny caches every set overflows constantly: tokens and dirty data
    are perpetually in flight between caches and memory, keeping the
    writeback/redirect windows open as wide as possible.
``arbiter_contention``
    All processors read-modify-write a handful of blocks that are all
    homed at node 0, funnelling every starvation escalation through a
    single persistent-request arbiter — maximum pressure on the
    activation/deactivation handshake and its FIFO queue.

All generators are pure functions of ``(seed, n_procs, ops_per_proc)``
(plus geometry defaults matching the explorer's small-cache config), so
scenarios replay bit-identically from a repro file.
"""

from __future__ import annotations

from repro.processor.sequencer import MemoryOp
from repro.sim.rng import derive_rng

#: Base block numbers start here so block 0 never aliases a pool.
_BASE_BLOCK = 0x200


def false_sharing_streams(
    seed: int,
    n_procs: int,
    ops_per_proc: int,
    block_bytes: int = 64,
    n_blocks: int = 4,
) -> dict[int, list[MemoryOp]]:
    """Per-processor offsets within one shared pool of hot blocks.

    Per load/store pair: the block, ``getrandbits`` redrawn until below
    ``n_blocks`` (CPython's ``randrange``), then ``random()`` for the
    load's think time, ``20.0 * draw`` (``uniform(0, 20)``).
    """
    k = n_blocks.bit_length()
    streams: dict[int, list[MemoryOp]] = {}
    for proc in range(n_procs):
        rng = derive_rng(seed, "adversarial", "false_sharing", proc)
        random, getrandbits = rng.random, rng.getrandbits
        offset = proc % block_bytes  # "private" byte inside a shared block
        ops: list[MemoryOp] = []
        for _ in range((ops_per_proc + 1) // 2):
            r = getrandbits(k)
            while r >= n_blocks:
                r = getrandbits(k)
            addr = (_BASE_BLOCK + r) * block_bytes + offset
            # Lock-style RMW on the proc's own byte of the shared block.
            ops.append(MemoryOp(addr, False, 20.0 * random()))
            ops.append(MemoryOp(addr, True, 2.0, True))
        streams[proc] = ops[:ops_per_proc]
    return streams


def eviction_storm_streams(
    seed: int,
    n_procs: int,
    ops_per_proc: int,
    block_bytes: int = 64,
    n_sets: int = 4,
    ways_pressure: int = 12,
) -> dict[int, list[MemoryOp]]:
    """Shared blocks that all collide in a few cache sets.

    ``ways_pressure`` conflicting blocks per set (vs. the explorer's
    4-way L2) guarantees every access is one eviction away from pushing
    someone else's tokens back into flight.

    Per op: the pool index, ``getrandbits`` redrawn until below
    ``ways_pressure`` (CPython's ``choice``), ``random() < 0.5`` for a
    write, then ``random()`` for the think time, ``10.0 * draw``.
    """
    target_set = 1 % n_sets
    pool = [
        (_BASE_BLOCK + target_set + i * n_sets) * block_bytes
        for i in range(ways_pressure)
    ]
    k = ways_pressure.bit_length()
    streams: dict[int, list[MemoryOp]] = {}
    for proc in range(n_procs):
        rng = derive_rng(seed, "adversarial", "eviction_storm", proc)
        random, getrandbits = rng.random, rng.getrandbits
        ops: list[MemoryOp] = []
        for _ in range(ops_per_proc):
            r = getrandbits(k)
            while r >= ways_pressure:
                r = getrandbits(k)
            ops.append(MemoryOp(pool[r], random() < 0.5, 10.0 * random()))
        streams[proc] = ops
    return streams


def writeback_churn_streams(
    seed: int,
    n_procs: int,
    ops_per_proc: int,
    block_bytes: int = 64,
    pool_blocks: int = 32,
) -> dict[int, list[MemoryOp]]:
    """Write-heavy *private* working sets twice the size of the cache.

    No sharing means nobody steals a dirty line before it is evicted, so
    capacity pressure constantly writes back owned data — the pattern
    that keeps writeback/eviction windows (and their drainage oracle)
    honest.  Pools are consecutive blocks, spreading the pressure over
    every cache set: unlike :func:`eviction_storm_streams` this must not
    concentrate unevictable (mid-transaction or persistent-pinned) lines
    in a single set, or capacity itself becomes the bottleneck the
    simulator declares as a misconfiguration.

    Per op: the block, ``getrandbits`` redrawn until below
    ``pool_blocks`` (CPython's ``choice``), ``random() < 0.7`` for a
    write, then ``random()`` for the think time, ``10.0 * draw``.
    """
    k = pool_blocks.bit_length()
    streams: dict[int, list[MemoryOp]] = {}
    for proc in range(n_procs):
        rng = derive_rng(seed, "adversarial", "writeback_churn", proc)
        random, getrandbits = rng.random, rng.getrandbits
        base = _BASE_BLOCK + (proc + 1) * 4096
        ops: list[MemoryOp] = []
        for _ in range(ops_per_proc):
            r = getrandbits(k)
            while r >= pool_blocks:
                r = getrandbits(k)
            ops.append(MemoryOp(
                (base + r) * block_bytes, random() < 0.7, 10.0 * random()
            ))
        streams[proc] = ops
    return streams


def arbiter_contention_streams(
    seed: int,
    n_procs: int,
    ops_per_proc: int,
    block_bytes: int = 64,
    n_blocks: int = 3,
) -> dict[int, list[MemoryOp]]:
    """Write-heavy RMW traffic on blocks all homed at node 0.

    Per load/store pair: the pool index, ``getrandbits`` redrawn until
    below ``n_blocks`` (CPython's ``choice``), then ``random()`` for the
    load's think time, ``8.0 * draw``.
    """
    # Home mapping is block % n_procs: multiples of n_procs live at 0.
    pool = [
        (_BASE_BLOCK * n_procs + i * n_procs) * block_bytes
        for i in range(n_blocks)
    ]
    k = n_blocks.bit_length()
    streams: dict[int, list[MemoryOp]] = {}
    for proc in range(n_procs):
        rng = derive_rng(seed, "adversarial", "arbiter_contention", proc)
        random, getrandbits = rng.random, rng.getrandbits
        ops: list[MemoryOp] = []
        for _ in range((ops_per_proc + 1) // 2):
            r = getrandbits(k)
            while r >= n_blocks:
                r = getrandbits(k)
            addr = pool[r]
            ops.append(MemoryOp(addr, False, 8.0 * random()))
            ops.append(MemoryOp(addr, True, 1.0, True))
        streams[proc] = ops[:ops_per_proc]
    return streams


#: Registry used by the explorer; names appear in scenario/repro files.
ADVERSARIAL_WORKLOADS = {
    "false_sharing": false_sharing_streams,
    "eviction_storm": eviction_storm_streams,
    "writeback_churn": writeback_churn_streams,
    "arbiter_contention": arbiter_contention_streams,
}
