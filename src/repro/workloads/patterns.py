"""Structured sharing patterns beyond the five category mixes.

:class:`~repro.workloads.synthetic.WorkloadSpec` describes a workload as
a *stationary* mix over access categories; real phases of commercial
workloads are anything but stationary.  A :class:`PatternSpec` describes
one structured, time-varying sharing pattern instead:

``barrier_all_touch``
    Barrier-style rounds: every round, every processor walks the entire
    shared pool (rotated by its own id so walks do not run in lockstep)
    while one rotating processor writes — the all-read/one-write sweep
    of a barrier-synchronized update phase.
``rotating_hotspot``
    A small hot group of blocks that every processor hammers, with the
    hot group rotating through the pool every ``rotation_period``
    operations — contention that *moves*, defeating any predictor or
    policy tuned to a fixed hot set.
``false_sharing_stride``
    Each processor read-modify-writes its own byte offset of blocks
    walked with a fixed stride through a shared region: accesses never
    conflict at program granularity, always conflict at block
    granularity, and the stride keeps the conflict surface sliding.
``producer_group_handoff``
    Processors partitioned into groups of ``group_size``; each group
    owns a slice of the pool, and the producer role hands off around
    the group every ``rotation_period`` operations — the
    producer-consumer pipeline rotation of work-stealing runtimes.

Every generator is a pure function of ``(spec, proc, n_procs, seed)``
(plus an optional RNG ``salt``), yields exactly ``spec.ops_per_proc``
operations, and never materializes a list — a
:class:`~repro.workloads.programs.WorkloadProgram` chains them lazily.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.processor.sequencer import MemoryOp
from repro.sim.rng import derive_rng
from repro.workloads.synthetic import _region_base

#: Pattern pools live in their own address region (synthetic mixes use
#: regions 0-4), so a program may interleave pattern and mix phases
#: without the pools aliasing.
_PATTERN_REGION = 5

PATTERN_KINDS = (
    "barrier_all_touch",
    "rotating_hotspot",
    "false_sharing_stride",
    "producer_group_handoff",
)


@dataclasses.dataclass
class PatternSpec:
    """One structured sharing pattern, sized in ops per processor."""

    name: str
    kind: str
    ops_per_proc: int = 1000
    #: Shared pool size (blocks) the pattern plays out over.
    n_blocks: int = 32
    #: ``rotating_hotspot``: blocks in the currently-hot group.
    hot_blocks: int = 4
    #: ``false_sharing_stride``: blocks stepped per operation pair.
    stride_blocks: int = 3
    #: ``producer_group_handoff``: processors per handoff group.
    group_size: int = 4
    #: Ops between hotspot rotations / producer handoffs.
    rotation_period: int = 32
    #: Write probability where the pattern leaves the choice free.
    write_prob: float = 0.5
    think_min_ns: float = 2.0
    think_max_ns: float = 20.0

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_KINDS:
            raise ValueError(
                f"kind must be one of {PATTERN_KINDS}, got {self.kind!r}"
            )
        if self.ops_per_proc < 1:
            raise ValueError("ops_per_proc must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.hot_blocks < 1 or self.hot_blocks > self.n_blocks:
            raise ValueError("need 1 <= hot_blocks <= n_blocks")
        if self.stride_blocks < 1:
            raise ValueError("stride_blocks must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.rotation_period < 1:
            raise ValueError("rotation_period must be >= 1")
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError("write_prob must be in [0, 1]")
        if not 0.0 <= self.think_min_ns <= self.think_max_ns:
            raise ValueError("need 0 <= think_min_ns <= think_max_ns")

    def scaled(self, ops_per_proc: int) -> "PatternSpec":
        """Copy of this pattern with a different stream length."""
        return dataclasses.replace(self, ops_per_proc=ops_per_proc)


def pattern_ops(
    spec: PatternSpec,
    proc: int,
    n_procs: int,
    seed: int,
    block_bytes: int = 64,
    salt: tuple = (),
) -> Iterator[MemoryOp]:
    """Yield processor ``proc``'s stream for one pattern, lazily.

    Each op draws from the stream's ``random.Random``, in this order
    (the contract ``tests/golden/streams_golden.json`` pins):

    1. ``rotating_hotspot`` and ``producer_group_handoff``: the block's
       offset in its hot group or slice, ``r = getrandbits(k)`` with
       ``k`` the group or slice size's bit length, redrawn while ``r``
       is not below the size (CPython's ``randrange``);
    2. ``rotating_hotspot``: ``random()`` against ``write_prob``;
    3. ``random()`` for the think time, ``min + (max - min) * draw``
       (``uniform``'s arithmetic).  The dependent store of a
       ``false_sharing_stride`` pair thinks 2 ns and draws nothing.
    """
    rng = derive_rng(
        seed, "pattern", spec.kind, spec.name, n_procs, proc, *salt
    )
    random, getrandbits = rng.random, rng.getrandbits
    base = _region_base(_PATTERN_REGION)
    lo = spec.think_min_ns
    span = spec.think_max_ns - lo
    n_ops = spec.ops_per_proc
    n_blocks = spec.n_blocks
    period = spec.rotation_period
    if spec.kind == "barrier_all_touch":
        for i in range(n_ops):
            block = base + (proc + i % n_blocks) % n_blocks
            writer = (i // n_blocks) % n_procs == proc
            yield MemoryOp(block * block_bytes, writer, lo + span * random())
    elif spec.kind == "rotating_hotspot":
        n_groups = max(1, n_blocks // spec.hot_blocks)
        size = spec.hot_blocks
        k = size.bit_length()
        write_prob = spec.write_prob
        for i in range(n_ops):
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            group = (i // period) % n_groups
            block = base + group * size + r
            yield MemoryOp(
                block * block_bytes, random() < write_prob,
                lo + span * random(),
            )
    elif spec.kind == "false_sharing_stride":
        offset = proc % block_bytes
        emitted = 0
        index = 0
        while emitted < n_ops:
            block = base + (index * spec.stride_blocks) % n_blocks
            index += 1
            address = block * block_bytes + offset
            # RMW on this proc's own byte of the shared block; with one
            # slot left, a lone read probe, never a half-pair.
            yield MemoryOp(address, False, lo + span * random())
            emitted += 1
            if emitted < n_ops:
                yield MemoryOp(address, True, 2.0, True)
                emitted += 1
    else:  # producer_group_handoff
        group = proc // spec.group_size
        members = [
            p for p in range(n_procs) if p // spec.group_size == group
        ]
        size = max(1, n_blocks // max(
            1, (n_procs + spec.group_size - 1) // spec.group_size
        ))
        k = size.bit_length()
        n_members = len(members)
        for i in range(n_ops):
            producer = members[(i // period) % n_members]
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            # Slices stay inside the declared pool: when there are more
            # groups than the pool can give disjoint slices, far groups
            # wrap around and share blocks rather than silently growing
            # the footprint past n_blocks.
            block = base + (group * size + r) % n_blocks
            yield MemoryOp(
                block * block_bytes, proc == producer, lo + span * random()
            )
