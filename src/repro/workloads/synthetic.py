"""Synthetic workload generation with controlled sharing behaviour.

The paper's protocol comparison is driven by the *population of misses*
its commercial workloads generate — above all the fraction of misses
satisfied cache-to-cache (migratory locks and shared structures) versus
from memory.  :class:`WorkloadSpec` describes a workload as a mix over
five access categories, and :func:`generate_streams` turns a spec into
deterministic per-processor operation streams:

``migratory``
    Lock-protected data: a processor loads then stores the same block
    (the store depends on the load).  Blocks migrate dirty between
    caches — the cache-to-cache misses that dominate OLTP.
``producer_consumer``
    One writer per block group, many readers.
``read_mostly``
    Widely read, occasionally written data (code/metadata).
``private``
    Per-processor data, read/write mix, no sharing.
``streaming``
    A cold per-processor region touched sequentially: compulsory misses
    that must be satisfied from memory.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.processor.sequencer import MemoryOp
from repro.sim.rng import derive_rng

#: Region size reserved for each block pool (2**24 blocks = 1 GB of
#: 64-byte blocks per region keeps regions disjoint without bookkeeping).
_REGION_BLOCKS = 1 << 24


def _region_base(index: int) -> int:
    # Region 0 starts above block 0 so "block 0" never aliases pools.
    return (index + 1) * _REGION_BLOCKS


@dataclasses.dataclass
class WorkloadSpec:
    """A synthetic workload: category mix plus pool sizes.

    Category weights need not sum to one; they are normalized.  The
    ``migratory`` weight counts load+store *pairs*.
    """

    name: str
    ops_per_proc: int = 1000
    migratory_weight: float = 0.2
    producer_consumer_weight: float = 0.1
    read_mostly_weight: float = 0.2
    private_weight: float = 0.4
    streaming_weight: float = 0.1
    n_migratory_blocks: int = 64
    n_producer_consumer_blocks: int = 64
    n_read_mostly_blocks: int = 256
    n_private_blocks: int = 256
    read_mostly_write_prob: float = 0.02
    private_write_prob: float = 0.3
    think_min_ns: float = 2.0
    think_max_ns: float = 30.0
    #: Ops per "transaction" for the runtime metric (cycles/transaction).
    ops_per_transaction: int = 100

    def __post_init__(self) -> None:
        weights = self.category_weights()
        if min(weights.values()) < 0:
            raise ValueError("category weights must be nonnegative")
        if sum(weights.values()) <= 0:
            raise ValueError("at least one category weight must be positive")
        if self.ops_per_proc < 1:
            raise ValueError("ops_per_proc must be >= 1")

    def category_weights(self) -> dict[str, float]:
        return {
            "migratory": self.migratory_weight,
            "producer_consumer": self.producer_consumer_weight,
            "read_mostly": self.read_mostly_weight,
            "private": self.private_weight,
            "streaming": self.streaming_weight,
        }

    def scaled(self, ops_per_proc: int) -> "WorkloadSpec":
        """Copy of this spec with a different stream length."""
        return dataclasses.replace(self, ops_per_proc=ops_per_proc)


class _Pools:
    """Block-address pools for one (spec, n_procs) instantiation."""

    def __init__(self, spec: WorkloadSpec, n_procs: int) -> None:
        self.migratory = [
            _region_base(0) + i for i in range(spec.n_migratory_blocks)
        ]
        self.producer_consumer = [
            _region_base(1) + i for i in range(spec.n_producer_consumer_blocks)
        ]
        self.read_mostly = [
            _region_base(2) + i for i in range(spec.n_read_mostly_blocks)
        ]
        # Private and streaming regions are per processor.
        self.private = {
            proc: [
                _region_base(3) + proc * spec.n_private_blocks + i
                for i in range(spec.n_private_blocks)
            ]
            for proc in range(n_procs)
        }
        self.streaming_base = {
            proc: _region_base(4) + proc * (_REGION_BLOCKS // max(n_procs, 1))
            for proc in range(n_procs)
        }


def stream_ops(
    spec: WorkloadSpec,
    proc: int,
    n_procs: int,
    seed: int,
    block_bytes: int = 64,
    salt: tuple = (),
) -> Iterator[MemoryOp]:
    """Yield processor ``proc``'s operation stream deterministically.

    This is the generator form :func:`generate_stream` materializes:
    sequencers consume iterators, so million-op streams can be fed
    straight from here (or from a
    :class:`~repro.workloads.programs.WorkloadProgram` chaining several
    specs) without ever existing as lists.  ``salt`` namespaces the RNG
    stream — a program passes its name and phase index so two phases
    sharing one spec still produce distinct operations.

    Exactly ``spec.ops_per_proc`` operations are yielded.  A migratory
    load/store pair is only generated when both halves fit: when a
    single slot remains, the slot is filled from the renormalized rest
    of the category mix (or, for an all-migratory spec, with a
    standalone read probe of a hot block) rather than truncating the
    pair — truncation used to drop the ``depends_on_prev=True`` store,
    leaving a lock acquire with no release and skewing the write
    fraction.
    """
    rng = derive_rng(seed, "workload", spec.name, n_procs, proc, *salt)
    pools = _Pools(spec, n_procs)
    weights = spec.category_weights()
    categories = list(weights)
    cumulative: list[float] = []
    total = sum(weights.values())
    acc = 0.0
    for category in categories:
        acc += weights[category] / total
        cumulative.append(acc)

    # Renormalized mix over the non-migratory categories, used only for
    # the final slot when a load/store pair no longer fits.
    other_categories = [c for c in categories if c != "migratory"]
    other_total = sum(weights[c] for c in other_categories)
    other_cumulative: list[float] = []
    acc = 0.0
    if other_total > 0:
        for category in other_categories:
            acc += weights[category] / other_total
            other_cumulative.append(acc)

    def pick_category() -> str:
        roll = rng.random()
        for category, bound in zip(categories, cumulative):
            if roll <= bound:
                return category
        return categories[-1]

    def pick_other_category() -> str:
        roll = rng.random()
        for category, bound in zip(other_categories, other_cumulative):
            if roll <= bound:
                return category
        return other_categories[-1]

    def think() -> float:
        return rng.uniform(spec.think_min_ns, spec.think_max_ns)

    def address(block: int) -> int:
        return block * block_bytes

    emitted = 0
    n_ops = spec.ops_per_proc
    streaming_next = pools.streaming_base[proc]
    while emitted < n_ops:
        category = pick_category()
        if category == "migratory":
            if n_ops - emitted >= 2:
                block = rng.choice(pools.migratory)
                # Lock-style read-modify-write: store depends on load.
                yield MemoryOp(address(block), False, think())
                yield MemoryOp(address(block), True, 2.0, depends_on_prev=True)
                emitted += 2
                continue
            if not other_cumulative:
                # All-migratory spec with one slot left: a standalone
                # read probe of a hot block (no dangling dependent store).
                block = rng.choice(pools.migratory)
                yield MemoryOp(address(block), False, think())
                emitted += 1
                continue
            category = pick_other_category()
        if category == "producer_consumer":
            block = rng.choice(pools.producer_consumer)
            producer = block % n_procs
            yield MemoryOp(address(block), proc == producer, think())
        elif category == "read_mostly":
            block = rng.choice(pools.read_mostly)
            is_write = rng.random() < spec.read_mostly_write_prob
            yield MemoryOp(address(block), is_write, think())
        elif category == "private":
            block = rng.choice(pools.private[proc])
            is_write = rng.random() < spec.private_write_prob
            yield MemoryOp(address(block), is_write, think())
        else:  # streaming
            block = streaming_next
            streaming_next += 1
            yield MemoryOp(address(block), False, think())
        emitted += 1


def generate_stream(
    spec: WorkloadSpec,
    proc: int,
    n_procs: int,
    seed: int,
    block_bytes: int = 64,
) -> list[MemoryOp]:
    """Generate processor ``proc``'s operation stream as a list."""
    return list(stream_ops(spec, proc, n_procs, seed, block_bytes))


def generate_streams(
    spec: WorkloadSpec,
    n_procs: int,
    seed: int,
    block_bytes: int = 64,
) -> dict[int, list[MemoryOp]]:
    """Streams for every processor (same seed => identical streams)."""
    return {
        proc: generate_stream(spec, proc, n_procs, seed, block_bytes)
        for proc in range(n_procs)
    }


def stream_stats(streams: dict[int, list[MemoryOp]]) -> dict[str, float]:
    """Quick characterization used by tests and the workload example."""
    total = sum(len(ops) for ops in streams.values())
    writes = sum(op.is_write for ops in streams.values() for op in ops)
    dependent = sum(
        op.depends_on_prev for ops in streams.values() for op in ops
    )
    return {
        "total_ops": float(total),
        "write_fraction": writes / total if total else 0.0,
        "dependent_fraction": dependent / total if total else 0.0,
    }
