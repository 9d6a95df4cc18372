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
import itertools
from bisect import bisect_left
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
        for category, size in self.pool_sizes().items():
            if size < 0:
                raise ValueError(f"n_{category}_blocks must be >= 0")
            if size == 0 and weights[category] > 0:
                raise ValueError(
                    f"{category}_weight is {weights[category]} but "
                    f"n_{category}_blocks is 0: nothing to draw from"
                )
        for name in ("read_mostly_write_prob", "private_write_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.think_min_ns <= self.think_max_ns:
            raise ValueError("need 0 <= think_min_ns <= think_max_ns")

    def category_weights(self) -> dict[str, float]:
        return {
            "migratory": self.migratory_weight,
            "producer_consumer": self.producer_consumer_weight,
            "read_mostly": self.read_mostly_weight,
            "private": self.private_weight,
            "streaming": self.streaming_weight,
        }

    def pool_sizes(self) -> dict[str, int]:
        """Blocks per pooled category (streaming walks a region)."""
        return {
            "migratory": self.n_migratory_blocks,
            "producer_consumer": self.n_producer_consumer_blocks,
            "read_mostly": self.n_read_mostly_blocks,
            "private": self.n_private_blocks,
        }

    def scaled(self, ops_per_proc: int) -> "WorkloadSpec":
        """Copy of this spec with a different stream length."""
        return dataclasses.replace(self, ops_per_proc=ops_per_proc)


#: Category indices, in :meth:`WorkloadSpec.category_weights` order.
_MIGRATORY, _PRODUCER_CONSUMER, _READ_MOSTLY, _PRIVATE, _STREAMING = range(5)


def _bounds(weights: list[float]) -> list[float]:
    """Cumulative normalized weights, for ``bisect_left`` over a roll in
    [0, 1): the first bound at or above the roll names the category.
    The last bound is 1.0, so a roll past a sum that rounds short of one
    falls to the last category."""
    total = sum(weights)
    bounds = list(itertools.accumulate(weight / total for weight in weights))
    bounds[-1] = 1.0
    return bounds


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

    Each category pick draws from the stream's ``random.Random``, in
    this order (the contract ``tests/golden/streams_golden.json`` pins):

    1. ``random()``, the category roll;
    2. a migratory pick with one slot left, when another category has
       weight: ``random()`` again, over the rest of the mix;
    3. a pooled category's block, ``base + r``: ``r = getrandbits(k)``
       with ``k`` the pool size's bit length, redrawn while ``r`` is not
       below the size (CPython's ``choice``); streaming draws nothing
       and walks its region;
    4. read-mostly and private: ``random()`` against the write
       probability (producer-consumer writes the blocks it produces);
    5. ``random()`` for the think time, ``min + (max - min) * draw``
       (``uniform``'s arithmetic).  A migratory store thinks 2 ns and
       draws nothing.
    """
    rng = derive_rng(seed, "workload", spec.name, n_procs, proc, *salt)
    random, getrandbits = rng.random, rng.getrandbits
    weights = list(spec.category_weights().values())
    bounds = _bounds(weights)
    # The mix without migratory, rolled only for the final slot when a
    # load/store pair no longer fits.
    rest = _bounds(weights[1:]) if sum(weights[1:]) > 0 else None
    # (base, size, size's bit length) per pooled category.  Private
    # pools and streaming regions are per processor.
    bases = [_region_base(0), _region_base(1), _region_base(2),
             _region_base(3) + proc * spec.n_private_blocks]
    pools = [
        (base, size, size.bit_length())
        for base, size in zip(bases, spec.pool_sizes().values())
    ]
    write_prob = {
        _READ_MOSTLY: spec.read_mostly_write_prob,
        _PRIVATE: spec.private_write_prob,
    }
    streaming_next = _region_base(4) + proc * (
        _REGION_BLOCKS // max(n_procs, 1)
    )
    lo = spec.think_min_ns
    span = spec.think_max_ns - lo
    n_ops = spec.ops_per_proc
    emitted = 0
    while emitted < n_ops:
        category = bisect_left(bounds, random())
        if category == _MIGRATORY and emitted == n_ops - 1 and rest:
            category = 1 + bisect_left(rest, random())
        if category == _STREAMING:
            block = streaming_next
            streaming_next += 1
        else:
            base, size, k = pools[category]
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            block = base + r
        address = block * block_bytes
        if category == _MIGRATORY:
            # Lock-style read-modify-write: the store depends on the
            # load.  With one slot left it is a lone read probe.
            yield MemoryOp(address, False, lo + span * random())
            emitted += 1
            if emitted < n_ops:
                yield MemoryOp(address, True, 2.0, True)
                emitted += 1
            continue
        if category == _PRODUCER_CONSUMER:
            is_write = proc == block % n_procs
        elif category == _STREAMING:
            is_write = False
        else:
            is_write = random() < write_prob[category]
        yield MemoryOp(address, is_write, lo + span * random())
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
