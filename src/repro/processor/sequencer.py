"""Processor-side sequencer: issues memory operations against the node.

Stands in for the paper's dynamically scheduled SPARC cores (Table 1):
operations issue in program order with think-time gaps (non-memory
instructions), and up to ``max_outstanding_misses`` operations may be in
flight at once — the memory-level parallelism a 128-entry ROB provides.
Operations marked ``depends_on_prev`` (e.g. the store half of a
lock-acquire read-modify-write) wait for all earlier operations to
complete, which is what makes migratory sharing patterns race the way
the paper's commercial workloads do.

The sequencer also models the split L1 as a latency filter: an L1 hit
costs 2 ns; an L1 miss adds the 6 ns L2 access; an L2 permission miss
starts a coherence transaction.  L1 inclusion is enforced through the
node's lose-block hook.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator

from repro.cache.cache import SetAssociativeCache
from repro.coherence.controller import ProtocolNode
from repro.sim.stats import LatencyTracker


@dataclasses.dataclass(slots=True)
class MemoryOp:
    """One memory operation of the workload stream.

    ``think_ns`` is the program-order gap after the previous operation's
    dispatch (non-memory work).  ``depends_on_prev`` forces the pipeline
    to drain before dispatch.  Slotted: a generator builds one per op,
    and a slotted op is cheaper to build and 40 bytes smaller than a
    dict-backed one.
    """

    address: int
    is_write: bool
    think_ns: float = 0.0
    depends_on_prev: bool = False


class Sequencer:
    """Drives one processor's operation stream through its node."""

    def __init__(self, node: ProtocolNode, stream: Iterator[MemoryOp]) -> None:
        """Drive ``stream`` through ``node``, on the node's simulator,
        config and checker."""
        config = node.config
        self.node = node
        self.config = config
        self.sim = node.sim
        self.checker = node.checker
        self.proc_id = node.node_id
        self._stream = iter(stream)
        self.l1 = SetAssociativeCache.from_geometry(
            config.l1_bytes, config.l1_assoc, config.block_bytes
        )
        node.set_lose_block_hook(self._lose_block)

        self.outstanding = 0
        self.completed_ops = 0
        self.issued_ops = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0
        self.miss_latency = LatencyTracker()
        self.finish_time: float | None = None

        self._current_op: MemoryOp | None = None
        self._ready_at = 0.0
        self._done_issuing = False
        self._dispatch_pending = False

        # Hot-path constants hoisted out of the per-op handlers.
        self._l1_latency = config.l1_latency_ns
        self._l2_latency = config.l2_latency_ns
        self._offset_bits = config.block_bytes.bit_length() - 1

    # ------------------------------------------------------------------
    # Issue engine
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.sim.post(0.0, self._pump)

    def feed(self, stream: Iterator[MemoryOp]) -> None:
        """Append a new operation stream to a drained sequencer.

        The fork path runs a warmup phase to completion, snapshots, then
        feeds each divergent tail into the restored system.  Feeding
        re-opens the issue engine (clears ``finish_time`` and
        ``_done_issuing``) and schedules a pump at the current time, so
        tail dispatch follows the exact same event path a cold run's
        ``start()`` would take at t=0.
        """
        if self._current_op is not None or self.outstanding:
            raise RuntimeError("feed() requires a drained sequencer")
        self._stream = iter(stream)
        self._done_issuing = False
        self.finish_time = None
        self.sim.post(0.0, self._pump)

    def _pump(self) -> None:
        """Fetch the next op if none is waiting; dispatch it if allowed."""
        op = self._current_op
        if op is None:
            if self._done_issuing:
                return
            op = next(self._stream, None)
            if op is None:
                self._done_issuing = True
                self._maybe_finish()
                return
            self._current_op = op
            self._ready_at = self.sim._now + op.think_ns
        if self._dispatch_pending:
            return
        if op.depends_on_prev and self.outstanding > 0:
            return  # re-pumped on completion
        if self.outstanding >= self.config.max_outstanding_misses:
            return  # re-pumped on completion
        if self.node.mshrs.is_full():
            return  # re-pumped on completion
        self._dispatch_pending = True
        sim = self.sim
        sim.post(max(0.0, self._ready_at - sim._now), self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        op = self._current_op
        assert op is not None
        self._current_op = None
        self.issued_ops += 1
        self.outstanding += 1
        block = op.address >> self._offset_bits
        issue_version = self.checker.issue(block, self.proc_id, op.is_write)
        started = self.sim._now
        self.sim.post(
            self._l1_latency, self._after_l1, op, block, issue_version,
            started,
        )
        self._pump()  # keep issuing past this op (memory-level parallelism)

    # ------------------------------------------------------------------
    # Cache access path
    # ------------------------------------------------------------------

    def _after_l1(
        self, op: MemoryOp, block: int, issue_version: int, started: float
    ) -> None:
        if self.l1.contains(block):
            version = self.node.probe(block, op.is_write)
            if version is not None:
                self.l1_hits += 1
                if op.is_write:
                    version = self.node.perform_store(block)
                self._complete(op, block, version, issue_version)
                return
        self.sim.post(
            self._l2_latency, self._after_l2, op, block, issue_version,
            started,
        )

    def _after_l2(
        self, op: MemoryOp, block: int, issue_version: int, started: float
    ) -> None:
        version = self.node.probe(block, op.is_write)
        if version is not None:
            self.l2_hits += 1
            if op.is_write:
                version = self.node.perform_store(block)
            self._fill_l1(block)
            self._complete(op, block, version, issue_version)
            return
        self.misses += 1
        # A partial (not a closure) so an in-flight miss completion can
        # be pickled by the snapshot layer along with its MSHR entry.
        self.node.start_miss(
            block,
            op.is_write,
            functools.partial(
                self._miss_complete, op, block,
                issue_version=issue_version, started=started,
            ),
        )

    def _miss_complete(
        self,
        op: MemoryOp,
        block: int,
        version: int,
        issue_version: int,
        started: float,
    ) -> None:
        self.miss_latency.record(self.sim._now - started)
        self._fill_l1(block)
        self._complete(op, block, version, issue_version)

    def _complete(
        self, op: MemoryOp, block: int, version: int, issue_version: int
    ) -> None:
        if not op.is_write:
            self.checker.check_load(
                block, self.proc_id, version, issue_version, self.sim._now
            )
        self.completed_ops += 1
        self.outstanding -= 1
        self._pump()
        self._maybe_finish()

    # ------------------------------------------------------------------
    # L1 maintenance
    # ------------------------------------------------------------------

    def _fill_l1(self, block: int) -> None:
        if self.l1.contains(block):
            self.l1.lookup(block)
            return
        victim = self.l1.victim_for(block)
        if victim is not None:
            self.l1.remove(victim.block)  # L1 is a clean filter over L2
        self.l1.insert(block)

    def _lose_block(self, block: int) -> None:
        """L2 lost the block (inclusion): drop any L1 copy."""
        self.l1.remove(block)

    # ------------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if (
            self._done_issuing
            and self._current_op is None
            and self.outstanding == 0
            and self.finish_time is None
        ):
            self.finish_time = self.sim._now

    @property
    def done(self) -> bool:
        return self.finish_time is not None
