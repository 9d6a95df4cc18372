"""End-to-end coherence safety oracle (data-value checking).

Real data is replaced by a per-block integer *version*: every completed
store increments the block's version, and every data message and cache
line carries the version it holds.  The checker validates each completed
operation against three protocol-independent rules:

1. **Global staleness** — a load must not observe a version older than
   the block's authoritative version at the instant the operation was
   *issued* (a store that completed system-wide before the load began
   must be visible to it).
2. **Per-processor coherence order** — the versions a given processor
   observes of a given block never decrease (no travelling back in time),
   and a processor's own store builds on the latest version it had
   permission to see.
3. **No future values** — a load never observes a version greater than
   the current authoritative version.

Rule 1 is deliberately weaker than "equals the authoritative version at
completion": in a split-transaction snooping protocol a read response can
legally arrive after a later write (ordered after the read) completed —
the read is still correct per the request total order.  Protocols that
*do* guarantee instantaneous agreement (Token Coherence: a reader holds a
token at completion, so no writer can have completed since the data was
produced) can be validated with ``strict=True``.
"""

from __future__ import annotations

import collections
import dataclasses


class CoherenceViolation(AssertionError):
    """A protocol returned provably incoherent data."""


@dataclasses.dataclass
class _BlockState:
    version: int = 0
    last_writer: int = -1
    last_write_time: float = 0.0


class CoherenceChecker:
    """Tracks authoritative block versions and validates observations.

    ``allow_inflight_invalidation`` disables rule 1 (global staleness):
    split-transaction snooping completes an upgrade at its order point
    while the invalidations are still implicit in other nodes' inbound
    snoop streams, so a reader that has not yet processed the
    invalidation may legally order its load *before* the store — a
    wall-clock-stale but sequentially consistent read.  Protocols with
    explicit invalidation acknowledgments (directory, Hammer) and Token
    Coherence (a reader provably holds a token at completion) keep the
    rule on.
    """

    def __init__(
        self, strict: bool = False, allow_inflight_invalidation: bool = False
    ) -> None:
        self.strict = strict
        self.allow_inflight_invalidation = allow_inflight_invalidation
        self._blocks: dict[int, _BlockState] = {}
        self._per_proc_seen: dict[tuple[int, int], int] = {}
        self.loads_checked = 0
        self.stores_checked = 0
        #: (proc, block) -> loads / stores dispatched and not yet
        #: validated (negative: validated more often than dispatched);
        #: settled keys are deleted, so these hold only what is in flight.
        self.pending_loads = collections.defaultdict(int)
        self.pending_stores = collections.defaultdict(int)

    def _state(self, block: int) -> _BlockState:
        state = self._blocks.get(block)
        if state is None:
            state = _BlockState()
            self._blocks[block] = state
        return state

    def current_version(self, block: int) -> int:
        """Authoritative version right now (0 if never written)."""
        return self._state(block).version

    def issue(self, block: int, proc: int, is_write: bool) -> int:
        """A processor dispatched an operation: count it pending until it
        is validated, and return the block's version now (rule 1's lower
        bound for a load)."""
        pending = self.pending_stores if is_write else self.pending_loads
        pending[(proc, block)] += 1
        return self._state(block).version

    def record_store(
        self, block: int, proc: int, now: float, based_on_version: int
    ) -> int:
        """A store completed with write permission; returns the new version.

        ``based_on_version`` is the version of the data the writer held;
        with a single writer at a time it must equal the authoritative
        version, so any lost-update bug surfaces here.
        """
        state = self._state(block)
        if based_on_version != state.version:
            raise CoherenceViolation(
                f"store by P{proc} to block {block:#x} at t={now} built on "
                f"v{based_on_version} but authoritative is v{state.version} "
                "(lost update / concurrent writers)"
            )
        state.version += 1
        state.last_writer = proc
        state.last_write_time = now
        key = (proc, block)
        self._per_proc_seen[key] = state.version
        self.stores_checked += 1
        left = self.pending_stores[key] - 1
        if left:
            self.pending_stores[key] = left
        else:
            del self.pending_stores[key]
        return state.version

    def check_load(
        self,
        block: int,
        proc: int,
        observed_version: int,
        issue_version: int,
        now: float,
    ) -> None:
        """Validate a completed load.

        Args:
            observed_version: Version of the data the load returned.
            issue_version: ``current_version(block)`` sampled when the
                operation was issued (rule 1's lower bound).
        """
        state = self._state(block)
        seen_key = (proc, block)
        self.loads_checked += 1
        left = self.pending_loads[seen_key] - 1
        if left:
            self.pending_loads[seen_key] = left
        else:
            del self.pending_loads[seen_key]
        if observed_version > state.version:
            raise CoherenceViolation(
                f"load by P{proc} of block {block:#x} at t={now} observed "
                f"future version v{observed_version} > authoritative "
                f"v{state.version}"
            )
        if observed_version < issue_version and not self.allow_inflight_invalidation:
            raise CoherenceViolation(
                f"load by P{proc} of block {block:#x} at t={now} observed "
                f"stale v{observed_version}; v{issue_version} had already "
                "completed before the load was issued"
            )
        previously_seen = self._per_proc_seen.get(seen_key, 0)
        if observed_version < previously_seen:
            raise CoherenceViolation(
                f"load by P{proc} of block {block:#x} at t={now} observed "
                f"v{observed_version} after having seen v{previously_seen} "
                "(per-processor coherence order violated)"
            )
        if self.strict and observed_version != state.version:
            raise CoherenceViolation(
                f"[strict] load by P{proc} of block {block:#x} at t={now} "
                f"observed v{observed_version} != authoritative "
                f"v{state.version}"
            )
        self._per_proc_seen[seen_key] = observed_version
