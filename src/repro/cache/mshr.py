"""Miss status holding registers (MSHRs).

One outstanding coherence transaction per block; subsequent operations on
the same block coalesce into the existing entry and are re-dispatched when
the transaction completes (an upgrade, e.g. a store arriving while a load
miss is outstanding, simply re-probes and launches a new transaction).

Protocol controllers hang their transaction state off the entry via the
``protocol`` attribute bag (reissue counters, ack counts, timer handles).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable


@dataclasses.dataclass
class MshrEntry:
    """State of one outstanding miss transaction."""

    block: int
    for_write: bool
    issued_at: float
    #: Callbacks ``(for_write, callback)`` for every coalesced operation.
    waiters: list[tuple[bool, Callable[..., Any]]] = dataclasses.field(
        default_factory=list
    )
    #: Protocol-private transaction state.
    protocol: dict[str, Any] = dataclasses.field(default_factory=dict)


class MshrTable:
    """Fixed-capacity table of outstanding misses, keyed by block."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[int, MshrEntry] = {}
        #: ``get(block)``: the outstanding entry or None (a C-level lookup).
        self.get = self._entries.get

    def allocate(self, block: int, for_write: bool, now: float) -> MshrEntry:
        if block in self._entries:
            raise RuntimeError(f"MSHR already allocated for block {block:#x}")
        if self.is_full():
            raise RuntimeError("MSHR table full")
        entry = MshrEntry(block, for_write, now)
        self._entries[block] = entry
        return entry

    def free(self, block: int) -> MshrEntry:
        entry = self._entries.pop(block, None)
        if entry is None:
            raise RuntimeError(f"no MSHR for block {block:#x}")
        return entry

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def entries(self) -> list[MshrEntry]:
        return list(self._entries.values())
