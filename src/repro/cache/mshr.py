"""Miss status holding registers (MSHRs).

One outstanding coherence transaction per block; subsequent operations on
the same block coalesce into the existing entry and are re-dispatched when
the transaction completes (an upgrade, e.g. a store arriving while a load
miss is outstanding, simply re-probes and launches a new transaction).

Each protocol family keeps its per-miss transaction state in one
``__slots__`` subclass of :class:`MshrEntry` (the token family's in
:mod:`repro.core.substrate`, the MOSI baselines' in
:mod:`repro.protocols.mosi`), and hands that class to its
:class:`MshrTable`.  Every field is declared, with its default set in
``__init__``, so an undeclared attribute is an error.
"""

from __future__ import annotations

from typing import Any, Callable


class MshrEntry:
    """State of one outstanding miss transaction."""

    __slots__ = ("block", "for_write", "issued_at", "waiters")

    def __init__(self, block: int, for_write: bool, issued_at: float) -> None:
        self.block = block
        self.for_write = for_write
        self.issued_at = issued_at
        #: Callbacks ``(for_write, callback)`` for every coalesced operation.
        self.waiters: list[tuple[bool, Callable[..., Any]]] = []


class MshrTable:
    """Fixed-capacity table of outstanding misses, keyed by block.

    ``record`` is the :class:`MshrEntry` subclass each miss allocates.
    """

    def __init__(
        self, capacity: int, record: type[MshrEntry] = MshrEntry
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._record = record
        self._entries: dict[int, MshrEntry] = {}
        #: ``get(block)``: the outstanding entry or None (a C-level lookup).
        self.get = self._entries.get

    def allocate(self, block: int, for_write: bool, now: float) -> MshrEntry:
        if block in self._entries:
            raise RuntimeError(f"MSHR already allocated for block {block:#x}")
        if self.is_full():
            raise RuntimeError("MSHR table full")
        entry = self._record(block, for_write, now)
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
