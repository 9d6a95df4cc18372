"""The bounded prediction table every destination-set predictor uses.

Real predictor hardware is a small tagged SRAM, not an unbounded map, so
the table holds at most ``capacity`` entries, one per cache block;
inserting into a full table evicts the least-recently-touched entry (a
lost prediction, never a correctness event).

Evictions are reported through the shared statistics
:class:`~repro.sim.stats.Counter` so sweeps can see when a predictor is
capacity-starved.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.sim.stats import Counter


class PredictionTable:
    """Fixed-capacity, LRU-evicted map from block number to entry."""

    __slots__ = ("capacity", "_entries", "evictions", "_counters",
                 "_eviction_counter")

    def __init__(
        self,
        capacity: int,
        counters: Counter | None = None,
        eviction_counter: str = "predict_table_eviction",
    ) -> None:
        if capacity < 1:
            raise ValueError("prediction table needs at least one entry")
        self.capacity = capacity
        self._entries: OrderedDict[int, object] = OrderedDict()
        self.evictions = 0
        self._counters = counters
        self._eviction_counter = eviction_counter

    def get(self, block: int):
        """The entry for ``block`` (refreshed as most recent), or None."""
        entries = self._entries
        entry = entries.get(block)
        if entry is not None:
            entries.move_to_end(block)
        return entry

    def get_or_create(self, block: int, factory: Callable[[], object]):
        """The entry for ``block``, allocating (and possibly evicting the
        LRU victim) if absent."""
        entries = self._entries
        entry = entries.get(block)
        if entry is not None:
            entries.move_to_end(block)
            return entry
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            if self._counters is not None:
                self._counters.add(self._eviction_counter)
        entry = factory()
        entries[block] = entry
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries
