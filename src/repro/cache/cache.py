"""Set-associative cache with LRU replacement.

The same structure backs the L1 latency filter and the L2 coherence cache.
Lines carry protocol-neutral fields (``version`` for the data-value
checker, ``dirty`` for the migratory-sharing heuristic) plus a
protocol-owned attribute bag:

* Token Coherence stores ``tokens``, ``owner_token`` and ``valid_data``;
* MOSI protocols store ``state``.

Replacement is strict LRU within a set, driven by an internal use counter
so behaviour is independent of wall-clock event jitter.
"""

from __future__ import annotations

from typing import Iterator


class CacheLine:
    """One cache line's tag-array entry."""

    __slots__ = (
        "block",
        "version",
        "dirty",
        "state",
        "tokens",
        "owner_token",
        "valid_data",
        "_last_use",
    )

    def __init__(self, block: int) -> None:
        self.block = block
        #: Data payload stand-in for the coherence checker.
        self.version = 0
        #: Written by the local processor since last ownership transfer
        #: (drives the migratory-sharing optimization).
        self.dirty = False
        #: MOESI state for the baseline protocols.
        self.state = "I"
        #: Token Coherence per-line substrate state (Section 3.1).
        self.tokens = 0
        self.owner_token = False
        self.valid_data = False
        self._last_use = 0

    def __repr__(self) -> str:
        return (
            f"CacheLine(block={self.block:#x}, state={self.state}, "
            f"tokens={self.tokens}, owner={self.owner_token}, "
            f"valid={self.valid_data}, v{self.version})"
        )


class SetAssociativeCache:
    """LRU set-associative cache keyed by block address.

    Args:
        n_sets: Number of sets (power of two not required).
        assoc: Ways per set.

    The cache does not evict on its own: callers use :meth:`victim_for`
    to learn which line must be displaced, perform any protocol action
    (writeback, token return), remove it, and then :meth:`insert`.

    Lines are indexed twice: one flat ``{block: line}`` dict answers
    lookups, and a set's own ``{block: line}`` dict (its ways, in
    insertion order) exists only while the set holds a line, so an
    empty cache costs two dicts however many sets it has.
    """

    def __init__(self, n_sets: int, assoc: int) -> None:
        if n_sets < 1 or assoc < 1:
            raise ValueError("n_sets and assoc must be >= 1")
        self.n_sets = n_sets
        self.assoc = assoc
        self._lines: dict[int, CacheLine] = {}
        self._sets: dict[int, dict[int, CacheLine]] = {}
        self._use_clock = 0
        #: ``peek(block)``: the resident line or None, leaving LRU alone.
        self.peek = self._lines.get

    @classmethod
    def from_geometry(
        cls, capacity_bytes: int, assoc: int, block_bytes: int
    ) -> "SetAssociativeCache":
        """Build from (capacity, associativity, block size) as in Table 1."""
        n_lines = capacity_bytes // block_bytes
        n_sets = max(1, n_lines // assoc)
        return cls(n_sets, assoc)

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self.assoc

    def lookup(self, block: int) -> CacheLine | None:
        """Return the line for ``block`` if present (updating LRU).

        ``peek(block)`` is the same lookup without the LRU update.
        """
        line = self._lines.get(block)
        if line is not None:
            self._use_clock += 1
            line._last_use = self._use_clock
        return line

    def contains(self, block: int) -> bool:
        return block in self._lines

    def set_has_room(self, block: int) -> bool:
        """True if ``block`` could be inserted without an eviction."""
        if block in self._lines:
            return True
        target_set = self._sets.get(block % self.n_sets)
        return target_set is None or len(target_set) < self.assoc

    def lines_in_set(self, block: int) -> list[CacheLine]:
        """All resident lines in the set ``block`` maps to."""
        target_set = self._sets.get(block % self.n_sets)
        return [] if target_set is None else list(target_set.values())

    def victim_for(self, block: int) -> CacheLine | None:
        """Line that must be displaced before ``block`` can be inserted.

        Returns ``None`` if the set has a free way (or the block is
        already resident).
        """
        if self.set_has_room(block):
            return None
        target_set = self._sets[block % self.n_sets]
        return min(target_set.values(), key=lambda line: line._last_use)

    def insert(self, block: int) -> CacheLine:
        """Insert (or return existing) line; the set must have room."""
        line = self._lines.get(block)
        if line is None:
            index = block % self.n_sets
            target_set = self._sets.get(index)
            if target_set is None:
                target_set = self._sets[index] = {}
            elif len(target_set) >= self.assoc:
                raise RuntimeError(
                    f"set full for block {block:#x}; evict victim_for() first"
                )
            line = CacheLine(block)
            target_set[block] = line
            self._lines[block] = line
        self._use_clock += 1
        line._last_use = self._use_clock
        return line

    def remove(self, block: int) -> CacheLine | None:
        """Remove and return the line for ``block`` (None if absent)."""
        line = self._lines.pop(block, None)
        if line is not None:
            index = block % self.n_sets
            target_set = self._sets[index]
            del target_set[block]
            if not target_set:
                del self._sets[index]
        return line

    def __len__(self) -> int:
        return len(self._lines)

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines, set by set in index order."""
        for index in sorted(self._sets):
            yield from self._sets[index].values()
