"""Requester-side migratory-sharing detection.

Section 4.2: TokenB's migratory optimization is owner-side (a dirty
M-state block answers a shared request with data and *all* tokens); the
paper "implement[s] an analogous optimization in all other protocols".
For the baselines we use the classic requester-side scheme of Cox &
Fowler and Stenström et al. [12, 40]: a block whose loads are reliably
followed by an upgrade (store to a shared copy) is marked migratory, and
subsequent load misses request exclusive permission up front — turning
the two transactions of a migratory handoff into one.

The predictor unlearns a block when the pattern breaks (a remote reader
requests a block we obtained exclusively but never wrote).
"""

from __future__ import annotations


class MigratoryPredictor:
    """Per-node table of blocks believed to exhibit migratory sharing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._migratory: set[int] = set()
        self._last_load_miss: int | None = None
        self.hits = 0
        self.learned = 0
        self.unlearned = 0

    def choose_getm(self, block: int, for_write: bool, held_shared: bool) -> bool:
        """Whether a new miss asks for exclusive permission (GETM).

        A store always does, and may complete the migratory signature
        (``held_shared``: the requester still holds a read-only copy).
        A load does when the block is predicted migratory; otherwise it
        is remembered as the first half of a read-modify-write.
        """
        if for_write:
            self.note_store_miss(block, held_shared)
            return True
        if self.predicts_migratory(block):
            return True
        self.note_load_miss(block)
        return False

    def note_load_miss(self, block: int) -> None:
        """Remember the most recent load miss (half the RMW signature)."""
        self._last_load_miss = block

    def note_store_miss(self, block: int, line_was_shared: bool) -> None:
        """A store missed: learn if it completes a load-then-store pair
        (upgrade of a shared copy, or a store chasing our latest load
        miss whose copy a racing writer already stole)."""
        if line_was_shared or self._last_load_miss == block:
            self.observe_upgrade(block)

    def predicts_migratory(self, block: int) -> bool:
        """Should a load miss for ``block`` request exclusive permission?"""
        if not self.enabled:
            return False
        if block in self._migratory:
            self.hits += 1
            return True
        return False

    def observe_upgrade(self, block: int) -> None:
        """A store hit a shared copy — the migratory signature."""
        if not self.enabled or block in self._migratory:
            return
        self._migratory.add(block)
        self.learned += 1

    def observe_read_shared(self, block: int) -> None:
        """A remote reader wanted a block we fetched exclusively but never
        wrote: stop predicting it migratory."""
        if block in self._migratory:
            self._migratory.discard(block)
            self.unlearned += 1

    def __len__(self) -> int:
        return len(self._migratory)
