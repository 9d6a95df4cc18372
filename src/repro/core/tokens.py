"""Token accounting: the invariants that make safety checkable.

The correctness substrate's safety argument (Section 3.1) is inductive:
the four invariants hold initially, and every data/token movement
preserves them.  :class:`TokenLedger` turns that argument into executable
checks — it tracks tokens in flight on the interconnect and can audit, at
any instant, that for every block:

* **Invariant #1'** — exactly T tokens exist, exactly one of which is
  the owner token (held in caches, memory, or coherence messages);
* non-negative in-flight counts (no token created or destroyed en route).

Invariants #2'/#3' (write needs all T, read needs a token plus valid
data) are enforced at the access points in the substrate node, and
Invariant #4' (the owner token always travels with data) is asserted at
message-construction time.
"""

from __future__ import annotations

from typing import Protocol


class TokenInvariantError(AssertionError):
    """A substrate invariant was violated — a correctness bug."""


class TokenHolder(Protocol):
    """Anything that can hold tokens: a node's cache + home memory."""

    def tokens_held(self, block: int) -> tuple[int, int]:
        """Return ``(token_count, owner_count)`` held for ``block``."""
        ...


class TokenLedger:
    """System-wide token conservation auditor.

    Substrate nodes report every token-bearing message send/receive;
    :meth:`audit` then cross-checks holders plus in-flight counts against
    the fixed total T.  Auditing is O(nodes) per block, so tests audit
    the touched-block set rather than the whole address space.
    """

    def __init__(self, total_tokens: int) -> None:
        if total_tokens < 1:
            raise ValueError("need at least one token per block")
        self.total_tokens = total_tokens
        self._holders: list[TokenHolder] = []
        self._in_flight_tokens: dict[int, int] = {}
        self._in_flight_owners: dict[int, int] = {}
        self.touched_blocks: set[int] = set()

    def register_holder(self, holder: TokenHolder) -> None:
        self._holders.append(holder)

    def message_sent(self, block: int, tokens: int, owner: bool) -> None:
        """A message carrying ``tokens`` (and possibly the owner token)
        entered the interconnect."""
        if tokens < 1:
            raise TokenInvariantError(
                f"token message for block {block:#x} carries {tokens} tokens"
            )
        if tokens > self.total_tokens:
            raise TokenInvariantError(
                f"message carries {tokens} tokens > T={self.total_tokens}"
            )
        self.touched_blocks.add(block)
        self._in_flight_tokens[block] = self._in_flight_tokens.get(block, 0) + tokens
        if owner:
            self._in_flight_owners[block] = (
                self._in_flight_owners.get(block, 0) + 1
            )

    def message_received(self, block: int, tokens: int, owner: bool) -> None:
        """A token-bearing message left the interconnect."""
        remaining = self._in_flight_tokens.get(block, 0) - tokens
        if remaining < 0:
            raise TokenInvariantError(
                f"block {block:#x}: received more tokens than were in flight"
            )
        # Drop zero entries instead of storing them: long runs touch
        # many blocks whose traffic has long since landed, and keeping
        # a 0 per block forever is an unbounded leak.
        if remaining:
            self._in_flight_tokens[block] = remaining
        else:
            self._in_flight_tokens.pop(block, None)
        if owner:
            owners = self._in_flight_owners.get(block, 0) - 1
            if owners < 0:
                raise TokenInvariantError(
                    f"block {block:#x}: received an owner token that was "
                    "never sent"
                )
            if owners:
                self._in_flight_owners[block] = owners
            else:
                self._in_flight_owners.pop(block, None)

    def in_flight(self, block: int) -> tuple[int, int]:
        return (
            self._in_flight_tokens.get(block, 0),
            self._in_flight_owners.get(block, 0),
        )

    def audit(self, block: int) -> None:
        """Assert Invariant #1' for one block, raising on violation."""
        tokens, owners = self.in_flight(block)
        for holder in self._holders:
            held, held_owners = holder.tokens_held(block)
            tokens += held
            owners += held_owners
        if tokens != self.total_tokens:
            raise TokenInvariantError(
                f"block {block:#x}: {tokens} tokens in system, expected "
                f"T={self.total_tokens} (Invariant #1')"
            )
        if owners != 1:
            raise TokenInvariantError(
                f"block {block:#x}: {owners} owner tokens in system, "
                "expected exactly 1 (Invariant #1')"
            )

    def audit_all_touched(self) -> int:
        """Audit every block that ever moved; returns how many.

        Blocks that audit clean with no tokens in flight are then
        retired from ``touched_blocks`` — they are quiesced, and nothing
        about a future movement depends on having seen the past one
        (``message_sent`` re-adds a block the moment traffic resumes).
        Without retirement the set — and the cost of the next audit —
        would grow with every block ever touched, which is a memory
        leak for long-lived systems that audit periodically.
        """
        audited = len(self.touched_blocks)
        quiesced = []
        for block in self.touched_blocks:
            self.audit(block)
            if block not in self._in_flight_tokens:
                quiesced.append(block)
        for block in quiesced:
            self.touched_blocks.discard(block)
        return audited
