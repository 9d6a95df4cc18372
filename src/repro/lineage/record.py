"""The token-custody recorder.

:class:`LineageRecorder` receives one call per custody-relevant moment in
a token's life — minted at the home memory, sent in a message, received,
merged into a cache or memory holder, quiesced at end of run — and turns
the stream into two things at once:

* an **append-only event log** (``events``), each event a fixed-shape
  tuple ``(seq, t, kind, block, node, peer, tokens, owner, xfer)``, in
  simulation-time order, suitable for the indexed on-disk store
  (:mod:`repro.lineage.store`) and the query CLI;
* a **live custody model**: per-block token balances per node, the owner
  token's current position (at a node or in flight on a numbered
  transfer), and the set of open transfers — which is what makes the
  outcome contract (:mod:`repro.lineage.contract`) strictly stronger
  than the count-based :class:`~repro.core.tokens.TokenLedger` audit.
  The ledger only proves the system-wide *sum* is T; the custody model
  proves every token is *where the chain of movements says it is*.

The recorder is deliberately simulator-free (hooks pass times in), so
unit tests drive it directly.  Inconsistencies observed *while*
recording (a send of tokens the chain never delivered to that node, an
owner movement from somewhere the owner is not, a receive with no
matching send) are collected in ``anomalies`` rather than raised — the
contract check reports them after the run, when the whole chain can be
inspected.
"""

from __future__ import annotations

#: Field names of one event tuple, in order (the store writes them as a
#: JSON array in exactly this order).
EVENT_FIELDS = (
    "seq", "t", "kind", "block", "node", "peer", "tokens", "owner", "xfer"
)

#: Event kinds that end a custody chain.  The contract asserts every
#: chain reaches exactly one of these.
TERMINAL_KINDS = ("quiesce", "absorbed-by-reissue")

#: Annotation kinds: landmarks for the query CLI (reissues, persistent
#: sessions) with no effect on the custody model or terminal accounting.
ANNOTATION_KINDS = (
    "merge-cache", "merge-memory", "txn-done", "reissue",
    "persistent-request", "persistent-activate",
)


class LineageRecorder:
    """Append-only custody log plus the live position model."""

    __slots__ = (
        "total_tokens", "n_nodes", "events", "anomalies",
        "_at", "_owner_at", "_open", "_xfers",
        "_txn_done", "_drops", "_absorbed", "finalized",
    )

    def __init__(self, total_tokens: int, n_nodes: int) -> None:
        self.total_tokens = total_tokens
        self.n_nodes = n_nodes
        self.events: list[tuple] = []
        self.anomalies: list[str] = []
        #: block -> {node -> token balance implied by the event chain}.
        self._at: dict[int, dict[int, int]] = {}
        #: block -> ("node", id) | ("flight", xfer); absent before mint.
        self._owner_at: dict[int, tuple] = {}
        #: msg_id -> (xfer, block, src, dst, tokens, owner) for
        #: transfers sent but not yet received.
        self._open: dict[int, tuple] = {}
        self._xfers = 0
        self._txn_done: set[tuple[int, int]] = set()
        #: (block, requester) per fault-dropped transient request.
        self._drops: list[tuple[int, int]] = []
        self._absorbed = 0
        self.finalized = False

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------

    def _emit(
        self,
        t: float,
        kind: str,
        block: int,
        node: int,
        peer: int = -1,
        tokens: int = 0,
        owner: bool = False,
        xfer: int = -1,
    ) -> int:
        seq = len(self.events)
        self.events.append(
            (seq, t, kind, block, node, peer, tokens, 1 if owner else 0, xfer)
        )
        return seq

    # ------------------------------------------------------------------
    # Custody movements (called by the installed hooks)
    # ------------------------------------------------------------------

    def mint(self, block: int, node: int, t: float) -> None:
        """Home memory lazily materialized all T tokens + the owner."""
        if block in self._at:
            self.anomalies.append(f"block {block:#x}: minted twice")
        self._at[block] = {node: self.total_tokens}
        self._owner_at[block] = ("node", node)
        self._emit(t, "mint", block, node, tokens=self.total_tokens, owner=True)

    def sent(
        self,
        block: int,
        src: int,
        dst: int,
        tokens: int,
        owner: bool,
        msg_id: int,
        t: float,
    ) -> None:
        """A token-carrying message entered the fabric."""
        balances = self._at.setdefault(block, {})
        held = balances.get(src, 0)
        if held < tokens:
            self.anomalies.append(
                f"block {block:#x}: node {src} sent {tokens} token(s) but "
                f"the custody chain places only {held} there"
            )
        balances[src] = held - tokens
        xfer = self._xfers
        self._xfers += 1
        if owner:
            position = self._owner_at.get(block)
            if position != ("node", src):
                self.anomalies.append(
                    f"block {block:#x}: owner token sent from node {src} "
                    f"but the custody chain places it at {position}"
                )
            self._owner_at[block] = ("flight", xfer)
        self._emit(t, "send", block, src, dst, tokens, owner, xfer)
        self._open[msg_id] = (xfer, block, src, dst, tokens, owner)

    def received(
        self,
        block: int,
        node: int,
        tokens: int,
        owner: bool,
        msg_id: int,
        t: float,
    ) -> None:
        """A token-carrying message was delivered."""
        entry = self._open.pop(msg_id, None)
        if entry is None:
            xfer = src = -1
            self.anomalies.append(
                f"block {block:#x}: node {node} received {tokens} token(s) "
                "with no recorded send (transfer outside the custody chain)"
            )
        else:
            xfer, _block, src, _dst, _tokens, _owner = entry
        balances = self._at.setdefault(block, {})
        balances[node] = balances.get(node, 0) + tokens
        if owner:
            if entry is None or self._owner_at.get(block) != ("flight", xfer):
                self.anomalies.append(
                    f"block {block:#x}: node {node} received the owner "
                    "token on a transfer the custody chain does not carry "
                    "it on"
                )
            self._owner_at[block] = ("node", node)
        self._emit(t, "recv", block, node, src, tokens, owner, xfer)

    def merged(
        self, block: int, node: int, into: str, tokens: int, owner: bool,
        t: float,
    ) -> None:
        """Received tokens merged into a holder (``into``: cache|memory)."""
        self._emit(t, f"merge-{into}", block, node, tokens=tokens, owner=owner)

    # ------------------------------------------------------------------
    # Recovery landmarks
    # ------------------------------------------------------------------

    def transaction_complete(self, block: int, node: int, t: float) -> None:
        """``node``'s miss transaction for ``block`` completed."""
        self._txn_done.add((block, node))
        self._emit(t, "txn-done", block, node)

    def request_dropped(
        self, block: int, requester: int, at: int, t: float
    ) -> None:
        """A fault discarded a transient request serving ``requester``'s
        transaction for ``block`` (``at``: the receiving node for a
        corruption drop, -1 for a link-level flap drop).

        The outcome contract requires every such chain to terminate as
        ``absorbed-by-reissue``: the transaction must still complete via
        the surviving copies, a reissue, or the persistent-request path.
        """
        self._drops.append((block, requester))
        self._emit(t, "req-drop", block, requester, peer=at)

    def note(
        self, block: int, kind: str, node: int, t: float, peer: int = -1
    ) -> None:
        """An annotation landmark (reissue, persistent session events)."""
        self._emit(t, kind, block, node, peer)

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------

    def finalize(self, now: float | None = None) -> None:
        """Write the terminal events once the event queue has drained.

        Every dropped-request chain whose transaction completed gets an
        ``absorbed-by-reissue`` terminal; every node the custody model
        leaves holding tokens gets a ``quiesce`` terminal (with the
        owner flag where the model places the owner).  The contract
        check then verifies the terminals against the *actual* holders.
        """
        if now is None:
            now = self.events[-1][1] if self.events else 0.0
        for block, requester in self._drops:
            if (block, requester) in self._txn_done:
                self._absorbed += 1
                self._emit(now, "absorbed-by-reissue", block, requester)
        for block in sorted(self._at):
            owner_at = self._owner_at.get(block)
            balances = self._at[block]
            for node in sorted(balances):
                tokens = balances[node]
                if tokens > 0:
                    self._emit(
                        now, "quiesce", block, node, tokens=tokens,
                        owner=owner_at == ("node", node),
                    )
        self.finalized = True

    # ------------------------------------------------------------------
    # Introspection (contract check, stores, reports)
    # ------------------------------------------------------------------

    def blocks(self) -> list[int]:
        return sorted(self._at)

    def balances(self, block: int) -> dict[int, int]:
        return dict(self._at.get(block, {}))

    def owner_position(self, block: int) -> tuple | None:
        return self._owner_at.get(block)

    def open_transfers(self) -> list[tuple]:
        """(xfer, block, src, dst, tokens, owner) sends never received."""
        return sorted(self._open.values())

    def dropped_requests(self) -> list[tuple[int, int]]:
        return list(self._drops)

    def stats(self) -> dict[str, int]:
        """Aggregate counters (ScenarioOutcome / campaign reports)."""
        terminals = sum(1 for e in self.events if e[2] in TERMINAL_KINDS)
        return {
            "lineage_events": len(self.events),
            "lineage_transfers": self._xfers,
            "lineage_blocks": len(self._at),
            "lineage_terminals": terminals,
            "lineage_absorbed_reissues": self._absorbed,
        }
