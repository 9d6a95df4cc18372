"""TokenD: soft-state directory performance protocol (Section 7).

"We can reduce the traffic to directory protocol-like amounts by
constructing a directory-like performance protocol.  Processors first
send transient requests to the home node, and the home redirects the
request to likely sharers and/or the owner by using a 'soft state'
directory [25]."

The soft-state directory is just a guess: it lives in a bounded,
LRU-evicted :class:`~repro.predict.table.PredictionTable` (an evicted
entry is a forgotten hint, nothing more), and when it is wrong — silent
evictions, races, lost redirects — the request simply fails and the
normal reissue/persistent machinery recovers.  No substrate changes.
"""

from __future__ import annotations

import dataclasses

from repro.coherence.messages import CoherenceMessage
from repro.coherence.migratory import MigratoryPredictor
from repro.core.substrate import TokenMiss
from repro.core.tokenb import TokenBNode
from repro.predict.table import PredictionTable

#: ``tag`` value marking a request copy redirected by a TokenD home (so
#: it is not redirected again).
_REDIRECTED = 2


@dataclasses.dataclass
class _SoftDirEntry:
    """Best-effort guess at a block's current holders (home-side)."""

    owner: int | None = None  # None = memory probably owns
    sharers: set[int] = dataclasses.field(default_factory=set)


class TokenDNode(TokenBNode):
    """Directory-like Token Coherence performance protocol (Section 7).

    Transient requests go to the home node only; the home answers from
    memory when it can and redirects the request to the predicted owner
    (and, for exclusive requests, predicted sharers).  Wrong predictions
    cost a reissue, never correctness.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._soft_dir = PredictionTable(
            self.config.predictor_table_entries,
            self.counters,
            eviction_counter="softdir_eviction",
        )
        # Owner-side migratory handoffs are invisible to the home's soft
        # state (the owner token moves cache-to-cache), which would make
        # every migratory block a misprediction loop.  TokenD therefore
        # predicts migratory blocks at the *requester* and asks for
        # exclusive permission up front, like the baseline protocols.
        self.owner_side_migratory = False
        self.predictor = MigratoryPredictor(self.config.migratory_optimization)

    def _soft_entry(self, block: int) -> _SoftDirEntry:
        return self._soft_dir.get_or_create(block, _SoftDirEntry)

    # -- issue policy: unicast to home --------------------------------

    def _issue_transaction(self, entry: TokenMiss) -> None:
        line = self.l2.peek(entry.block)
        entry.as_getm = self.predictor.choose_getm(
            entry.block, entry.for_write, line is not None and line.tokens > 0
        )
        super()._issue_transaction(entry)

    def _send_transient(self, entry: TokenMiss, category: str) -> None:
        if entry.reissues > 0:
            # Misprediction: adapt to TokenB's broadcast mode (the
            # bandwidth-adaptive hybrid of Section 7 / [29]).
            self.counters.add("softdir_fallback_broadcast")
            super()._send_transient(entry, category)
            return
        mtype = "GETM" if entry.as_getm else "GETS"
        msg = self.make_control(
            dst=self.home_of(entry.block),
            mtype=mtype,
            block=entry.block,
            requester=self.node_id,
            category=category,
            vnet="request",
        )
        self.send_msg(msg)

    # -- home-side owner-token tracking ---------------------------------

    def send_tokens(self, dst, block, tokens, owner, version, category,
                    from_memory=False):
        if owner and from_memory and self.is_home(block):
            # The home just shipped the owner token: remember who to
            # redirect future requests to.
            soft = self._soft_entry(block)
            soft.owner = dst
            soft.sharers.add(dst)
        super().send_tokens(
            dst, block, tokens, owner, version, category,
            from_memory=from_memory,
        )

    # -- home-side redirection -----------------------------------------

    def _handle_transient(self, msg: CoherenceMessage) -> None:
        if self.is_home(msg.block) and msg.tag != _REDIRECTED:
            self._redirect_from_home(msg)
        self._post_snoop(msg)

    def _redirect_from_home(self, msg: CoherenceMessage) -> None:
        """Forward the request per the soft-state directory, then learn
        from it."""
        soft = self._soft_entry(msg.block)
        targets: set[int] = set()
        if soft.owner is not None:
            targets.add(soft.owner)
        if msg.mtype == "GETM":
            targets |= soft.sharers
        targets.discard(msg.requester)
        targets.discard(self.node_id)
        if targets:
            self.counters.add("softdir_redirect")
        for target in sorted(targets):
            copy = self.make_control(
                dst=target,
                mtype=msg.mtype,
                block=msg.block,
                requester=msg.requester,
                category="forward",
                vnet="forward",
                tag=_REDIRECTED,
            )
            self.sim.post(
                self.config.controller_latency_ns, self.send_msg, copy
            )
        # Learn: an exclusive requester becomes the sole predicted
        # holder; a shared requester joins the sharer guess.
        if msg.mtype == "GETM":
            soft.owner = msg.requester
            soft.sharers = {msg.requester}
        else:
            soft.sharers.add(msg.requester)
            if soft.owner is None:
                soft.owner = msg.requester

    def _absorb_into_memory(self, msg: CoherenceMessage) -> None:
        super()._absorb_into_memory(msg)
        # Tokens coming home (writebacks): memory likely owns again.
        if msg.owner_token:
            soft = self._soft_entry(msg.block)
            soft.owner = None
            soft.sharers.discard(msg.src)
