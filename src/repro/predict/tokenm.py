"""TokenM: predictive-multicast performance protocol (Section 7).

"Token Coherence can use destination-set prediction to achieve the
performance of broadcast while using less bandwidth by predicting a
subset of processors to which to send requests."

The node delegates the *who* to a trainable
:class:`~repro.predict.predictors.Predictor` (owner /
broadcast-if-shared / group, per ``SystemConfig.predictor``), learned
from the token responses this node absorbs and the persistent-request
activations it observes.  A first attempt multicasts to the predicted
holders plus the home; any reissue falls back to full broadcast, so a
cold or wrong prediction costs one timeout, never correctness.

With ``bandwidth_adaptive=True`` the node additionally runs the
:class:`~repro.predict.hybrid.BandwidthAdaptivePolicy`: while its
outgoing links are mostly idle it broadcasts like TokenB (bandwidth is
cheap, broadcast is latency-optimal), and it switches to predicted
multicast only once observed link utilization crosses the configured
threshold.
"""

from __future__ import annotations

from repro.coherence.messages import CoherenceMessage
from repro.core.substrate import TokenMiss
from repro.core.tokenb import TokenBNode
from repro.predict.hybrid import BandwidthAdaptivePolicy
from repro.predict.predictors import build_predictor


class TokenMNode(TokenBNode):
    """Destination-set-predicting Token Coherence protocol (Section 7)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.predictor = build_predictor(
            self.config, self.node_id, self.counters
        )
        self.hybrid: BandwidthAdaptivePolicy | None = None
        if self.config.bandwidth_adaptive:
            self.hybrid = BandwidthAdaptivePolicy(
                self.sim,
                self.network.outgoing_links(self.node_id),
                self.config.hybrid_utilization_threshold,
                self.config.hybrid_window_ns,
            )

    # -- learning: requests, responses (both directions), activations --

    def _handle_transient(self, msg: CoherenceMessage) -> None:
        if msg.requester != self.node_id:
            # Observed GETS/GETM traffic (broadcast fallbacks, reissues,
            # others' multicasts that reach us) names the nodes actively
            # touching a block; a GETM names the next sole holder.  This
            # is the self-correcting loop: a misprediction's broadcast
            # reissue retrains the whole system.
            self.predictor.train_request(
                msg.block, msg.requester, msg.mtype == "GETM"
            )
        self._post_snoop(msg)

    def _handle_tokens(self, msg: CoherenceMessage) -> None:
        if msg.src != self.node_id:
            if not msg.tag:
                # A cache (not the home memory, which every request
                # targets anyway) sent us tokens: it just held the block
                # — and without the owner token, it still does.
                self.predictor.train_response_received(
                    msg.block, msg.src, msg.owner_token
                )
            entry = self.mshrs.get(msg.block)
            if entry is not None:
                responders = entry.responders
                if responders is not None:
                    # Only tokens this node will absorb count as
                    # responses to its transaction — a foreign active
                    # persistent request makes the substrate forward
                    # them straight to the initiator instead.
                    table_entry = self._table_by_block.get(msg.block)
                    if (
                        table_entry is None
                        or table_entry.requester == self.node_id
                    ):
                        responders.add(msg.src)
        super()._handle_tokens(msg)

    def send_tokens(self, dst, block, tokens, owner, version, category,
                    from_memory=False):
        if dst != self.node_id:
            # Yielding tokens is the one observation a cache gets of a
            # block leaving it: dst (a requester, the home on eviction,
            # a persistent initiator) is the next holder — the sole one
            # if every token went.
            self.predictor.train_response_sent(
                block, dst, owner, tokens == self.total_tokens
            )
        super().send_tokens(
            dst, block, tokens, owner, version, category,
            from_memory=from_memory,
        )

    def _handle_activation(self, msg: CoherenceMessage) -> None:
        if msg.requester != self.node_id:
            # Every token in the system is about to flow to the
            # activation's requester — the strongest holder hint there is.
            self.predictor.train_activation(msg.block, msg.requester)
        super()._handle_activation(msg)

    # -- issue policy: multicast to the predicted set ------------------

    def predicted_destinations(self, block: int) -> set[int] | None:
        """The destination set for a first-attempt transient request
        (predicted holders plus the home, never this node), or ``None``
        when the predictor has nothing and the request must broadcast."""
        predicted = self.predictor.predict(block)
        if predicted is None:
            return None
        targets = set(predicted)
        targets.add(self.home_of(block))
        targets.discard(self.node_id)
        return targets

    def _send_transient(self, entry: TokenMiss, category: str) -> None:
        if entry.reissues > 0:
            # Misprediction: adapt to TokenB's broadcast mode.
            self.counters.add("destset_fallback_broadcast")
            super()._send_transient(entry, category)
            return
        if self.hybrid is not None and not self.hybrid.prefers_multicast():
            # Links are idle: broadcast is latency-optimal and the
            # bandwidth it burns is free right now.
            self.counters.add("hybrid_broadcast")
            entry.predicted = None
            super()._send_transient(entry, category)
            return
        targets = self.predicted_destinations(entry.block)
        if targets is None:
            # Cold block: fall back to broadcast.
            if self.hybrid is not None:
                self.counters.add("hybrid_broadcast")
            entry.predicted = None
            self.counters.add("destset_fallback_broadcast")
            super()._send_transient(entry, category)
            return
        if self.hybrid is not None:
            self.counters.add("hybrid_multicast")
        entry.predicted = frozenset(targets)
        entry.responders = set()
        self.counters.add("predict_multicast")
        mtype = "GETM" if entry.for_write else "GETS"
        for target in sorted(targets):
            msg = self.make_control(
                dst=target,
                mtype=mtype,
                block=entry.block,
                requester=self.node_id,
                category=category,
                vnet="request",
            )
            self.send_msg(msg)
        if self.is_home(entry.block):
            self._ask_own_memory(entry.block, mtype, category)

    # -- reissue policy: silence after a multicast means "wrong guess" --

    def _arm_reissue_timer(self, entry: TokenMiss) -> None:
        if entry.predicted and not entry.reissues:
            # A predicted attempt that stays silent almost certainly
            # missed the holders; fall back to broadcast sooner than
            # TokenB's general-purpose timeout would.  (Reissues are
            # broadcasts and pace themselves like TokenB's.)
            timeout = (
                self.config.predicted_reissue_timeout_multiplier
                * self.miss_latency.ewma
                + entry.backoff.next_delay()
            )
            entry.timer = self.sim.schedule(
                timeout, self._reissue_timer_fired, entry
            )
            return
        super()._arm_reissue_timer(entry)

    # -- scoring: close the loop when the transaction finishes ---------

    def _complete_token_transaction(self, entry: TokenMiss) -> None:
        predicted = entry.predicted
        if predicted is not None:
            reissued = entry.reissues > 0 or entry.persistent
            self.predictor.record_outcome(predicted, entry.responders, reissued)
        super()._complete_token_transaction(entry)
