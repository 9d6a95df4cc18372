"""TokenB: Token-Coherence-using-Broadcast (Section 4.2).

TokenB is pure *policy* layered on the correctness substrate.  It makes
three choices, all reproduced here:

* **Issuing transient requests** — broadcast every transient request to
  all nodes (cheap on moderate-sized, high-bandwidth glueless systems).
* **Responding to transient requests** — respond as a traditional MOSI
  snooping protocol would: I ignores everything; S ignores GETS but
  yields all tokens datalessly on GETM (like an invalidation ack); O
  answers GETS with data plus one (usually non-owner) token and GETM
  with data plus all tokens; M behaves like O except for the migratory
  optimization (a dirty M block answers even a GETS with data and *all*
  tokens, granting read/write permission to migratory data).
* **Reissuing** — if a transient request has not completed after twice
  the recent average miss latency plus a randomized exponential backoff,
  reissue it; after ``reissue_limit`` (~4) reissues — or ten average
  miss times — invoke the substrate's persistent-request mechanism.

None of these choices is needed for correctness: races can make any of
them fail, and the substrate's token counting plus persistent requests
cover every such case (Sections 3 and 4.1).
"""

from __future__ import annotations

from repro.coherence.checker import CoherenceChecker
from repro.coherence.messages import CoherenceMessage
from repro.core.substrate import TokenMiss, TokenNodeBase
from repro.core.tokens import TokenLedger
from repro.interconnect.message import BROADCAST
from repro.interconnect.topology import Interconnect
from repro.sim.kernel import Simulator
from repro.sim.rng import ExponentialBackoff, derive_rng
from repro.sim.stats import Counter
from repro.config import SystemConfig


class TokenBNode(TokenNodeBase):
    """A node running the TokenB performance protocol."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Interconnect,
        config: SystemConfig,
        checker: CoherenceChecker,
        counters: Counter,
        ledger: TokenLedger,
    ) -> None:
        super().__init__(node_id, sim, network, config, checker, counters, ledger)
        self._backoff_rng = derive_rng(config.seed, "tokenb-backoff", node_id)
        #: Subclasses may disable the owner-side migratory handoff
        #: (TokenD replaces it with requester-side prediction).
        self.owner_side_migratory = True

    # ------------------------------------------------------------------
    # Policy: issuing transient requests (broadcast)
    # ------------------------------------------------------------------

    def _issue_transaction(self, entry: TokenMiss) -> None:
        entry.backoff = ExponentialBackoff(
            self._backoff_rng,
            self.config.backoff_initial_ns,
            self.config.backoff_max_ns,
        )
        self._send_transient(entry, category="request")
        self._arm_reissue_timer(entry)

    def _send_transient(self, entry: TokenMiss, category: str) -> None:
        mtype = "GETM" if entry.for_write else "GETS"
        msg = self.make_control(
            dst=BROADCAST,
            mtype=mtype,
            block=entry.block,
            requester=self.node_id,
            category=category,
            vnet="request",
        )
        self.broadcast_msg(msg, include_self=False)
        if self.is_home(entry.block):
            self._ask_own_memory(entry.block, mtype, category)

    def _ask_own_memory(self, block: int, mtype: str, category: str) -> None:
        """Let this node's memory controller consider its own transient
        request, which the network never delivers back to the sender."""
        local = self.make_control(
            dst=self.node_id,
            mtype=mtype,
            block=block,
            requester=self.node_id,
            category=category,
            vnet="request",
        )
        self.sim.post(self._home_delay, self._memory_respond, local)

    # ------------------------------------------------------------------
    # Policy: reissue timeout, then persistent escalation
    # ------------------------------------------------------------------

    def _arm_reissue_timer(self, entry: TokenMiss) -> None:
        timeout = (
            self.config.reissue_timeout_multiplier * self.miss_latency.ewma
            + entry.backoff.next_delay()
        )
        entry.timer = self.sim.schedule(
            timeout, self._reissue_timer_fired, entry
        )

    def _reissue_timer_fired(self, entry: TokenMiss) -> None:
        if self.mshrs.get(entry.block) is not entry:
            return  # transaction already completed; stale timer
        if entry.persistent:
            return  # the persistent mechanism will finish the job
        elapsed = self.sim._now - entry.issued_at
        starving = (
            entry.reissues >= self.config.reissue_limit
            or elapsed
            >= self.config.persistent_timeout_multiplier * self.miss_latency.ewma
        )
        if starving:
            self.invoke_persistent_request(entry)
            return
        entry.reissues += 1
        self.counters.add("reissued_request")
        self._send_transient(entry, category="reissue")
        self._arm_reissue_timer(entry)

    # ------------------------------------------------------------------
    # Policy: responding to transient requests (MOSI-like, Section 4.2)
    # ------------------------------------------------------------------

    def _cache_respond(self, msg: CoherenceMessage) -> None:
        block = msg.block
        if self._table_by_block.get(block) is not None:
            return  # active persistent requests override policy
        if msg.requester == self.node_id:
            return
        line = self.l2.peek(block)
        if line is None or line.tokens == 0:
            return  # state I ignores all requests
        if msg.mtype == "GETS":
            if not line.owner_token:
                return  # state S ignores shared requests
            migratory = (
                self.config.migratory_optimization
                and self.owner_side_migratory
                and line.tokens == self.total_tokens
                and line.dirty
            )
            if migratory:
                # Written migratory data: hand over read/write permission.
                self.counters.add("migratory_transfer")
                self.release_line_tokens(line, msg.requester, "data")
            elif line.tokens >= 2:
                # O/M: data plus one (non-owner) token; stay owner.
                line.tokens -= 1
                self.send_tokens(
                    msg.requester, block, 1, False, line.version, "data"
                )
            else:
                # Only the owner token left: it must go (with data).
                self.release_line_tokens(line, msg.requester, "data")
        else:  # GETM
            category = "data" if line.owner_token else "token"
            self.release_line_tokens(line, msg.requester, category)

    def _memory_respond(self, msg: CoherenceMessage) -> None:
        block = msg.block
        if not self.is_home(block):
            return
        if self.persistent_entry_for(block) is not None:
            return
        mem = self._memory_state(block)
        if mem.tokens == 0:
            return
        if msg.mtype == "GETS":
            if not mem.owner or not mem.valid:
                return
            version = self.dram.get(block, 0)
            if mem.tokens >= 2:
                mem.tokens -= 1
                self.send_tokens(
                    msg.requester, block, 1, False, version, "data",
                    from_memory=True,
                )
            else:
                self.send_tokens(
                    msg.requester, block, 1, True, version, "data",
                    from_memory=True,
                )
                mem.tokens = 0
                mem.owner = False
                mem.valid = False
        else:  # GETM
            self._forward_memory_tokens(block, msg.requester)
