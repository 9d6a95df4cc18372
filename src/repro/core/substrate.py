"""Correctness substrate: per-node token mechanics (Section 3).

:class:`TokenNodeBase` implements everything the paper assigns to the
*correctness substrate* — the part that guarantees safety and starvation
freedom no matter what the performance protocol does:

* token storage in the cache (tag state) and home memory (ECC bits);
* the valid-data bit and the optimized invariants #1'-#4' (Section 3.1);
* acceptance, redirection, and eviction of tokens ("important freedom in
  what the invariants do not specify");
* the persistent-request table (one entry per arbiter), activation /
  deactivation handling, and forwarding of present-and-future tokens to
  an active initiator (Section 3.2);
* the arbiter for blocks homed at this node.

Its ``handlers`` table, bound per node by
:class:`~repro.coherence.controller.ProtocolNode`, names where each
message goes: transient requests to the snoop timing
(``_handle_transient``), tokens and activations to the substrate, and
the arbiter's four messages to this home's arbiter.

Performance protocols subclass this and supply only *policy*: when to
issue transient requests and how to respond to them
(:class:`~repro.core.tokenb.TokenBNode` for the paper's TokenB;
:class:`~repro.core.null_protocol.NullTokenNode` for the degenerate
protocol the paper argues is still correct).  Policy hooks can fail or
do nothing without compromising safety — that is the decoupling the
paper's title promises, reproduced in the class split.
"""

from __future__ import annotations

import dataclasses
from heapq import heappush

from repro.cache.cache import CacheLine
from repro.cache.mshr import MshrEntry
from repro.coherence.checker import CoherenceChecker
from repro.coherence.controller import ProtocolError, ProtocolNode
from repro.coherence.messages import CoherenceMessage
from repro.core.persistent import PersistentArbiter
from repro.core.tokens import TokenInvariantError, TokenLedger
from repro.interconnect.message import CONTROL_MESSAGE_BYTES, DATA_MESSAGE_BYTES
from repro.interconnect.topology import Interconnect
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.rng import ExponentialBackoff
from repro.sim.stats import Counter, LatencyTracker
from repro.config import SystemConfig


class TokenMiss(MshrEntry):
    """One outstanding Token Coherence miss: the substrate's state and
    the fields the performance policies add."""

    __slots__ = (
        "reissues", "persistent", "data_source", "backoff", "timer",
        "as_getm", "predicted", "responders",
    )

    def __init__(self, block: int, for_write: bool, issued_at: float) -> None:
        super().__init__(block, for_write, issued_at)
        #: Transient reissues so far (Table 2's miss classes).
        self.reissues = 0
        #: The miss escalated to a persistent request.
        self.persistent = False
        #: ``"memory"`` or ``"cache"``: who sent the data (counted as
        #: ``data_from_*``).
        self.data_source = ""
        #: TokenB: the randomized reissue backoff.
        self.backoff: ExponentialBackoff | None = None
        #: The pending reissue or escalation timer (a kernel event).
        self.timer: Event | None = None
        #: TokenD: the request sent (a predicted migratory load asks for
        #: exclusive permission).
        self.as_getm = for_write
        #: TokenM: the predicted destination set (None: broadcast), and
        #: the nodes whose tokens answered it.
        self.predicted: frozenset[int] | None = None
        self.responders: set[int] | None = None


class OwnPersistentRequest:
    """This node's own persistent request for one block (Section 3.2)."""

    __slots__ = ("active", "satisfied", "reinvoke")

    def __init__(self) -> None:
        #: The arbiter has activated it.
        self.active = False
        #: Its miss completed; the deactivation is under way.
        self.satisfied = False
        #: A newer miss escalated mid-teardown: request again once the
        #: deactivation lands.
        self.reinvoke = False


@dataclasses.dataclass
class _MemoryTokens:
    """Home memory's token state for one block (kept in ECC bits)."""

    tokens: int
    owner: bool
    valid: bool


@dataclasses.dataclass
class _TableEntry:
    """A remembered persistent request (8 bytes of hardware per arbiter)."""

    arbiter: int
    block: int
    requester: int
    tag: int


class TokenNodeBase(ProtocolNode):
    """Substrate mechanics shared by every Token Coherence node."""

    miss_record = TokenMiss

    handlers = {
        "GETS": "_handle_transient",
        "GETM": "_handle_transient",
        "TOKEN_DATA": "_handle_tokens",
        "TOKEN_ONLY": "_handle_tokens",
        "PACT": "_handle_activation",
        "PDEACT": "_handle_deactivation",
        # To this home's arbiter.
        "PREQ": "_handle_preq",
        "PACT_ACK": "_handle_pact_ack",
        "PDEACT_REQ": "_handle_pdeact_req",
        "PDEACT_ACK": "_handle_pdeact_ack",
    }

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
        super().__init__(node_id, sim, network, config, checker, counters)
        self.total_tokens = config.total_tokens
        self.ledger = ledger
        ledger.register_holder(self)
        self.arbiter = PersistentArbiter(self)
        #: Persistent-request table: one entry per arbiter (Section 3.2).
        self._table_by_arbiter: dict[int, _TableEntry] = {}
        self._table_by_block: dict[int, _TableEntry] = {}
        #: This node's own outstanding persistent requests, by block.
        self._my_persistent: dict[int, OwnPersistentRequest] = {}
        #: Home memory token state, lazily "all tokens at home".
        self._memory: dict[int, _MemoryTokens] = {}
        self.miss_latency = LatencyTracker(initial=4 * config.link_latency_ns * 4)
        # Hot-path constants, hoisted out of the per-message handlers.
        self._snoop_delay = config.l2_latency_ns
        self._home_delay = config.controller_latency_ns + config.dram_latency_ns

    # ------------------------------------------------------------------
    # Token ledger interface
    # ------------------------------------------------------------------

    def tokens_held(self, block: int) -> tuple[int, int]:
        """(tokens, owner-count) currently held by this node."""
        tokens = 0
        owners = 0
        line = self.l2.peek(block)
        if line is not None:
            tokens += line.tokens
            owners += 1 if line.owner_token else 0
        if self.is_home(block):
            mem = self._memory_state(block)
            tokens += mem.tokens
            owners += 1 if mem.owner else 0
        return tokens, owners

    def _memory_state(self, block: int) -> _MemoryTokens:
        if block % self._home_mod != self.node_id:
            raise ProtocolError(f"node {self.node_id} is not home for {block:#x}")
        mem = self._memory.get(block)
        if mem is None:
            mem = _MemoryTokens(self.total_tokens, True, True)
            self._memory[block] = mem
        return mem

    # ------------------------------------------------------------------
    # Permission predicates (Invariants #2' and #3')
    # ------------------------------------------------------------------

    def _line_can_read(self, line: CacheLine) -> bool:
        return line.tokens >= 1 and line.valid_data

    def _line_can_write(self, line: CacheLine) -> bool:
        return line.tokens == self.total_tokens

    # ------------------------------------------------------------------
    # Transient requests: timing, then defer to the performance policy
    # ------------------------------------------------------------------

    # Snoop responses are timed two ways, kept apart on purpose: kernel
    # jitter reaches the posts of _post_snoop (TokenD, TokenM) but not
    # the inline pushes of _handle_transient (TokenB, the null protocol).
    # Merging the two would let it reach both, which moves every
    # kernel-jittered outcome (an open ROADMAP item).

    def _handle_transient(self, msg: CoherenceMessage) -> None:
        # Cache-side snoop costs an L2 tag access; memory-side response
        # needs the controller plus the DRAM (data + ECC token state).
        # The most frequent message: both posts are pushed inline, with
        # the stock ``Simulator.post`` arithmetic.
        sim = self.sim
        args = (msg,)
        heap = sim._heap
        now = sim._now
        seq = sim._seq
        heappush(
            heap, (now + self._snoop_delay, seq, self._cache_respond, args)
        )
        if msg.block % self._home_mod == self.node_id:
            seq += 1
            heappush(
                heap, (now + self._home_delay, seq, self._memory_respond, args)
            )
        sim._seq = seq + 1

    def _post_snoop(self, msg: CoherenceMessage) -> None:
        """:meth:`_handle_transient` through the kernel's ``post``."""
        sim = self.sim
        sim.post(self._snoop_delay, self._cache_respond, msg)
        if msg.block % self._home_mod == self.node_id:
            sim.post(self._home_delay, self._memory_respond, msg)

    def _cache_respond(self, msg: CoherenceMessage) -> None:
        """Performance-protocol policy hook (Section 4.1: the protocol
        asks the substrate to respond on its behalf)."""
        del msg

    def _memory_respond(self, msg: CoherenceMessage) -> None:
        """Performance-protocol policy hook for the home memory."""
        del msg

    # ------------------------------------------------------------------
    # Token movement (the safety-critical part)
    # ------------------------------------------------------------------

    def send_tokens(
        self,
        dst: int,
        block: int,
        tokens: int,
        owner: bool,
        version: int | None,
        category: str,
        from_memory: bool = False,
    ) -> None:
        """Emit a token-carrying coherence message (Invariant #4').

        The owner token must travel with data; non-owner tokens may move
        datalessly (the bandwidth optimization of Section 3.1).
        """
        if tokens < 1:
            raise TokenInvariantError("cannot send a message with zero tokens")
        if owner and version is None:
            raise TokenInvariantError(
                "owner token must travel with data (Invariant #4')"
            )
        data = version is not None
        msg = CoherenceMessage(
            src=self.node_id,
            dst=dst,
            size_bytes=DATA_MESSAGE_BYTES if data else CONTROL_MESSAGE_BYTES,
            category=category,
            vnet="response",
            mtype="TOKEN_DATA" if data else "TOKEN_ONLY",
            block=block,
            tokens=tokens,
            owner_token=owner,
            data_version=version,
            tag=1 if from_memory else 0,
        )
        self.ledger.message_sent(block, tokens, owner)
        self.send_msg(msg)

    def _handle_tokens(self, msg: CoherenceMessage) -> None:
        block = msg.block
        self.ledger.message_received(block, msg.tokens, msg.owner_token)
        entry = self._table_by_block.get(block)
        if entry is not None and entry.requester != self.node_id:
            # Active persistent request: forward "those tokens ...
            # received in the future" straight to the initiator.
            self.send_tokens(
                entry.requester,
                block,
                msg.tokens,
                msg.owner_token,
                msg.data_version,
                category="data" if msg.carries_data() else "token",
                from_memory=bool(msg.tag),
            )
            return
        self._absorb_tokens(msg)

    def _absorb_tokens(self, msg: CoherenceMessage) -> None:
        block = msg.block
        if (
            block in self.mshrs
            or self.l2.contains(block)
            or self.l2.set_has_room(block)
        ):
            self._absorb_into_cache(msg)
        elif self.is_home(block):
            self._absorb_into_memory(msg)
        else:
            # No room to cache them: redirect to the home memory (the
            # substrate's freedom to re-route tokens, Section 3.1).
            self.send_tokens(
                self.home_of(block),
                block,
                msg.tokens,
                msg.owner_token,
                msg.data_version,
                category="data" if msg.carries_data() else "token",
            )

    def _absorb_into_cache(self, msg: CoherenceMessage) -> None:
        block = msg.block
        line = self._install_line(block)
        had_valid = line.valid_data
        line.tokens += msg.tokens
        if line.tokens > self.total_tokens:
            raise TokenInvariantError(
                f"block {block:#x}: cache accumulated {line.tokens} > T"
            )
        if msg.owner_token:
            if line.owner_token:
                raise TokenInvariantError(
                    f"block {block:#x}: duplicate owner token"
                )
            line.owner_token = True
        if msg.carries_data():
            if had_valid and line.version != msg.data_version:
                raise TokenInvariantError(
                    f"block {block:#x}: valid copies disagree "
                    f"(v{line.version} vs v{msg.data_version})"
                )
            line.version = msg.data_version
            line.valid_data = True
        if msg.tag:
            # Remember the data source for miss classification.
            mshr = self.mshrs.get(block)
            if mshr is not None and msg.carries_data():
                mshr.data_source = "memory"
        elif msg.carries_data():
            mshr = self.mshrs.get(block)
            if mshr is not None:
                mshr.data_source = "cache"
        self._after_token_gain(block)

    def _absorb_into_memory(self, msg: CoherenceMessage) -> None:
        mem = self._memory_state(msg.block)
        mem.tokens += msg.tokens
        if mem.tokens > self.total_tokens:
            raise TokenInvariantError(
                f"block {msg.block:#x}: memory accumulated {mem.tokens} > T"
            )
        if msg.owner_token:
            if mem.owner:
                raise TokenInvariantError(
                    f"block {msg.block:#x}: duplicate owner token at memory"
                )
            mem.owner = True
        if msg.carries_data():
            if mem.valid and self.dram.get(msg.block, 0) != msg.data_version:
                raise TokenInvariantError(
                    f"block {msg.block:#x}: memory valid copy disagrees"
                )
            self.dram[msg.block] = msg.data_version
            mem.valid = True

    def _after_token_gain(self, block: int) -> None:
        """Check whether an outstanding miss is now satisfied."""
        entry = self.mshrs.get(block)
        line = self.l2.peek(block)
        if entry is None or line is None:
            return
        if entry.for_write:
            satisfied = line.tokens == self.total_tokens and line.valid_data
        else:
            satisfied = line.tokens >= 1 and line.valid_data
        if satisfied:
            self._complete_token_transaction(entry)

    def _complete_token_transaction(self, entry: TokenMiss) -> None:
        timer = entry.timer
        if timer is not None:
            timer.cancel()
            entry.timer = None
        self.miss_latency.record(self.sim._now - entry.issued_at)
        source = entry.data_source
        if source:
            self.counters.add(f"data_from_{source}")
        block = entry.block
        self._finish_mshr(entry)
        if block in self._my_persistent:
            self._my_persistent_satisfied(block)

    def _record_miss_class(self, entry: TokenMiss) -> None:
        """Table 2 classification (mutually exclusive buckets)."""
        if entry.persistent:
            self.counters.add("miss_persistent")
        else:
            reissues = entry.reissues
            if reissues == 0:
                self.counters.add("miss_not_reissued")
            elif reissues == 1:
                self.counters.add("miss_reissued_once")
            else:
                self.counters.add("miss_reissued_multi")

    # ------------------------------------------------------------------
    # Cache line release paths
    # ------------------------------------------------------------------

    def _token_destination(self, block: int) -> int:
        """Where released tokens must go: an active persistent initiator
        takes precedence over the home memory."""
        entry = self._table_by_block.get(block)
        if entry is not None and entry.requester != self.node_id:
            return entry.requester
        return self.home_of(block)

    def release_line_tokens(
        self, line: CacheLine, dst: int, category: str
    ) -> None:
        """Send all of a line's tokens to ``dst`` and drop the line."""
        block = line.block
        if line.tokens > 0:
            version = line.version if line.owner_token else None
            self.send_tokens(
                dst, block, line.tokens, line.owner_token, version, category
            )
        self._drop_line(block)

    def _evict_line(self, line: CacheLine) -> None:
        """Eviction: send all tokens (and data if owner) away.

        "To evict a block from a cache, the processor simply sends all
        its tokens (and data if the message includes the owner token) to
        the memory" — or to an active persistent initiator.
        """
        category = "writeback" if line.owner_token else "token"
        self.release_line_tokens(line, self._token_destination(line.block), category)

    def _line_evictable(self, line: CacheLine) -> bool:
        # Never displace a block we hold under our own persistent request.
        return line.block not in self._my_persistent

    # ------------------------------------------------------------------
    # Persistent requests: node side (Section 3.2)
    # ------------------------------------------------------------------

    def force_escalation(self, block: int) -> None:
        """Escalate the outstanding miss for ``block`` right now (if any).

        A timeout/reissue knob for the adversarial test harness: the
        performance protocol's own timers normally decide when a starving
        miss falls back to the persistent-request mechanism, but because
        escalation is pure substrate machinery it must be safe at *any*
        moment — even immediately after issue, or for a protocol that
        would never have escalated on its own.  No-op if the miss has
        already completed or already went persistent.
        """
        entry = self.mshrs.get(block)
        if entry is not None:
            self.invoke_persistent_request(entry)

    def invoke_persistent_request(self, entry: TokenMiss) -> None:
        """Escalate a starving miss to the persistent-request mechanism."""
        block = entry.block
        mine = self._my_persistent.get(block)
        if mine is not None:
            if mine.satisfied:
                # The previous session for this block is tearing down
                # and no longer collects tokens, so it cannot serve this
                # new miss: re-invoke the moment the deactivation lands.
                # (Silently dropping the escalation here orphaned the
                # miss forever — the reissue timer is not re-armed after
                # escalating — a liveness bug found by the adversarial
                # schedule explorer: tokenb/tree, arbiter contention,
                # jitter + drops, seed 26.)
                mine.reinvoke = True
            return
        entry.persistent = True
        self.counters.add("persistent_request")
        self._my_persistent[block] = OwnPersistentRequest()
        msg = self.make_control(
            dst=self.home_of(block),
            mtype="PREQ",
            block=block,
            requester=self.node_id,
            category="persistent",
            vnet="persistent",
        )
        self.send_msg(msg)

    def _handle_activation(self, msg: CoherenceMessage) -> None:
        arbiter = msg.src
        if arbiter in self._table_by_arbiter:
            raise ProtocolError(
                f"arbiter {arbiter} activated a second persistent request "
                "before deactivating the first"
            )
        entry = _TableEntry(arbiter, msg.block, msg.requester, msg.tag)
        self._table_by_arbiter[arbiter] = entry
        self._table_by_block[msg.block] = entry
        if msg.requester == self.node_id:
            mine = self._my_persistent.get(msg.block)
            if mine is not None:
                mine.active = True
                if mine.satisfied:
                    self._send_deactivate_request(msg.block)
            # A home-node initiator still needs the tokens its own
            # memory holds: move them into the local cache.
            if self.is_home(msg.block):
                self._forward_memory_tokens(msg.block, self.node_id)
        else:
            self._forward_held_tokens(entry)
        ack = self.make_control(
            dst=arbiter,
            mtype="PACT_ACK",
            block=msg.block,
            category="persistent",
            vnet="persistent",
        )
        self.send_msg(ack)

    def _forward_held_tokens(self, entry: _TableEntry) -> None:
        """Send every token this node holds for the block to the initiator."""
        block = entry.block
        line = self.l2.peek(block)
        if line is not None and line.tokens > 0:
            # A forwarded line may be mid-miss here; the MSHR (if any)
            # stays outstanding and will be satisfied later or escalate.
            category = "data" if line.owner_token else "token"
            self.release_line_tokens(line, entry.requester, category)
        elif line is not None:
            self._drop_line(block)
        if self.is_home(block):
            self._forward_memory_tokens(block, entry.requester)

    def _forward_memory_tokens(self, block: int, dst: int) -> None:
        """Ship the home memory's tokens for ``block`` to ``dst``."""
        mem = self._memory_state(block)
        if mem.tokens == 0:
            return
        if mem.owner and not mem.valid:
            raise TokenInvariantError(
                f"memory owns block {block:#x} without valid data"
            )
        version = self.dram.get(block, 0) if mem.owner else None
        self.send_tokens(
            dst,
            block,
            mem.tokens,
            mem.owner,
            version,
            category="data" if mem.owner else "token",
            from_memory=True,
        )
        mem.tokens = 0
        mem.owner = False
        mem.valid = False

    def _handle_deactivation(self, msg: CoherenceMessage) -> None:
        arbiter = msg.src
        entry = self._table_by_arbiter.pop(arbiter, None)
        if entry is None:
            raise ProtocolError(f"PDEACT from {arbiter} with no table entry")
        if self._table_by_block.get(entry.block) is entry:
            del self._table_by_block[entry.block]
        if msg.requester == self.node_id:
            mine = self._my_persistent.pop(msg.block, None)
            if mine is not None and mine.reinvoke:
                # An escalation arrived mid-teardown; serve it now that
                # a fresh session can be requested.
                new_entry = self.mshrs.get(msg.block)
                if new_entry is not None:
                    self.invoke_persistent_request(new_entry)
        ack = self.make_control(
            dst=arbiter,
            mtype="PDEACT_ACK",
            block=msg.block,
            category="persistent",
            vnet="persistent",
        )
        self.send_msg(ack)

    # The arbiter's four messages, passed to this home's arbiter.

    def _handle_preq(self, msg: CoherenceMessage) -> None:
        self.arbiter.handle_request(msg.block, msg.requester)

    def _handle_pact_ack(self, msg: CoherenceMessage) -> None:
        self.arbiter.handle_activation_ack(msg.src)

    def _handle_pdeact_req(self, msg: CoherenceMessage) -> None:
        self.arbiter.handle_deactivate_request(msg.block, msg.requester)

    def _handle_pdeact_ack(self, msg: CoherenceMessage) -> None:
        self.arbiter.handle_deactivation_ack(msg.src)

    def _my_persistent_satisfied(self, block: int) -> None:
        mine = self._my_persistent.get(block)
        if mine is None or mine.satisfied:
            return
        mine.satisfied = True
        if mine.active:
            self._send_deactivate_request(block)

    def _send_deactivate_request(self, block: int) -> None:
        msg = self.make_control(
            dst=self.home_of(block),
            mtype="PDEACT_REQ",
            block=block,
            requester=self.node_id,
            category="persistent",
            vnet="persistent",
        )
        self.send_msg(msg)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and examples)
    # ------------------------------------------------------------------

    def persistent_entry_for(self, block: int) -> _TableEntry | None:
        return self._table_by_block.get(block)

    def memory_tokens(self, block: int) -> tuple[int, bool, bool]:
        mem = self._memory_state(block)
        return mem.tokens, mem.owner, mem.valid
