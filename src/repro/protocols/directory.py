"""Full-map blocking MOSI directory protocol (Section 5.1).

Modeled on the SGI Origin 2000 [23] and Alpha 21364 [32]: every request
goes to the block's home node, whose directory orders requests per block
by *blocking* — while a transaction is outstanding the home queues all
later requests for that block (no nacks, no retries).  The home forwards
requests to a cache owner, sends invalidations to sharers (who
acknowledge directly to the requester), and waits for the requester's
unblock message before serving the next request.

The directory state lives in main-memory DRAM (Table 1: 80 ns), so a
cache-to-cache miss pays home indirection *plus* a DRAM directory
lookup; ``directory_latency_ns = 0`` models the "perfect" directory
cache variant the paper also evaluates.

This is the protocol whose added indirection on cache-to-cache misses
TokenB is designed to avoid (Figure 5).
"""

from __future__ import annotations

from repro.coherence.controller import ProtocolError
from repro.coherence.messages import CoherenceMessage
from repro.protocols.mosi import MEMORY, BlockingHomeNode, HomeBlock, MosiMiss


class DirectoryBlock(HomeBlock):
    """Full-map directory state for one home block."""

    __slots__ = ("owner", "sharers")

    def __init__(self) -> None:
        super().__init__()
        self.owner = MEMORY
        self.sharers: set[int] = set()


class DirectoryNode(BlockingHomeNode):
    """One node of the directory MOSI system."""

    home_record = DirectoryBlock

    handlers = {
        **BlockingHomeNode.handlers,
        "FWD_GETS": "_handle_forward",
        "FWD_GETM": "_handle_forward",
        "INV": "_handle_invalidation",
        "DATA": "_handle_data",
        "ACK_COUNT": "_handle_ack_count",
    }

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------

    def _home_serve(
        self, home: DirectoryBlock, block: int, mtype: str, requester: int,
        tx: int,
    ) -> None:
        del tx
        if mtype == "GETS":
            if home.owner == MEMORY:
                # Data and directory state come from the same DRAM access.
                # The home stays blocked until the requester's unblock so
                # a later GETM cannot invalidate data still in flight.
                delay = self.config.controller_latency_ns + self.config.dram_latency_ns
                self.sim.post(
                    delay, self._home_memory_data, block, requester, 0
                )
            else:
                delay = (
                    self.config.controller_latency_ns
                    + self.config.directory_latency_ns
                )
                self.sim.post(
                    delay, self._home_forward, block, requester, "FWD_GETS", 0
                )
        else:  # GETM
            # The owner is handled by the forward, not an invalidation.
            invalidatees = sorted(
                proc
                for proc in home.sharers
                if proc != requester and proc != home.owner
            )
            ack_count = len(invalidatees)
            dir_delay = (
                self.config.controller_latency_ns + self.config.directory_latency_ns
            )
            for proc in invalidatees:
                self.sim.post(
                    dir_delay, self._home_invalidate, block, proc, requester
                )
            if home.owner == MEMORY:
                delay = self.config.controller_latency_ns + self.config.dram_latency_ns
                self.sim.post(
                    delay, self._home_memory_data, block, requester, ack_count
                )
            elif home.owner == requester:
                # Upgrade by the current owner: it has data, needs acks.
                self.sim.post(
                    dir_delay, self._home_ack_count, block, requester, ack_count
                )
            else:
                self.sim.post(
                    dir_delay,
                    self._home_forward,
                    block,
                    requester,
                    "FWD_GETM",
                    ack_count,
                )

    def _home_accept_put(
        self, home: DirectoryBlock, block: int, requester: int, version: int
    ) -> bool:
        del block, version
        if home.owner != requester:
            return False  # ownership moved past the PUT
        home.owner = MEMORY
        return True

    def _home_memory_data(
        self, block: int, requester: int, ack_count: int
    ) -> None:
        data = self.make_data(
            dst=requester,
            mtype="DATA",
            block=block,
            requester=requester,
            data_version=self.dram.get(block, 0),
            acks_expected=ack_count,
            category="data",
            vnet="response",
            tag=1,
        )
        self.send_msg(data)

    def _home_forward(
        self, block: int, requester: int, mtype: str, ack_count: int
    ) -> None:
        fwd = self.make_control(
            dst=self._homes[block].owner,
            mtype=mtype,
            block=block,
            requester=requester,
            acks_expected=ack_count,
            category="forward",
            vnet="forward",
        )
        self.send_msg(fwd)

    def _home_invalidate(self, block: int, proc: int, requester: int) -> None:
        inv = self.make_control(
            dst=proc,
            mtype="INV",
            block=block,
            requester=requester,
            category="invalidation",
            vnet="forward",
        )
        self.send_msg(inv)

    def _home_ack_count(self, block: int, requester: int, ack_count: int) -> None:
        msg = self.make_control(
            dst=requester,
            mtype="ACK_COUNT",
            block=block,
            acks_expected=ack_count,
            category="control",
            vnet="response",
        )
        self.send_msg(msg)

    def _home_unblocked(
        self, home: DirectoryBlock, msg: CoherenceMessage
    ) -> None:
        if msg.tag:
            # Exclusive completion (a GETM): the requester is the sole
            # M owner.
            home.owner = msg.src
            home.sharers = {msg.src}
        else:  # forwarded GETS: requester became a sharer, owner kept O.
            home.sharers.add(msg.src)

    # ------------------------------------------------------------------
    # Cache side: forwards, invalidations, responses
    # ------------------------------------------------------------------

    def _handle_forward(self, msg: CoherenceMessage) -> None:
        exclusive = msg.mtype == "FWD_GETM"
        self.sim.post(
            self.config.l2_latency_ns, self._forward_respond, msg, exclusive
        )

    def _forward_respond(self, msg: CoherenceMessage, exclusive: bool) -> None:
        block = msg.block
        requester = msg.requester
        wb = self.writeback_buffer.get(block)
        if wb is not None:
            if exclusive:
                wb.superseded = True
            self._send_data(requester, block, wb.version, msg.acks_expected)
            return
        line = self.l2.peek(block)
        if line is None or line.state not in ("M", "O"):
            raise ProtocolError(
                f"forward for {block:#x} found no owner at P{self.node_id} "
                f"(line={line}) — blocking directory should prevent this"
            )
        if exclusive:
            self._send_data(requester, block, line.version, msg.acks_expected)
            self._drop_line(block)
        else:
            if line.state == "M" and not line.dirty:
                self.predictor.observe_read_shared(block)
            self._send_data(requester, block, line.version, 0)
            line.state = "O"

    def _send_data(
        self, requester: int, block: int, version: int, ack_count: int
    ) -> None:
        data = self.make_data(
            dst=requester,
            mtype="DATA",
            block=block,
            requester=requester,
            data_version=version,
            acks_expected=ack_count,
            category="data",
            vnet="response",
        )
        self.send_msg(data)

    def _handle_invalidation(self, msg: CoherenceMessage) -> None:
        line = self.l2.peek(msg.block)
        if line is not None and line.state == "S":
            self._drop_line(msg.block)
        entry = self.mshrs.get(msg.block)
        if entry is not None and not entry.as_getm:
            # The invalidation raced ahead of our GETS data (the home
            # sent memory data and moved on): the data may be used once,
            # then must die — same as a snooping use-once.
            entry.use_once = True
        # Always acknowledge (silent S evictions leave stale sharer bits).
        ack = self.make_control(
            dst=msg.requester,
            mtype="ACK",
            block=msg.block,
            category="ack",
            vnet="response",
        )
        self.send_msg(ack)

    def _handle_data(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return  # late data after an upgrade raced; drop
        entry.have_data = True
        entry.data_version = msg.data_version
        entry.data_source = "memory" if msg.tag else "cache"
        if entry.acks_needed is None:
            entry.acks_needed = msg.acks_expected
        self._maybe_complete(entry)

    def _handle_ack_count(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        entry.acks_needed = msg.acks_expected
        line = self.l2.peek(msg.block)
        if line is None or line.state not in ("M", "O"):
            raise ProtocolError("ACK_COUNT without an owned copy")
        entry.have_data = True
        entry.data_version = line.version
        self._maybe_complete(entry)

    def _maybe_complete(self, entry: MosiMiss) -> None:
        if (
            entry.have_data
            and entry.acks_needed is not None
            and entry.acks >= entry.acks_needed
        ):
            self._fill(entry, entry.data_version)
