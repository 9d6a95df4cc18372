"""Traditional split-transaction MOSI snooping (Section 5.1).

Based on modern virtual-bus designs (Sun Starfire [11]): every request
(GETS / GETM / PUT) is broadcast on the tree's totally-ordered virtual
network, and every node processes the resulting snoop stream in the same
global order.  The order resolves all races:

* a requester's own request in the stream is its *order point*;
* the unique responder for a request is the cache owner (M/O, or a
  writeback buffer whose PUT is not yet ordered) — or memory, which
  tracks ownership from the ordered stream itself and responds when it
  is the owner (the single "memory owns" bit of Frank [16], here an
  owner id so stale PUTs are recognized);
* requests ordered between a node's order point and its data arrival
  are deferred: queued for service after the data arrives (own GETM) or
  recorded as a use-once invalidation (own GETS).

Writebacks are two-phase: the line moves to a writeback buffer and a PUT
is broadcast; the buffer answers snoops ordered before the PUT, and when
the node observes its own PUT it ships the data to the home memory —
unless an intervening GETM superseded the eviction.

Requires the totally-ordered tree; the builder rejects snooping on the
torus, as does the paper (Figure 4: "not applicable").
"""

from __future__ import annotations

from repro.cache.cache import CacheLine
from repro.coherence.checker import CoherenceChecker
from repro.coherence.controller import ProtocolError
from repro.coherence.messages import CoherenceMessage
from repro.config import SystemConfig
from repro.interconnect.message import BROADCAST
from repro.interconnect.topology import Interconnect
from repro.interconnect.tree import ORDERED_VNET
from repro.protocols.mosi import MEMORY, MosiMiss, MosiNode
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter


class _HomeState:
    """Memory-side per-block state, updated in snoop order."""

    __slots__ = ("owner", "data_pending", "deferred")

    def __init__(self) -> None:
        self.owner: int = MEMORY
        self.data_pending = False
        #: Requests the memory must answer once writeback data arrives.
        self.deferred: list[tuple[int, int]] = []


class SnoopingNode(MosiNode):
    """One node of the snooping MOSI system."""

    handlers = {
        "GETS": "_snoop",
        "GETM": "_snoop",
        "PUT": "_snoop",
        "DATA": "_handle_data",
        "WB_DATA": "_handle_wb_data",
    }

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Interconnect,
        config: SystemConfig,
        checker: CoherenceChecker,
        counters: Counter,
    ) -> None:
        if not network.provides_total_order:
            raise ProtocolError(
                "traditional snooping requires a totally-ordered interconnect"
            )
        super().__init__(node_id, sim, network, config, checker, counters)
        self._home: dict[int, _HomeState] = {}

    def _home_state(self, block: int) -> _HomeState:
        state = self._home.get(block)
        if state is None:
            state = _HomeState()
            self._home[block] = state
        return state

    # ------------------------------------------------------------------
    # Issuing requests
    # ------------------------------------------------------------------

    def _send_request(self, entry: MosiMiss, line: CacheLine | None) -> None:
        del line
        msg = self.make_control(
            dst=BROADCAST,
            mtype="GETM" if entry.as_getm else "GETS",
            block=entry.block,
            requester=self.node_id,
            category="request",
            vnet=ORDERED_VNET,
            tx=entry.tx,
        )
        self.broadcast_msg(msg)  # ordered vnet always includes the sender

    # ------------------------------------------------------------------
    # The ordered snoop pipeline
    # ------------------------------------------------------------------

    def _snoop(self, msg: CoherenceMessage) -> None:
        """Process one totally-ordered request at this node."""
        if msg.mtype == "PUT":
            self._snoop_put(msg)
        else:
            self._snoop_request(msg)
        if self.is_home(msg.block):
            self._memory_snoop(msg)

    def _snoop_put(self, msg: CoherenceMessage) -> None:
        if msg.src != self.node_id:
            return
        # Our own PUT reached its order point.
        wb = self.writeback_buffer.pop(msg.block, None)
        if wb is None:
            raise ProtocolError(f"own PUT for {msg.block:#x} without wb buffer")
        if wb.superseded:
            return  # an intervening GETM took ownership; nothing to write
        data = self.make_data(
            dst=self.home_of(msg.block),
            mtype="WB_DATA",
            block=msg.block,
            data_version=wb.version,
            category="writeback",
            vnet="response",
        )
        self.send_msg(data)

    def _snoop_request(self, msg: CoherenceMessage) -> None:
        block = msg.block
        requester = msg.requester
        entry = self.mshrs.get(block)
        if requester == self.node_id:
            self._order_point(msg, entry)
            return

        # A remote request.  Writeback buffer first: until our PUT is
        # ordered we are still the owner for requests ordered before it.
        wb = self.writeback_buffer.get(block)
        if wb is not None and not wb.superseded:
            self._respond_data(requester, block, wb.version, msg.tx)
            if msg.mtype == "GETM":
                wb.superseded = True
            return

        if entry is not None and entry.ordered:
            self._snoop_while_ordered(msg, entry)
            return

        line = self.l2.peek(block)
        if line is None or line.state == "I":
            return
        if msg.mtype == "GETS":
            if line.state in ("M", "O"):
                if line.state == "M" and not line.dirty:
                    self.predictor.observe_read_shared(block)
                self._respond_data(requester, block, line.version, msg.tx)
                line.state = "O"
        else:  # GETM
            if line.state in ("M", "O"):
                self._respond_data(requester, block, line.version, msg.tx)
            self._drop_line(block)

    def _order_point(self, msg: CoherenceMessage, entry: MosiMiss | None) -> None:
        """Our own request appeared in the total order."""
        if entry is None or entry.ordered:
            return  # e.g. a re-ordered duplicate after completion
        entry.ordered = True
        line = self.l2.peek(msg.block)
        if entry.as_getm and line is not None and line.state in ("S", "O"):
            # Upgrade with a still-valid copy: the order point completes
            # the store (snoops ordered later invalidate us in order;
            # earlier ones would already have set the line to I).
            line.state = "M"
            self._retire(entry)
            return
        early = entry.early_data
        if early is not None:
            entry.early_data = None
            self._apply_data(entry, early)

    def _snoop_while_ordered(self, msg: CoherenceMessage, entry: MosiMiss) -> None:
        """A remote request ordered between our order point and our data."""
        if entry.as_getm:
            # We are the logical owner: service it after our data arrives.
            entry.pending.append((msg.mtype, msg.requester, msg.tx))
        elif msg.mtype == "GETM":
            # Our inbound GETS data may be used exactly once, then dies.
            entry.use_once = True

    # ------------------------------------------------------------------
    # Memory side (ordered-stream ownership tracking)
    # ------------------------------------------------------------------

    def _memory_snoop(self, msg: CoherenceMessage) -> None:
        home = self._home_state(msg.block)
        if msg.mtype == "PUT":
            if home.owner == msg.src:
                home.owner = MEMORY
                home.data_pending = True
            # Otherwise the PUT is stale (ownership moved past it).
            return
        if msg.mtype == "GETS":
            if home.owner == MEMORY:
                self._memory_respond_or_defer(msg.block, msg.requester, msg.tx)
            return
        # GETM: whoever asked becomes the owner.
        was_memory = home.owner == MEMORY
        home.owner = msg.requester
        if was_memory:
            self._memory_respond_or_defer(msg.block, msg.requester, msg.tx)

    def _memory_respond_or_defer(
        self, block: int, requester: int, tx: int
    ) -> None:
        home = self._home_state(block)
        if home.data_pending:
            home.deferred.append((requester, tx))
            return
        delay = self.config.controller_latency_ns + self.config.dram_latency_ns
        self.sim.post(delay, self._memory_send_data, block, requester, tx)

    def _memory_send_data(self, block: int, requester: int, tx: int) -> None:
        data = self.make_data(
            dst=requester,
            mtype="DATA",
            block=block,
            requester=requester,
            data_version=self.dram.get(block, 0),
            category="data",
            vnet="response",
            tag=1,
            tx=tx,
        )
        self.send_msg(data)

    def _handle_wb_data(self, msg: CoherenceMessage) -> None:
        home = self._home_state(msg.block)
        self.dram[msg.block] = msg.data_version
        home.data_pending = False
        deferred, home.deferred = home.deferred, []
        for requester, tx in deferred:
            self._memory_respond_or_defer(msg.block, requester, tx)

    # ------------------------------------------------------------------
    # Data responses
    # ------------------------------------------------------------------

    def _respond_data(
        self, requester: int, block: int, version: int, tx: int
    ) -> None:
        """Cache-to-cache data response (after the L2 access)."""
        self.sim.post(
            self.config.l2_latency_ns,
            self._send_data_now,
            requester,
            block,
            version,
            tx,
        )

    def _send_data_now(
        self, requester: int, block: int, version: int, tx: int
    ) -> None:
        data = self.make_data(
            dst=requester,
            mtype="DATA",
            block=block,
            requester=requester,
            data_version=version,
            category="data",
            vnet="response",
            tx=tx,
        )
        self.send_msg(data)

    def _handle_data(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None or msg.tx != entry.tx:
            # A late duplicate, or a response to an *older* transaction
            # for this block (e.g. the owner answered a GETM that
            # completed as an upgrade at its order point): not ours.
            return
        if not entry.ordered:
            # Defensive: data raced ahead of our own ordered request copy.
            entry.early_data = msg
            return
        self._apply_data(entry, msg)

    def _apply_data(self, entry: MosiMiss, msg: CoherenceMessage) -> None:
        entry.data_source = "memory" if msg.tag else "cache"
        self._fill(entry, msg.data_version)
        if entry.pending:
            self._serve_pending(entry)

    def _serve_pending(self, entry: MosiMiss) -> None:
        """Answer the requests ordered while our data was in flight."""
        block = entry.block
        line = self.l2.peek(block)
        if line is None or line.state not in ("M", "O"):
            return
        for mtype, requester, tx in entry.pending:
            self._respond_data(requester, block, line.version, tx)
            if mtype == "GETM":
                # Requests after this one belong to the new owner, which
                # queued them at its own order point.
                self._drop_line(block)
                return
            line.state = "O"

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def _send_put(self, block: int, version: int) -> None:
        # The data follows as WB_DATA once the PUT is ordered.
        del version
        put = self.make_control(
            dst=BROADCAST,
            mtype="PUT",
            block=block,
            requester=self.node_id,
            category="writeback",
            vnet=ORDERED_VNET,
        )
        self.broadcast_msg(put)
