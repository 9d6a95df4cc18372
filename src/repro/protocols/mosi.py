"""The MOSI base under the three comparison protocols (Section 5.1).

Snooping, Directory and Hammer are MOSI designs built around the same
requester MSHR.  A miss asks for shared (GETS) or exclusive (GETM)
permission, a load the migratory predictor flags asking for GETM up
front; it fills its line in M or S once its data (and every
acknowledgment it waits for) is in; and an evicted owner keeps its data
in a writeback buffer until its PUT is settled.  Directory and Hammer
also share a *blocking* home: it serves one request per block at a
time, queues the rest (PUTs included) until the requester's UNBLOCK,
and keeps draining its queue past a PUT, which does not occupy it.

:class:`MosiNode` holds the shared requester, fill and eviction code,
and :class:`BlockingHomeNode` the blocking home and the handlers of its
messages; each protocol module adds only its own messages.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.cache.cache import CacheLine
from repro.cache.mshr import MshrEntry
from repro.coherence.controller import ProtocolError, ProtocolNode
from repro.coherence.messages import CoherenceMessage
from repro.coherence.migratory import MigratoryPredictor

if TYPE_CHECKING:
    from repro.system.builder import System

#: Memory (the home node) as an owner id.
MEMORY = -1


class MosiMiss(MshrEntry):
    """One outstanding MOSI miss."""

    __slots__ = (
        "as_getm", "tx", "data_version", "data_source", "use_once",
        "acks", "acks_needed", "have_data", "have_mem_data", "self_data",
        "ordered", "pending", "early_data",
    )

    def __init__(self, block: int, for_write: bool, issued_at: float) -> None:
        super().__init__(block, for_write, issued_at)
        #: The request sent: GETM (exclusive) or GETS.
        self.as_getm = False
        #: Requester-local transaction id.  A response that can outlive
        #: its miss (Snooping's DATA, Hammer's MEM_DATA) echoes it.
        self.tx = 0
        #: The version the line fills with, once data is in hand.
        self.data_version: int | None = None
        #: ``"memory"`` or ``"cache"``: who sent the data (counted as
        #: ``data_from_*``); empty when the requester's own copy serves.
        self.data_source = ""
        #: An invalidation overtook the data: use it once, then drop it.
        self.use_once = False
        # Directory and Hammer: collecting responses.
        #: Acknowledgments in (Hammer: every probe answer, data or not).
        self.acks = 0
        #: Acknowledgments to wait for; None until Directory's DATA or
        #: ACK_COUNT says.
        self.acks_needed: int | None = None
        #: An owner's data (or, for an upgrade, our own) is in hand.
        self.have_data = False
        #: Hammer: the home memory's copy is in hand (a fallback).
        self.have_mem_data = False
        #: Hammer: the data in hand is our own shared copy.
        self.self_data = False
        # Snooping: the request in the total order.
        #: Our request has reached its order point.
        self.ordered = False
        #: Requests ordered after ours but before our data, served once
        #: the data arrives: ``(mtype, requester, tx)``.
        self.pending: list[tuple[str, int, int]] = []
        #: Data that raced ahead of our own ordered request.
        self.early_data: CoherenceMessage | None = None


class Writeback:
    """An evicted owner's data, held until its PUT is settled."""

    __slots__ = ("version", "superseded")

    def __init__(self, version: int) -> None:
        self.version = version
        #: An exclusive request took the data first; the PUT is stale.
        self.superseded = False


class HomeBlock:
    """A blocking home's state for one block."""

    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        #: A request is in flight; the home waits for its UNBLOCK.
        self.busy = False
        #: Requests that arrived meanwhile, PUTs included:
        #: ``(mtype, requester, data_version, tx)``.
        self.queue: list[tuple[str, int, int | None, int]] = []


class MosiNode(ProtocolNode):
    """Requester, fill and eviction code shared by the MOSI baselines."""

    miss_record = MosiMiss

    def __init__(self, node_id: int, system: System) -> None:
        super().__init__(node_id, system)
        self.predictor = MigratoryPredictor(system.config.migratory_optimization)
        self._tx_counter = 0

    # ------------------------------------------------------------------
    # Permission predicates
    # ------------------------------------------------------------------

    def _line_can_read(self, line: CacheLine) -> bool:
        return line.state in ("M", "O", "S")

    def _line_can_write(self, line: CacheLine) -> bool:
        return line.state == "M"

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------

    def _issue_transaction(self, entry: MosiMiss) -> None:
        block = entry.block
        line = self.l2.peek(block)
        entry.as_getm = self.predictor.choose_getm(
            block, entry.for_write, line is not None and line.state == "S"
        )
        self._tx_counter += 1
        entry.tx = self._tx_counter
        self._send_request(entry, line)

    @abc.abstractmethod
    def _send_request(self, entry: MosiMiss, line: CacheLine | None) -> None:
        """Send the miss's GETS or GETM (``line``: our copy, if any)."""

    def _fill(self, entry: MosiMiss, version: int) -> None:
        """Install the miss's data, in M for a GETM and S for a GETS,
        and retire the miss."""
        line = self._install_line(entry.block)
        line.version = version
        line.dirty = False
        line.state = "M" if entry.as_getm else "S"
        self._retire(entry)

    def _retire(self, entry: MosiMiss) -> None:
        """Count the data's source, free the MSHR (serving the coalesced
        operations), and drop a use-once line."""
        source = entry.data_source
        if source:
            self.counters.add(f"data_from_{source}")
        self._finish_mshr(entry)
        if entry.use_once:
            self._drop_line(entry.block)

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def _evict_line(self, line: CacheLine) -> None:
        block = line.block
        if line.state in ("M", "O"):
            self.writeback_buffer[block] = Writeback(line.version)
            self._send_put(block, line.version)
        self._drop_line(block)

    @abc.abstractmethod
    def _send_put(self, block: int, version: int) -> None:
        """Announce the writeback of an evicted owned line."""


class BlockingHomeNode(MosiNode):
    """A MOSI node whose home serves one request per block at a time.

    A request reaches the home of its block.  An idle home takes it at
    once and stays busy until the requester's UNBLOCK; meanwhile later
    requests queue in arrival order, PUTs included.
    """

    #: The per-block home record (Directory adds its sharer map).
    home_record: type[HomeBlock] = HomeBlock

    handlers = {
        "GETS": "_home_request",
        "GETM": "_home_request",
        "PUT": "_home_request",
        "UNBLOCK": "_home_unblock",
        "ACK": "_handle_ack",
        "PUT_ACK": "_handle_put_ack",
    }

    def __init__(self, node_id: int, system: System) -> None:
        super().__init__(node_id, system)
        self._homes: dict[int, HomeBlock] = {}

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------

    def _send_request(self, entry: MosiMiss, line: CacheLine | None) -> None:
        del line
        msg = self.make_control(
            dst=self.home_of(entry.block),
            mtype="GETM" if entry.as_getm else "GETS",
            block=entry.block,
            requester=self.node_id,
            category="request",
            vnet="request",
            tx=entry.tx,
        )
        self.send_msg(msg)

    def _handle_ack(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        entry.acks += 1
        needed = entry.acks_needed
        # Only the last acknowledgment can complete the miss.
        if needed is not None and entry.acks >= needed:
            self._maybe_complete(entry)

    @abc.abstractmethod
    def _maybe_complete(self, entry: MosiMiss) -> None:
        """Fill the line once the miss has every response it needs."""

    def _retire(self, entry: MosiMiss) -> None:
        """Unblock the home, then retire the miss (whose coalesced
        operations may start the next miss on the block)."""
        unblock = self.make_control(
            dst=self.home_of(entry.block),
            mtype="UNBLOCK",
            block=entry.block,
            tag=1 if entry.as_getm else 0,
            category="unblock",
            vnet="unblock",
        )
        self.send_msg(unblock)
        super()._retire(entry)

    def _send_put(self, block: int, version: int) -> None:
        put = self.make_data(
            dst=self.home_of(block),
            mtype="PUT",
            block=block,
            requester=self.node_id,
            data_version=version,
            category="writeback",
            vnet="request",
        )
        self.send_msg(put)

    def _handle_put_ack(self, msg: CoherenceMessage) -> None:
        self.writeback_buffer.pop(msg.block, None)

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------

    def _home_request(self, msg: CoherenceMessage) -> None:
        block = msg.block
        if block % self._home_mod != self.node_id:
            raise ProtocolError(f"request for {block:#x} at non-home node")
        home = self._homes.get(block)
        if home is None:
            home = self._homes[block] = self.home_record()
        if home.busy:
            home.queue.append(
                (msg.mtype, msg.requester, msg.data_version, msg.tx)
            )
            return
        self._home_process(
            home, block, msg.mtype, msg.requester, msg.data_version, msg.tx
        )

    def _home_process(
        self, home: HomeBlock, block: int, mtype: str, requester: int,
        version: int | None, tx: int,
    ) -> None:
        if mtype != "PUT":
            home.busy = True
            self._home_serve(home, block, mtype, requester, tx)
            return
        if version is None:
            raise ProtocolError("PUT without data")
        stale = not self._home_accept_put(home, block, requester, version)
        if not stale:
            self.dram[block] = version
        ack = self.make_control(
            dst=requester,
            mtype="PUT_ACK",
            block=block,
            tag=1 if stale else 0,
            category="control",
            vnet="response",
        )
        self.send_msg(ack)
        # A PUT does not occupy the home, so the drain continues past
        # it: a request queued behind it would otherwise be stranded
        # with the home idle.
        self._drain_home_queue(block, home)

    @abc.abstractmethod
    def _home_serve(
        self, home: HomeBlock, block: int, mtype: str, requester: int, tx: int
    ) -> None:
        """Start serving a GETS or GETM (the home is now busy)."""

    @abc.abstractmethod
    def _home_accept_put(
        self, home: HomeBlock, block: int, requester: int, version: int
    ) -> bool:
        """Whether memory takes a PUT's data (False: the PUT is stale)."""

    def _home_unblock(self, msg: CoherenceMessage) -> None:
        home = self._homes.get(msg.block)
        if home is None or not home.busy:
            raise ProtocolError(f"UNBLOCK for non-busy block {msg.block:#x}")
        self._home_unblocked(home, msg)
        home.busy = False
        self._drain_home_queue(msg.block, home)

    def _home_unblocked(self, home: HomeBlock, msg: CoherenceMessage) -> None:
        """Record the finished transaction in the home's state (Hammer
        keeps none)."""
        del home, msg

    def _drain_home_queue(self, block: int, home: HomeBlock) -> None:
        """Hand the next queued request (if any) to the idle home."""
        if home.queue:
            self.sim.post(
                0.0, self._home_process_if_free, block, *home.queue.pop(0)
            )

    def _home_process_if_free(
        self, block: int, mtype: str, requester: int, version: int | None,
        tx: int,
    ) -> None:
        home = self._homes[block]
        if home.busy:
            home.queue.insert(0, (mtype, requester, version, tx))
            return
        self._home_process(home, block, mtype, requester, version, tx)
