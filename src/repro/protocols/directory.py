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

import dataclasses

from repro.cache.cache import CacheLine
from repro.cache.mshr import MshrEntry
from repro.coherence.checker import CoherenceChecker
from repro.coherence.controller import ProtocolError, ProtocolNode
from repro.coherence.messages import CoherenceMessage
from repro.coherence.migratory import MigratoryPredictor
from repro.config import SystemConfig
from repro.interconnect.topology import Interconnect
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter

MEMORY = -1


@dataclasses.dataclass
class _DirEntry:
    """Full-map directory state for one home block."""

    owner: int = MEMORY
    sharers: set[int] = dataclasses.field(default_factory=set)
    busy: bool = False
    #: The in-flight transaction the home is blocked on.
    pending_kind: str = ""
    pending_requester: int = -1
    #: Requests (mtype, requester) queued while busy — includes PUTs.
    queue: list[tuple[str, int, int | None]] = dataclasses.field(
        default_factory=list
    )


class DirectoryNode(ProtocolNode):
    """One node of the directory MOSI system."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Interconnect,
        config: SystemConfig,
        checker: CoherenceChecker,
        counters: Counter,
    ) -> None:
        super().__init__(node_id, sim, network, config, checker, counters)
        self.predictor = MigratoryPredictor(config.migratory_optimization)
        self._directory: dict[int, _DirEntry] = {}

    def _dir_entry(self, block: int) -> _DirEntry:
        entry = self._directory.get(block)
        if entry is None:
            entry = _DirEntry()
            self._directory[block] = entry
        return entry

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

    def _issue_transaction(self, entry: MshrEntry) -> None:
        as_getm = entry.for_write or self.predictor.predicts_migratory(entry.block)
        line = self.l2.peek(entry.block)
        if entry.for_write:
            self.predictor.note_store_miss(
                entry.block, line is not None and line.state == "S"
            )
        elif not as_getm:
            self.predictor.note_load_miss(entry.block)
        entry.protocol.update(
            as_getm=as_getm,
            acks_needed=None,  # unknown until DATA/ACK_COUNT arrives
            acks_received=0,
            have_data=False,
            exclusive=False,
        )
        msg = self.make_control(
            dst=self.home_of(entry.block),
            mtype="GETM" if as_getm else "GETS",
            block=entry.block,
            requester=self.node_id,
            category="request",
            vnet="request",
        )
        self.send_msg(msg)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def handle_message(self, msg: CoherenceMessage) -> None:
        mtype = msg.mtype
        if mtype in ("GETS", "GETM", "PUT"):
            self._home_request(msg)
        elif mtype == "UNBLOCK":
            self._home_unblock(msg)
        elif mtype == "FWD_GETS":
            self._handle_forward(msg, exclusive=False)
        elif mtype == "FWD_GETM":
            self._handle_forward(msg, exclusive=True)
        elif mtype == "INV":
            self._handle_invalidation(msg)
        elif mtype == "DATA":
            self._handle_data(msg)
        elif mtype == "ACK":
            self._handle_ack(msg)
        elif mtype == "ACK_COUNT":
            self._handle_ack_count(msg)
        elif mtype == "PUT_ACK":
            self._handle_put_ack(msg)
        else:
            raise ProtocolError(f"directory node got unknown mtype {mtype!r}")

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------

    def _home_request(self, msg: CoherenceMessage) -> None:
        if not self.is_home(msg.block):
            raise ProtocolError(f"request for {msg.block:#x} at non-home node")
        entry = self._dir_entry(msg.block)
        if entry.busy:
            entry.queue.append((msg.mtype, msg.requester, msg.data_version))
            return
        self._home_process(msg.block, msg.mtype, msg.requester, msg.data_version)

    def _home_process(
        self, block: int, mtype: str, requester: int, version: int | None
    ) -> None:
        entry = self._dir_entry(block)
        if mtype == "PUT":
            self._home_put(block, requester, version)
            # A PUT does not occupy the home, so the drain continues
            # past it: a request queued behind it would otherwise be
            # stranded with the home idle.
            self._drain_home_queue(block, entry)
            return
        entry.busy = True
        entry.pending_kind = mtype
        entry.pending_requester = requester
        if mtype == "GETS":
            if entry.owner == MEMORY:
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
                for proc in entry.sharers
                if proc != requester and proc != entry.owner
            )
            ack_count = len(invalidatees)
            dir_delay = (
                self.config.controller_latency_ns + self.config.directory_latency_ns
            )
            for proc in invalidatees:
                self.sim.post(
                    dir_delay, self._home_invalidate, block, proc, requester
                )
            if entry.owner == MEMORY:
                delay = self.config.controller_latency_ns + self.config.dram_latency_ns
                self.sim.post(
                    delay, self._home_memory_data, block, requester, ack_count
                )
            elif entry.owner == requester:
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

    def _home_put(self, block: int, requester: int, version: int | None) -> None:
        entry = self._dir_entry(block)
        stale = entry.owner != requester
        if not stale:
            if version is None:
                raise ProtocolError("PUT without data")
            self.dram.store_version(block, version)
            entry.owner = MEMORY
        ack = self.make_control(
            dst=requester,
            mtype="PUT_ACK",
            block=block,
            tag=1 if stale else 0,
            category="control",
            vnet="response",
        )
        self.send_msg(ack)

    def _home_memory_data(
        self, block: int, requester: int, ack_count: int
    ) -> None:
        data = self.make_data(
            dst=requester,
            mtype="DATA",
            block=block,
            requester=requester,
            data_version=self.dram.version_of(block),
            acks_expected=ack_count,
            category="data",
            vnet="response",
            tag=1,
        )
        self.send_msg(data)

    def _home_forward(
        self, block: int, requester: int, mtype: str, ack_count: int
    ) -> None:
        entry = self._dir_entry(block)
        fwd = self.make_control(
            dst=entry.owner,
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

    def _home_unblock(self, msg: CoherenceMessage) -> None:
        entry = self._dir_entry(msg.block)
        if not entry.busy:
            raise ProtocolError(f"UNBLOCK for non-busy block {msg.block:#x}")
        if entry.pending_kind == "GETM" or msg.tag:
            # Exclusive completion: requester is the sole M owner
            # (GETM, or a migratory-optimized forwarded GETS).
            entry.owner = msg.src
            entry.sharers = {msg.src}
        else:  # forwarded GETS: requester became a sharer, owner kept O.
            entry.sharers.add(msg.src)
        self._home_finish(msg.block)

    def _home_finish(self, block: int) -> None:
        entry = self._dir_entry(block)
        entry.busy = False
        entry.pending_kind = ""
        entry.pending_requester = -1
        self._drain_home_queue(block, entry)

    def _drain_home_queue(self, block: int, entry: _DirEntry) -> None:
        """Pop the next queued request (if any) for an idle home."""
        if entry.queue:
            mtype, requester, version = entry.queue.pop(0)
            self.sim.post(
                0.0, self._home_process_if_free, block, mtype, requester, version
            )

    def _home_process_if_free(
        self, block: int, mtype: str, requester: int, version: int | None
    ) -> None:
        entry = self._dir_entry(block)
        if entry.busy:
            entry.queue.insert(0, (mtype, requester, version))
            return
        self._home_process(block, mtype, requester, version)

    # ------------------------------------------------------------------
    # Cache side: forwards, invalidations, responses
    # ------------------------------------------------------------------

    def _handle_forward(self, msg: CoherenceMessage, exclusive: bool) -> None:
        self.sim.post(
            self.config.l2_latency_ns, self._forward_respond, msg, exclusive
        )

    def _forward_respond(self, msg: CoherenceMessage, exclusive: bool) -> None:
        block = msg.block
        requester = msg.requester
        wb = self.writeback_buffer.get(block)
        if wb is not None:
            version = wb["version"]
            if exclusive:
                wb["superseded"] = True
            self._send_data(requester, block, version, msg.acks_expected, False)
            return
        line = self.l2.peek(block)
        if line is None or line.state not in ("M", "O"):
            raise ProtocolError(
                f"forward for {block:#x} found no owner at P{self.node_id} "
                f"(line={line}) — blocking directory should prevent this"
            )
        if exclusive:
            self._send_data(
                requester, block, line.version, msg.acks_expected, False
            )
            self._drop_line(block)
        else:
            if line.state == "M" and not line.dirty:
                self.predictor.observe_read_shared(block)
            self._send_data(requester, block, line.version, 0, False)
            line.state = "O"

    def _send_data(
        self,
        requester: int,
        block: int,
        version: int,
        ack_count: int,
        from_memory: bool,
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
            tag=1 if from_memory else 0,
        )
        self.send_msg(data)

    def _handle_invalidation(self, msg: CoherenceMessage) -> None:
        line = self.l2.peek(msg.block)
        if line is not None and line.state == "S":
            self._drop_line(msg.block)
        entry = self.mshrs.get(msg.block)
        if entry is not None and not entry.protocol.get("as_getm"):
            # The invalidation raced ahead of our GETS data (the home
            # sent memory data and moved on): the data may be used once,
            # then must die — same as a snooping use-once.
            entry.protocol["use_once"] = True
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
        entry.protocol["have_data"] = True
        entry.protocol["data_version"] = msg.data_version
        entry.protocol["data_source"] = "memory" if msg.tag else "cache"
        if entry.protocol["acks_needed"] is None:
            entry.protocol["acks_needed"] = msg.acks_expected
        self._maybe_complete(entry)

    def _handle_ack(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        entry.protocol["acks_received"] += 1
        self._maybe_complete(entry)

    def _handle_ack_count(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        entry.protocol["acks_needed"] = msg.acks_expected
        line = self.l2.peek(msg.block)
        if line is None or line.state not in ("M", "O"):
            raise ProtocolError("ACK_COUNT without an owned copy")
        entry.protocol["have_data"] = True
        entry.protocol["data_version"] = line.version
        self._maybe_complete(entry)

    def _maybe_complete(self, entry: MshrEntry) -> None:
        proto = entry.protocol
        if not proto["have_data"] or proto["acks_needed"] is None:
            return
        if proto["acks_received"] < proto["acks_needed"]:
            return
        block = entry.block
        line = self._install_line(block)
        line.version = proto["data_version"]
        line.dirty = False
        line.state = "M" if proto["as_getm"] else "S"
        source = proto.get("data_source")
        if source:
            self.counters.add(f"data_from_{source}")
        unblock = self.make_control(
            dst=self.home_of(block),
            mtype="UNBLOCK",
            block=block,
            tag=1 if proto["as_getm"] else 0,
            category="unblock",
            vnet="unblock",
        )
        self.send_msg(unblock)
        use_once = proto.get("use_once", False)
        self._finish_mshr(entry)
        if use_once:
            self._drop_line(block)

    def _handle_put_ack(self, msg: CoherenceMessage) -> None:
        self.writeback_buffer.pop(msg.block, None)

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def _evict_line(self, line: CacheLine) -> None:
        block = line.block
        if line.state in ("M", "O"):
            self.writeback_buffer[block] = {
                "version": line.version,
                "superseded": False,
            }
            put = self.make_data(
                dst=self.home_of(block),
                mtype="PUT",
                block=block,
                requester=self.node_id,
                data_version=line.version,
                category="writeback",
                vnet="request",
            )
            self.send_msg(put)
        self._drop_line(block)
