"""AMD-Hammer-style broadcast protocol (Section 5.1).

A reverse-engineered approximation of AMD's Hammer [5], standing in for
the class of systems that broadcast on unordered interconnects without
directory state (Intel E8870, IBM Power4/Summit).  The flow:

1. the requester sends its request to the block's *home* node, which
   serializes requests per block by queueing while busy;
2. the home — **without any directory lookup** — broadcasts a probe to
   all nodes and starts the DRAM fetch in parallel;
3. *every* node responds directly to the requester: the owner with
   data, everyone else with an 8-byte acknowledgment (this all-ack
   behaviour is why Hammer burns the most bandwidth in Figure 5b);
4. the memory's data arrives as well; cache-supplied data wins;
5. the requester unblocks the home.

The memory's data can arrive after its miss finished on cache data, so
it echoes the miss's transaction id and a newer miss drops it.

Compared with Directory, Hammer trades the directory lookup latency for
broadcast + N-1 acknowledgments; compared with TokenB it still takes
the home-indirection hop on every miss.
"""

from __future__ import annotations

from repro.cache.cache import CacheLine
from repro.coherence.controller import ProtocolError
from repro.coherence.messages import CoherenceMessage
from repro.interconnect.message import BROADCAST, DATA_MESSAGE_BYTES
from repro.protocols.mosi import BlockingHomeNode, HomeBlock, MosiMiss


class HammerNode(BlockingHomeNode):
    """One node of the Hammer-style broadcast system."""

    handlers = {
        **BlockingHomeNode.handlers,
        "PROBE_GETS": "_handle_probe",
        "PROBE_GETM": "_handle_probe",
        "DATA": "_handle_data",
        "MEM_DATA": "_handle_mem_data",
    }

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------

    def _send_request(self, entry: MosiMiss, line: CacheLine | None) -> None:
        entry.acks_needed = self.config.n_procs - 1
        if line is not None and line.state in ("S", "O"):
            # Upgrade: our own copy is at least as fresh as memory's
            # (stale MEM_DATA must not win over it).
            entry.have_data = True
            entry.data_version = line.version
            entry.self_data = True
        super()._send_request(entry, line)

    # ------------------------------------------------------------------
    # Home side (serialize, broadcast, fetch memory in parallel)
    # ------------------------------------------------------------------

    def _home_serve(
        self, home: HomeBlock, block: int, mtype: str, requester: int, tx: int
    ) -> None:
        del home
        # Broadcast the probe with only the controller latency — no
        # directory lookup is Hammer's latency edge over Directory.
        probe = self.make_control(
            dst=BROADCAST,
            mtype="PROBE_GETM" if mtype == "GETM" else "PROBE_GETS",
            block=block,
            requester=requester,
            category="probe",
            vnet="forward",
        )
        self.sim.post(
            self.config.controller_latency_ns,
            self.broadcast_msg,
            probe,
            True,  # include_self: the home's own cache must respond too
        )
        # The memory fetch proceeds in parallel with the probes.
        delay = self.config.controller_latency_ns + self.config.dram_latency_ns
        self.sim.post(delay, self._home_memory_data, block, requester, tx)

    def _home_accept_put(
        self, home: HomeBlock, block: int, requester: int, version: int
    ) -> bool:
        # No directory: accept writeback data if it is not stale
        # (version monotonicity stands in for Hammer's real ordered-
        # link race handling).
        del home, requester
        return version >= self.dram.get(block, 0)

    def _home_memory_data(self, block: int, requester: int, tx: int) -> None:
        data = self.make_data(
            dst=requester,
            mtype="MEM_DATA",
            block=block,
            requester=requester,
            data_version=self.dram.get(block, 0),
            category="data",
            vnet="response",
            tag=1,
            tx=tx,
        )
        self.send_msg(data)

    # ------------------------------------------------------------------
    # Probe handling: every node answers the requester
    # ------------------------------------------------------------------

    def _handle_probe(self, msg: CoherenceMessage) -> None:
        if msg.requester == self.node_id:
            return  # the requester does not probe itself
        self.sim.post(self.config.l2_latency_ns, self._probe_respond, msg)

    def _probe_respond(self, msg: CoherenceMessage) -> None:
        block = msg.block
        requester = msg.requester
        exclusive = msg.mtype == "PROBE_GETM"

        wb = self.writeback_buffer.get(block)
        if wb is not None and not wb.superseded:
            self._send_data(requester, block, wb.version)
            if exclusive:
                wb.superseded = True
            return

        line = self.l2.peek(block)
        if line is not None and line.state in ("M", "O"):
            if not exclusive and line.state == "M" and not line.dirty:
                self.predictor.observe_read_shared(block)
            self._send_data(requester, block, line.version)
            if exclusive:
                self._drop_line(block)
                self._note_exclusive_steal(block)
            else:
                line.state = "O"
            return

        if exclusive:
            if line is not None and line.state == "S":
                self._drop_line(block)
            self._note_exclusive_steal(block)
        self.send_msg(CoherenceMessage(
            src=self.node_id,
            dst=requester,
            category="ack",
            vnet="response",
            mtype="ACK",
            block=block,
        ))

    def _note_exclusive_steal(self, block: int) -> None:
        """Another writer took our copy while our own miss is in flight."""
        entry = self.mshrs.get(block)
        if entry is None:
            return
        if entry.as_getm:
            if entry.self_data:
                # Our upgrade lost its seed copy; wait for real data.
                entry.self_data = False
                entry.have_data = False
                entry.data_version = None
        else:
            # Invalidation raced ahead of our inbound GETS data.
            entry.use_once = True

    def _send_data(self, requester: int, block: int, version: int) -> None:
        self.send_msg(CoherenceMessage(
            src=self.node_id,
            dst=requester,
            size_bytes=DATA_MESSAGE_BYTES,
            category="data",
            vnet="response",
            mtype="DATA",
            block=block,
            requester=requester,
            data_version=version,
        ))

    # ------------------------------------------------------------------
    # Requester-side response collection
    # ------------------------------------------------------------------

    def _handle_data(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        entry.acks += 1
        entry.have_data = True
        entry.data_version = msg.data_version
        entry.data_source = "cache"
        self._maybe_complete(entry)

    def _handle_mem_data(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None or msg.tx != entry.tx:
            # The memory's copy for an earlier miss, which finished on
            # cache data; memory may have moved on since.
            return
        entry.have_mem_data = True
        if not entry.have_data:
            # Memory data is only a fallback: a cache owner's copy wins.
            entry.data_version = msg.data_version
            entry.data_source = "memory"
        self._maybe_complete(entry)

    def _maybe_complete(self, entry: MosiMiss) -> None:
        if entry.acks < entry.acks_needed:
            return
        if not entry.have_data and not entry.have_mem_data:
            # All probe responses were acks: the memory's (then
            # authoritative) copy is still on its way.
            return
        version = entry.data_version
        if version is None:
            # Upgrade: no data message needed, our shared copy is valid.
            line = self.l2.peek(entry.block)
            if line is None or line.state not in ("S", "O", "M"):
                raise ProtocolError("upgrade completed without a valid copy")
            version = line.version
        self._fill(entry, version)
