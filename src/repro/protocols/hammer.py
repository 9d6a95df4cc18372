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

Compared with Directory, Hammer trades the directory lookup latency for
broadcast + N-1 acknowledgments; compared with TokenB it still takes
the home-indirection hop on every miss.
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
from repro.interconnect.message import BROADCAST, DATA_MESSAGE_BYTES
from repro.interconnect.topology import Interconnect
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter


@dataclasses.dataclass
class _HomeState:
    """Per-block serialization state at the home (no directory map)."""

    busy: bool = False
    queue: list[tuple[str, int, int | None]] = dataclasses.field(
        default_factory=list
    )


class HammerNode(ProtocolNode):
    """One node of the Hammer-style broadcast system."""

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
        self._home: dict[int, _HomeState] = {}

    def _home_state(self, block: int) -> _HomeState:
        state = self._home.get(block)
        if state is None:
            state = _HomeState()
            self._home[block] = state
        return state

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
            responses=0,
            expected=self.config.n_procs - 1,
            have_cache_data=False,
            have_mem_data=False,
            data_version=None,
            use_once=False,
            self_data=False,
        )
        if line is not None and line.state in ("S", "O"):
            # Upgrade: our own copy is at least as fresh as memory's
            # (stale MEM_DATA must not win over it).
            entry.protocol["have_cache_data"] = True
            entry.protocol["data_version"] = line.version
            entry.protocol["self_data"] = True
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
        elif mtype in ("PROBE_GETS", "PROBE_GETM"):
            self._handle_probe(msg)
        elif mtype == "DATA":
            self._handle_data(msg)
        elif mtype == "MEM_DATA":
            self._handle_mem_data(msg)
        elif mtype == "ACK":
            self._handle_ack(msg)
        elif mtype == "UNBLOCK":
            self._home_unblock(msg)
        elif mtype == "PUT_ACK":
            self.writeback_buffer.pop(msg.block, None)
        else:
            raise ProtocolError(f"hammer node got unknown mtype {mtype!r}")

    # ------------------------------------------------------------------
    # Home side (serialize, broadcast, fetch memory in parallel)
    # ------------------------------------------------------------------

    def _home_request(self, msg: CoherenceMessage) -> None:
        if not self.is_home(msg.block):
            raise ProtocolError(f"request for {msg.block:#x} at non-home node")
        home = self._home_state(msg.block)
        if home.busy:
            home.queue.append((msg.mtype, msg.requester, msg.data_version))
            return
        self._home_process(msg.block, msg.mtype, msg.requester, msg.data_version)

    def _home_process(
        self, block: int, mtype: str, requester: int, version: int | None
    ) -> None:
        home = self._home_state(block)
        if mtype == "PUT":
            # No directory: accept writeback data if it is not stale
            # (version monotonicity stands in for Hammer's real ordered-
            # link race handling; see DESIGN.md).
            if version is None:
                raise ProtocolError("PUT without data")
            if version >= self.dram.version_of(block):
                self.dram.store_version(block, version)
                stale = False
            else:
                stale = True
            ack = self.make_control(
                dst=requester,
                mtype="PUT_ACK",
                block=block,
                tag=1 if stale else 0,
                category="control",
                vnet="response",
            )
            self.send_msg(ack)
            # A PUT does not occupy the home, so when one is popped off
            # the serialization queue the drain must continue — a
            # request queued behind it would otherwise be stranded with
            # the home idle (liveness bug found by the adversarial
            # schedule explorer: hammer/torus, link jitter, seed 11).
            if not home.busy:
                self._drain_home_queue(block)
            return
        home.busy = True
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
        self.sim.post(delay, self._home_memory_data, block, requester)

    def _home_memory_data(self, block: int, requester: int) -> None:
        data = self.make_data(
            dst=requester,
            mtype="MEM_DATA",
            block=block,
            requester=requester,
            data_version=self.dram.version_of(block),
            category="data",
            vnet="response",
            tag=1,
        )
        self.send_msg(data)

    def _home_unblock(self, msg: CoherenceMessage) -> None:
        home = self._home_state(msg.block)
        if not home.busy:
            raise ProtocolError(f"UNBLOCK for non-busy block {msg.block:#x}")
        home.busy = False
        self._drain_home_queue(msg.block)

    def _drain_home_queue(self, block: int) -> None:
        """Pop the next queued request (if any) for an idle home."""
        home = self._home_state(block)
        if home.queue:
            mtype, requester, version = home.queue.pop(0)
            self.sim.post(
                0.0, self._home_process_if_free, block, mtype, requester,
                version,
            )

    def _home_process_if_free(
        self, block: int, mtype: str, requester: int, version: int | None
    ) -> None:
        home = self._home_state(block)
        if home.busy:
            home.queue.insert(0, (mtype, requester, version))
            return
        self._home_process(block, mtype, requester, version)

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
        if wb is not None and not wb["superseded"]:
            self._send_data(requester, block, wb["version"])
            if exclusive:
                wb["superseded"] = True
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
        self._send_ack(requester, block)

    def _note_exclusive_steal(self, block: int) -> None:
        """Another writer took our copy while our own miss is in flight."""
        entry = self.mshrs.get(block)
        if entry is None:
            return
        proto = entry.protocol
        if proto.get("as_getm"):
            if proto.get("self_data"):
                # Our upgrade lost its seed copy; wait for real data.
                proto["self_data"] = False
                proto["have_cache_data"] = False
                proto["data_version"] = None
        else:
            # Invalidation raced ahead of our inbound GETS data.
            proto["use_once"] = True

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

    def _send_ack(self, requester: int, block: int) -> None:
        self.send_msg(CoherenceMessage(
            src=self.node_id,
            dst=requester,
            category="ack",
            vnet="response",
            mtype="ACK",
            block=block,
        ))

    # ------------------------------------------------------------------
    # Requester-side response collection
    # ------------------------------------------------------------------

    def _handle_data(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        proto = entry.protocol
        proto["responses"] += 1
        proto["have_cache_data"] = True
        proto["data_version"] = msg.data_version
        proto["data_source"] = "cache"
        self._maybe_complete(entry)

    def _handle_mem_data(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        proto = entry.protocol
        proto["have_mem_data"] = True
        if not proto["have_cache_data"]:
            # Memory data is only a fallback: a cache owner's copy wins.
            proto["data_version"] = msg.data_version
            proto["data_source"] = "memory"
        self._maybe_complete(entry)

    def _handle_ack(self, msg: CoherenceMessage) -> None:
        entry = self.mshrs.get(msg.block)
        if entry is None:
            return
        entry.protocol["responses"] += 1
        self._maybe_complete(entry)

    def _maybe_complete(self, entry: MshrEntry) -> None:
        proto = entry.protocol
        if proto["responses"] < proto["expected"]:
            return
        if not proto["have_cache_data"] and not proto["have_mem_data"]:
            # All probe responses were acks: the memory's (then
            # authoritative) copy is still on its way.
            return
        block = entry.block
        version = proto["data_version"]
        line = self.l2.peek(block)
        if version is None:
            # Upgrade: no data message needed, our shared copy is valid.
            if line is None or line.state not in ("S", "O", "M"):
                raise ProtocolError("upgrade completed without a valid copy")
            version = line.version
        line = self._install_line(block)
        line.version = version
        line.dirty = False
        line.state = "M" if proto["as_getm"] else "S"
        source = proto.get("data_source")
        if source:
            self.counters.add(f"data_from_{source}")
        unblock = self.make_control(
            dst=self.home_of(block),
            mtype="UNBLOCK",
            block=block,
            category="unblock",
            vnet="unblock",
        )
        self.send_msg(unblock)
        use_once = proto.get("use_once", False)
        self._finish_mshr(entry)
        if use_once:
            self._drop_line(block)

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
