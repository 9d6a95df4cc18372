"""Base class for per-node protocol controllers.

Each glueless node (Figure 1) integrates the processor-side sequencer,
the L2 coherence cache, the coherence controller, and the memory
controller for its slice of shared memory.  :class:`ProtocolNode` holds
everything protocol-independent: the L2 array, MSHRs with operation
coalescing, the DRAM slice's data versions, message
construction/routing helpers, eviction plumbing, the statistics hooks,
and the one message dispatch.  Two
family bases subclass it: :class:`~repro.core.substrate.TokenNodeBase`
under the four token protocols and :class:`~repro.protocols.mosi.MosiNode`
under the three MOSI baselines.  Each names its per-miss record
(``miss_record``), declares its ``handlers`` (message type -> method
name), and implements ``_issue_transaction``, ``_evict_line``, and the
permission predicates.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from repro.cache.cache import CacheLine, SetAssociativeCache
from repro.cache.mshr import MshrEntry, MshrTable
from repro.coherence.checker import CoherenceChecker
from repro.coherence.messages import CoherenceMessage
from repro.interconnect.message import DATA_MESSAGE_BYTES
from repro.interconnect.topology import Interconnect
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter
from repro.config import SystemConfig

if TYPE_CHECKING:
    from repro.protocols.mosi import Writeback


class ProtocolError(RuntimeError):
    """An unrecoverable protocol-level condition (misconfiguration)."""


class ProtocolNode(abc.ABC):
    """One node's coherence machinery (cache side + home memory side)."""

    #: The :class:`MshrEntry` subclass holding this family's per-miss state.
    miss_record: type[MshrEntry] = MshrEntry

    #: Message type -> the name of the method that handles it.
    handlers: dict[str, str] = {}

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Interconnect,
        config: SystemConfig,
        checker: CoherenceChecker,
        counters: Counter,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.config = config
        self.checker = checker
        self.counters = counters
        # Memory is block-interleaved across the nodes' controllers:
        # home(block) = block % n_procs, hoisted for the per-message path.
        self._home_mod = config.n_procs
        self.l2 = SetAssociativeCache.from_geometry(
            config.l2_bytes, config.l2_assoc, config.block_bytes
        )
        self.mshrs = MshrTable(config.mshr_capacity, self.miss_record)
        #: This node's DRAM slice: block -> stored data version (0 =
        #: never written back).  The protocols time the access themselves
        #: from ``config.dram_latency_ns``.
        self.dram: dict[int, int] = {}
        #: Evicted-but-unacknowledged lines still owned by this node
        #: (filled by the MOSI baselines only).
        self.writeback_buffer: dict[int, Writeback] = {}
        self._lose_block_hook: Callable[[int], None] | None = None
        self._bind_handlers()
        network.attach(node_id, self.handle_message)

    def _bind_handlers(self) -> None:
        """Bind :attr:`handlers` to this node's methods as they resolve now.

        Bound per node, not cached per class, so the table calls what
        the node would: a method wrapped on its class before the build,
        the hooked class an overlay moves the node onto, or an instance
        patch.  Construction, unpickling and
        :func:`repro.overlay.arm_object` call this; whoever patches a
        handler on an instance must call it again.
        """
        self._handlers = {
            mtype: getattr(self, name) for mtype, name in self.handlers.items()
        }

    def __getstate__(self) -> dict:
        """Pickle without the bound table; :meth:`__setstate__` rebinds it."""
        state = self.__dict__.copy()
        del state["_handlers"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_handlers()

    # ------------------------------------------------------------------
    # Sequencer-facing API
    # ------------------------------------------------------------------

    def set_lose_block_hook(self, hook: Callable[[int], None]) -> None:
        """Called with a block number whenever the L2 loses read
        permission for it, so the sequencer can enforce L1 inclusion."""
        self._lose_block_hook = hook

    def probe(self, block: int, for_write: bool) -> int | None:
        """L2 permission check: data version on a hit, None on a miss."""
        line = self.l2.lookup(block)
        if line is None:
            return None
        if for_write:
            return line.version if self._line_can_write(line) else None
        return line.version if self._line_can_read(line) else None

    def perform_store(self, block: int) -> int:
        """Complete a store on a line held with write permission."""
        line = self.l2.lookup(block)
        if line is None or not self._line_can_write(line):
            raise ProtocolError(
                f"P{self.node_id} store to block {block:#x} without write "
                f"permission (line={line})"
            )
        new_version = self.checker.record_store(
            block, self.node_id, self.sim._now, line.version
        )
        line.version = new_version
        line.dirty = True
        return new_version

    def start_miss(
        self, block: int, for_write: bool, on_complete: Callable[[int], None]
    ) -> MshrEntry:
        """Begin (or join) a coherence transaction for ``block``.

        ``on_complete(version)`` fires once the operation has been
        performed with the required permission.
        """
        entry = self.mshrs.get(block)
        if entry is not None:
            entry.waiters.append((for_write, on_complete))
            return entry
        entry = self.mshrs.allocate(block, for_write, self.sim._now)
        entry.waiters.append((for_write, on_complete))
        self.counters.add("l2_miss")
        self.counters.add("miss_store" if for_write else "miss_load")
        self._issue_transaction(entry)
        return entry

    # ------------------------------------------------------------------
    # Transaction completion plumbing
    # ------------------------------------------------------------------

    def _finish_mshr(self, entry: MshrEntry) -> None:
        """Release the MSHR and satisfy (or re-dispatch) coalesced ops."""
        block = entry.block
        self.mshrs.free(block)
        self._record_miss_class(entry)
        waiters = list(entry.waiters)
        entry.waiters.clear()
        deferred: list[tuple[bool, Callable[[int], None]]] = []
        for for_write, callback in waiters:
            line = self.l2.lookup(block)
            if for_write:
                if line is not None and self._line_can_write(line):
                    callback(self.perform_store(block))
                else:
                    deferred.append((for_write, callback))
            else:
                if line is not None and self._line_can_read(line):
                    callback(line.version)
                else:
                    deferred.append((for_write, callback))
        for for_write, callback in deferred:
            self.start_miss(block, for_write, callback)

    def _record_miss_class(self, entry: MshrEntry) -> None:
        """Classify the finished miss for Table 2 (TokenB overrides)."""
        del entry

    # ------------------------------------------------------------------
    # Cache installation and eviction
    # ------------------------------------------------------------------

    def _install_line(self, block: int) -> CacheLine:
        """Return the line for ``block``, evicting a victim if needed."""
        line = self.l2.lookup(block)
        if line is not None:
            return line
        victim = self._choose_victim(block)
        if victim is not None:
            self._evict_line(victim)
            if self.l2.contains(victim.block):
                raise ProtocolError(
                    f"_evict_line left block {victim.block:#x} resident"
                )
        return self.l2.insert(block)

    def _choose_victim(self, block: int) -> CacheLine | None:
        """LRU victim, skipping lines with in-flight transactions."""
        if self.l2.set_has_room(block):
            return None
        candidates = [
            line
            for line in self.l2.lines_in_set(block)
            if line.block not in self.mshrs
            and line.block not in self.writeback_buffer
            and self._line_evictable(line)
        ]
        if not candidates:
            raise ProtocolError(
                "no evictable line in set (all ways have in-flight "
                "transactions); increase l2_assoc or reduce "
                "max_outstanding_misses"
            )
        return min(candidates, key=lambda line: line._last_use)  # noqa: SLF001

    def _line_evictable(self, line: CacheLine) -> bool:
        """Protocols may pin lines (e.g. active persistent requests)."""
        del line
        return True

    def _drop_line(self, block: int) -> CacheLine | None:
        """Remove a line and tell the sequencer (L1 inclusion)."""
        line = self.l2.remove(block)
        if line is not None:
            self._notify_lose_block(block)
        return line

    def _notify_lose_block(self, block: int) -> None:
        if self._lose_block_hook is not None:
            self._lose_block_hook(block)

    # ------------------------------------------------------------------
    # Messaging helpers
    # ------------------------------------------------------------------

    def handle_message(self, msg: CoherenceMessage) -> None:
        """Deliver an incoming network message to its handler."""
        try:
            handler = self._handlers[msg.mtype]
        except KeyError:
            raise ProtocolError(
                f"{type(self).__name__} got unknown mtype {msg.mtype!r}"
            ) from None
        handler(msg)

    def home_of(self, block: int) -> int:
        return block % self._home_mod

    def is_home(self, block: int) -> bool:
        return block % self._home_mod == self.node_id

    def send_msg(self, msg: CoherenceMessage) -> None:
        """Route a unicast message; node-local traffic skips the network."""
        if msg.dst == self.node_id:
            self.sim.post(0.0, self.handle_message, msg)
            return
        self.network.send(msg)

    def broadcast_msg(self, msg: CoherenceMessage, include_self: bool = False) -> None:
        self.network.broadcast(msg, include_self=include_self)

    def make_control(self, src: int | None = None, **fields) -> CoherenceMessage:
        """An 8-byte control message from this node (or from ``src``)."""
        return CoherenceMessage(src=self.node_id if src is None else src, **fields)

    def make_data(
        self, src: int | None = None, data_version: int | None = None,
        size_bytes: int = DATA_MESSAGE_BYTES, **fields,
    ) -> CoherenceMessage:
        """A 72-byte data message from this node; needs ``data_version``."""
        if data_version is None:
            raise ValueError("data messages must carry a data_version")
        return CoherenceMessage(
            src=self.node_id if src is None else src, size_bytes=size_bytes,
            data_version=data_version, **fields,
        )

    # ------------------------------------------------------------------
    # Protocol-specific behaviour
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _issue_transaction(self, entry: MshrEntry) -> None:
        """Send the first request(s) for a newly allocated miss."""

    @abc.abstractmethod
    def _evict_line(self, line: CacheLine) -> None:
        """Displace ``line`` from the L2 (writeback/token return)."""

    @abc.abstractmethod
    def _line_can_read(self, line: CacheLine) -> bool:
        """May the local processor read this line right now?"""

    @abc.abstractmethod
    def _line_can_write(self, line: CacheLine) -> bool:
        """May the local processor write this line right now?"""
