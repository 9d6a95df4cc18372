"""Install a :class:`~repro.faults.plan.FaultPlan` onto a built system.

Every fault arms the shared overlay layer (:mod:`repro.overlay`): link
flaps and degrades are link hooks (a drop check, a flap hold, a degrade
stretch) on the targeted links only, and corruption and pauses are
delivery hooks.  Their state lives in module-level classes, so faults
compose with jitter, tracing and lineage in any install order, and a
faulted system pickles (snapshots and forks) like a stock one.  A
fault-free system runs byte-for-byte the same code as before this
package existed (the determinism goldens pin this).

Fault semantics
---------------
* **Flap** — while a link is down, transient requests (GETS/GETM) whose
  crossing would overlap the outage are *dropped* on token protocols
  (both "sent while down" and "in flight when it goes down": the check
  covers the whole serialization + propagation interval).  Everything
  else — token carriers, data, persistent messages, and all baseline
  traffic — *queues with backpressure*: serialization cannot start
  inside an outage, modeling a reliable link layer that retransmits
  after the flap.  Messages already past their full crossing interval
  are untouched.
* **Degrade** — serialization time is multiplied by the window's factor
  for crossings starting inside it.
* **Corrupt** — a receiver-side wrapper discards transient requests
  with the event's probability while its window is open (seeded
  per-node RNG streams, consumed in delivery order).
* **Pause** — a :class:`PauseGate` is the innermost delivery hook, so
  it also holds duplicates the drop/dup perturbation re-delivers:
  messages arriving inside a pause window buffer in arrival order and
  are flushed when the window closes (the flush is scheduled at
  install, so it fires before any same-timestamp arrival).  The gates'
  buffers must be empty at end of run — a recovery oracle.

Every decision is a pure function of (plan, scenario seed, event
order), so a faulted run replays bit-identically.
"""

from __future__ import annotations

from repro.coherence.messages import TRANSIENT_REQUEST_MTYPES
from repro.faults.plan import FaultPlan
from repro.overlay import DeliveryHook, arm_delivery, arm_link
from repro.sim.rng import derive_rng
from repro.system.grid import is_token_protocol


class LinkFaultState:
    """One link's fault windows; its methods are the link's fault hooks.

    ``down`` is a sorted tuple of merged ``(start, end)`` outages;
    ``degraded`` a sorted tuple of ``(start, end, factor)``;
    ``drop_mode`` is True on token protocols (flapped links lose
    droppable messages instead of queueing them); ``stats`` is the
    injector's shared counter dict; ``recorder`` the optional lineage
    recorder that must learn about dropped request chains.
    """

    __slots__ = ("down", "degraded", "drop_mode", "stats", "recorder")

    def __init__(self, down, degraded, drop_mode, stats, recorder=None) -> None:
        self.down = tuple(down)
        self.degraded = tuple(degraded)
        self.drop_mode = drop_mode
        self.stats = stats
        self.recorder = recorder

    def arm(self, network, link) -> None:
        """Arm the hooks these windows need on ``link``."""
        hooks = {}
        if self.down:
            hooks["hold"] = self.hold
            if self.drop_mode:
                hooks["drop"] = self.drops
        if self.degraded:
            hooks["stretch"] = self.stretch
        arm_link(network, link, **hooks)

    def drops(self, link, msg) -> bool:
        """True if a droppable message entering now is lost to a flap.

        The whole crossing interval — queueing behind ``_free_at``,
        serialization, propagation — is checked against the outage
        windows, so this also catches "in flight when the link goes
        down", not just "sent while down".  A dropped message never
        occupies the link (nothing was serialized) and records no
        traffic.
        """
        if msg.mtype not in TRANSIENT_REQUEST_MTYPES:
            return False
        now = link.sim._now
        free = link._free_at
        start = now if now >= free else free
        if link.bandwidth is not None:
            serialization = msg.size_bytes / link.bandwidth
        else:
            serialization = 0.0
        end = start + serialization + link.latency
        for begin, outage_end in self.down:
            if start < outage_end and end > begin:
                self.stats["flap_dropped"] += 1
                if self.recorder is not None:
                    self.recorder.request_dropped(
                        msg.block, msg.requester, -1, now
                    )
                return True
        return False

    def hold(self, start: float) -> float:
        """Serialization cannot start inside an outage: queue past it."""
        for begin, end in self.down:
            if begin <= start < end:
                self.stats["flap_queued"] += 1
                start = end
        return start

    def stretch(self, start: float, serialization: float) -> float:
        """Serialization starting inside a degrade window takes longer."""
        for begin, end, factor in self.degraded:
            if begin <= start < end:
                self.stats["degraded_crossings"] += 1
                return serialization * factor
        return serialization


class Corruption(DeliveryHook):
    """Delivery hook discarding transient requests inside corrupt windows.

    ``windows`` holds ``(start, end, prob)``; one roll per transient
    request delivered inside the first window that covers it.
    """

    stage = "corrupt"
    __slots__ = ("sim", "node_id", "random", "windows", "stats", "recorder")

    def __init__(self, sim, node_id, random, windows, stats, recorder) -> None:
        self.sim = sim
        self.node_id = node_id
        self.random = random
        self.windows = windows
        self.stats = stats
        self.recorder = recorder

    def deliver(self, msg) -> None:
        if msg.mtype in TRANSIENT_REQUEST_MTYPES:
            now = self.sim._now
            for begin, end, prob in self.windows:
                if begin <= now < end:
                    if self.random() < prob:
                        self.stats["corrupt_dropped"] += 1
                        if self.recorder is not None:
                            self.recorder.request_dropped(
                                msg.block, msg.requester, self.node_id, now
                            )
                        return
                    break
        self.inner(msg)


class PauseGate(DeliveryHook):
    """Delivery gate for one paused node.

    Messages arriving inside a pause window buffer in arrival order;
    :meth:`flush` (scheduled at each window's end during install, so it
    precedes same-timestamp arrivals) drains them into the node in that
    order.  A nonempty buffer after the run is a recovery-oracle
    violation.
    """

    stage = "pause"
    __slots__ = ("sim", "node_id", "windows", "buffer", "stats")

    def __init__(self, sim, node_id, windows, stats) -> None:
        self.sim = sim
        self.node_id = node_id
        self.windows = tuple(windows)
        self.buffer: list = []
        self.stats = stats

    def deliver(self, msg) -> None:
        now = self.sim._now
        for begin, end in self.windows:
            if begin <= now < end:
                self.stats["paused_deliveries"] += 1
                self.buffer.append(msg)
                return
        self.inner(msg)

    def flush(self) -> None:
        pending = self.buffer
        self.buffer = []
        inner = self.inner
        for msg in pending:
            inner(msg)


def _merge_windows(windows):
    """Sort and coalesce overlapping ``(start, end)`` intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class FaultInjector:
    """Installs a :class:`FaultPlan` onto a built (not yet run) system."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.gates: list[PauseGate] = []
        #: Counters for what the faults actually did (for reports).
        self.stats = {
            "flap_dropped": 0,
            "flap_queued": 0,
            "degraded_crossings": 0,
            "corrupt_dropped": 0,
            "paused_deliveries": 0,
        }

    def install(self, system) -> None:
        """Wire the fault windows into ``system`` before it runs.

        Publishes the injector as ``system.faults`` (a second injector
        raises :class:`RuntimeError`).  Dropped transient requests are
        reported into ``system.lineage``, if installed, so the token
        outcome contract can demand an ``absorbed-by-reissue`` terminal
        for each chain.
        """
        if system.faults is not None:
            raise RuntimeError(
                "fault injector already installed on this system"
            )
        plan = self.plan
        plan.validate_for_protocol(system.config.protocol)
        token = is_token_protocol(system.config.protocol)

        link_events = plan.link_events()
        if link_events:
            self._install_link_faults(system, link_events, token)
        pause_events = plan.events_of("node_pause")
        if pause_events:
            self._install_pauses(system, pause_events)
        corrupt_events = plan.events_of("corrupt")
        if corrupt_events:
            self._install_corruption(system, corrupt_events)

        system.faults = self

    # ------------------------------------------------------------------

    def _install_link_faults(self, system, events, token: bool) -> None:
        network = system.network
        links = network.all_links()
        for event in events:
            if event.target >= len(links):
                raise ValueError(
                    f"{event.kind} target {event.target} out of range: "
                    f"this {system.config.interconnect} has "
                    f"{len(links)} links"
                )
        for index, link in enumerate(links):
            down = _merge_windows(
                (e.start_ns, e.end_ns)
                for e in events
                if e.kind == "link_flap" and e.target == index
            )
            degraded = sorted(
                (e.start_ns, e.end_ns, e.factor)
                for e in events
                if e.kind == "link_degrade" and e.target == index
            )
            if down or degraded:
                LinkFaultState(
                    down, degraded, token, self.stats, system.lineage
                ).arm(network, link)

    def _install_pauses(self, system, events) -> None:
        network = system.network
        sim = system.sim
        n_nodes = len(network._handlers)
        bad = [e.target for e in events if e.target >= n_nodes]
        if bad:
            raise ValueError(
                f"node_pause targets {bad} out of range for "
                f"{n_nodes} nodes"
            )
        for node_id in range(n_nodes):
            windows = _merge_windows(
                (e.start_ns, e.end_ns)
                for e in events
                if e.target == node_id
            )
            if not windows:
                continue
            gate = PauseGate(sim, node_id, windows, self.stats)
            arm_delivery(network, node_id, gate)
            self.gates.append(gate)
            for _begin, end in windows:
                sim.post_at(end, gate.flush)

    def _install_corruption(self, system, events) -> None:
        network = system.network
        for node_id in range(len(network._handlers)):
            windows = tuple(
                (e.start_ns, e.end_ns, e.prob)
                for e in events
                if e.target is None or e.target == node_id
            )
            if not windows:
                continue
            rng = derive_rng(self.plan.seed, "faults", "corrupt", node_id)
            arm_delivery(network, node_id, Corruption(
                system.sim, node_id, rng.random, windows, self.stats,
                system.lineage,
            ))

    # ------------------------------------------------------------------

    def undrained_nodes(self) -> list[int]:
        """Nodes whose pause buffers still hold messages (must be none)."""
        return [gate.node_id for gate in self.gates if gate.buffer]

    def last_fault_end_ns(self) -> float:
        return self.plan.last_end_ns()
