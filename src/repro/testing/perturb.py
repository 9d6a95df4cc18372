"""Deterministic seeded perturbation of a built system.

A :class:`Perturber` adversarially distorts *performance-layer* behaviour
— event timing, link timing, transient-request delivery, escalation
timing — while leaving the correctness substrate untouched, so the
safety/liveness oracles must keep holding (Section 4.1: performance
protocols have no obligations).

Install mechanics
-----------------
Kernel jitter moves the simulator onto :class:`PerturbedSimulator`, a
``__slots__ = ()`` subclass whose posts consult the reserved
``_perturb`` slot.  Everything else arms the shared overlay layer
(:mod:`repro.overlay`): link jitter is a link ``delay`` hook, drop/dup
is a delivery hook, and forced escalation is a node hook.  The hooks are
module-level classes holding bound RNG methods, so they compose with
faults, tracing and lineage in any install order, and a perturbed system
pickles (snapshots and forks) like a stock one.  An uninstalled system
runs byte-for-byte the same code as before this module existed.

Every random draw comes from ``derive_rng`` streams scoped under the
spec's seed and consumed in event order, so a perturbed simulation is
exactly as deterministic as an unperturbed one: same scenario, same
schedule, same result — which is what makes shrunk failures replayable.

Legality bounds
---------------
Token-protocol correctness must survive *any* timing, loss, or
duplication of transient requests, so every perturbation is legal there.
The baseline protocols make real ordering assumptions, so only the
FIFO-preserving ``link_jitter_ns`` (which models congestion without
breaking per-link ordering; the tree's root sequencing and reorder stage
keep snooping's total order intact) is legal for them.
:meth:`PerturbSpec.token_only_fields` lists the rest; installing them on
a non-token system raises.
"""

from __future__ import annotations

import dataclasses
from heapq import heappush

from repro.coherence.messages import TRANSIENT_REQUEST_MTYPES
from repro.overlay import DeliveryHook, arm_delivery, arm_link, arm_object
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import derive_rng
from repro.system.grid import is_token_protocol

#: Transient performance-protocol requests: the only message types the
#: drop/duplicate perturbations may touch (losing or repeating them is
#: explicitly covered by the paper's reissue + persistent machinery).
_TRANSIENT_MTYPES = TRANSIENT_REQUEST_MTYPES


@dataclasses.dataclass
class PerturbSpec:
    """What to perturb, and how hard.  All fields default to "off".

    Attributes:
        seed: Root seed for every perturbation RNG stream.
        kernel_jitter_ns: Add ``uniform(0, x)`` ns to every event posted
            on the kernel's fast path — a global adversarial scheduler.
            Token protocols only.
        link_jitter_ns: Add ``uniform(0, x)`` ns of extra serialization
            per link crossing.  Per-link FIFO order is preserved, so this
            is legal for every protocol.
        reorder_jitter_ns: Add ``uniform(0, x)`` ns to the propagation
            leg of a crossing — messages may overtake each other on the
            same link.  Token protocols only.
        drop_request_prob: Probability a delivered GETS/GETM copy is
            silently discarded.  Token protocols only.
        dup_request_prob: Probability a delivered GETS/GETM copy is
            re-delivered ``dup_delay_ns`` later.  Token protocols only.
        dup_delay_ns: Redelivery delay for duplicated requests.
        force_escalation_prob: Probability a miss is escalated to a
            persistent request ``force_escalation_delay_ns`` after issue,
            regardless of the protocol's own timeout policy.  Token
            protocols only.
        force_escalation_delay_ns: Delay before the forced escalation.
    """

    seed: int = 0
    kernel_jitter_ns: float = 0.0
    link_jitter_ns: float = 0.0
    reorder_jitter_ns: float = 0.0
    drop_request_prob: float = 0.0
    dup_request_prob: float = 0.0
    dup_delay_ns: float = 40.0
    force_escalation_prob: float = 0.0
    force_escalation_delay_ns: float = 30.0

    def __post_init__(self) -> None:
        for field in (
            "kernel_jitter_ns",
            "link_jitter_ns",
            "reorder_jitter_ns",
            "dup_delay_ns",
            "force_escalation_delay_ns",
        ):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be nonnegative")
        for field in (
            "drop_request_prob",
            "dup_request_prob",
            "force_escalation_prob",
        ):
            if not 0.0 <= getattr(self, field) <= 1.0:
                raise ValueError(f"{field} must be a probability")

    def active_fields(self) -> list[str]:
        """Names of the perturbations that are switched on."""
        fields = [
            "kernel_jitter_ns",
            "link_jitter_ns",
            "reorder_jitter_ns",
            "drop_request_prob",
            "dup_request_prob",
            "force_escalation_prob",
        ]
        return [name for name in fields if getattr(self, name) > 0]

    def token_only_fields(self) -> list[str]:
        """The active perturbations that are only legal on token protocols."""
        return [f for f in self.active_fields() if f != "link_jitter_ns"]

    def any_active(self) -> bool:
        return bool(self.active_fields())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PerturbSpec":
        return cls(**payload)


class PerturbedSimulator(Simulator):
    """Kernel with seeded event-time jitter on the fast-path posts.

    ``_perturb`` holds ``(rng.random, jitter_ns)``.  Timer events going
    through :meth:`Simulator.schedule` are left alone — their firing
    times are already policy, and jittering the work they race against
    perturbs the race just as thoroughly.  On a kernel of this class a
    link crossing (``Link.cross``, hooked or not) posts its arrival
    through :meth:`post_at` rather than pushing it inline, and so do
    the torus's broadcast fan-outs, so the jitter reaches every
    crossing.  The posts it misses are the snoop responses that
    ``TokenNodeBase._handle_transient`` pushes inline, which TokenB and
    the null protocol use; TokenD and TokenM post theirs through
    ``_post_snoop``, which the jitter reaches.
    """

    __slots__ = ()

    def post(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        random, jitter = self._perturb
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._heap,
            (self._now + delay + random() * jitter, seq, callback, args),
        )

    def post_at(self, time, callback, *args):
        now = self._now
        delay = time - now
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        random, jitter = self._perturb
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._heap,
            (now + delay + random() * jitter, seq, callback, args),
        )


class LinkJitter:
    """Each crossing takes a seeded-random extra while (:meth:`delay`).

    FIFO jitter widens the serialization slot (and therefore pushes
    ``_free_at``), so send order still equals arrival order; reorder
    jitter stretches only the propagation leg, so two messages on the
    same link may arrive out of send order.  Both draws happen on every
    crossing, FIFO first.
    """

    __slots__ = ("random", "fifo_ns", "reorder_ns")

    def __init__(self, random, fifo_ns: float, reorder_ns: float) -> None:
        self.random = random
        self.fifo_ns = fifo_ns
        self.reorder_ns = reorder_ns

    def delay(self, link, busy_until: float) -> float:
        random = self.random
        busy_until = busy_until + random() * self.fifo_ns
        link._free_at = busy_until
        return busy_until + link.latency + random() * self.reorder_ns


class DropDup(DeliveryHook):
    """Delivery hook that drops or duplicates transient requests.

    One roll per delivered GETS/GETM copy: below ``drop`` the copy is
    lost; below ``drop + dup`` it is also re-delivered ``delay`` ns
    later, into the rest of the chain (so a pause gate holds it too).
    """

    stage = "drop_dup"
    __slots__ = ("sim", "random", "drop", "dup", "delay", "stats")

    def __init__(self, sim, random, drop, dup, delay, stats) -> None:
        self.sim = sim
        self.random = random
        self.drop = drop
        self.dup = dup
        self.delay = delay
        self.stats = stats

    def deliver(self, msg) -> None:
        if msg.mtype in _TRANSIENT_MTYPES:
            roll = self.random()
            if roll < self.drop:
                self.stats["dropped_requests"] += 1
                return
            if roll < self.drop + self.dup:
                self.stats["duplicated_requests"] += 1
                self.sim.post(self.delay, self.inner, msg)
        self.inner(msg)


class ForcedEscalation:
    """Escalates some misses onto the persistent path right after issue.

    :meth:`after_issue` is the node's ``_escalation`` hook.
    """

    __slots__ = ("random", "prob", "delay", "stats")

    def __init__(self, random, prob, delay, stats) -> None:
        self.random = random
        self.prob = prob
        self.delay = delay
        self.stats = stats

    def after_issue(self, node, entry) -> None:
        if self.random() < self.prob:
            self.stats["forced_escalations"] += 1
            node.sim.post(self.delay, node.force_escalation, entry.block)


class Perturber:
    """Installs a :class:`PerturbSpec` onto a built (not yet run) system."""

    def __init__(self, spec: PerturbSpec) -> None:
        self.spec = spec
        #: Counters for what the perturber actually did (for reports).
        self.stats = {"dropped_requests": 0, "duplicated_requests": 0,
                      "forced_escalations": 0}

    def install(self, system) -> None:
        """Wire the perturbations into ``system`` before it runs.

        Publishes the perturber as ``system.perturb`` (a second
        perturber raises :class:`RuntimeError`).
        """
        if system.perturb is not None:
            raise RuntimeError("perturber already installed on this system")
        spec = self.spec
        token = is_token_protocol(system.config.protocol)
        illegal = spec.token_only_fields()
        if illegal and not token:
            raise ValueError(
                f"perturbations {illegal} are only legal on token "
                f"protocols, not {system.config.protocol!r} (baseline "
                "protocols assume ordered, lossless request delivery)"
            )
        seed = spec.seed
        sim = system.sim
        network = system.network

        if spec.kernel_jitter_ns > 0:
            rng = derive_rng(seed, "perturb", "kernel")
            sim._perturb = (rng.random, spec.kernel_jitter_ns)
            sim.__class__ = PerturbedSimulator

        if spec.link_jitter_ns > 0 or spec.reorder_jitter_ns > 0:
            for link in network.all_links():
                rng = derive_rng(seed, "perturb", "link", link.name)
                arm_link(network, link, delay=LinkJitter(
                    rng.random, spec.link_jitter_ns, spec.reorder_jitter_ns
                ).delay)

        if spec.drop_request_prob > 0 or spec.dup_request_prob > 0:
            for node_id in range(len(network._handlers)):
                rng = derive_rng(seed, "perturb", "delivery", node_id)
                arm_delivery(network, node_id, DropDup(
                    sim, rng.random, spec.drop_request_prob,
                    spec.dup_request_prob, spec.dup_delay_ns, self.stats,
                ))

        if spec.force_escalation_prob > 0:
            for node in system.nodes:
                rng = derive_rng(seed, "perturb", "escalate", node.node_id)
                arm_object(node, _escalation=ForcedEscalation(
                    rng.random, spec.force_escalation_prob,
                    spec.force_escalation_delay_ns, self.stats,
                ).after_issue)

        system.perturb = self
