"""Fault schedules: what breaks, when, and for how long.

A :class:`FaultPlan` is a declarative schedule of *sustained, structural*
fabric failures — unlike the per-message jitter in
:mod:`repro.testing.perturb`, each :class:`FaultEvent` opens a window
during which a piece of the machine misbehaves:

``link_flap``
    The targeted link is down for the window.  On token protocols every
    transient request (GETS/GETM) whose crossing would overlap the
    outage is dropped — in-flight or newly sent; all other traffic (and
    *all* traffic on the ordered baselines, where loss is illegal)
    queues with backpressure and crosses once the link restores,
    modeling a reliable link layer that retransmits after the flap.
``link_degrade``
    The targeted link's bandwidth is divided by ``factor`` for the
    window — congestion collapse.  A no-op under unlimited bandwidth
    (there is no serialization to stretch).
``corrupt``
    For the window, each transient request arriving at the target node
    (or at every node when ``target is None``) is independently
    discarded with probability ``prob``, as if its CRC check failed.
    The only loss-class fault — token protocols only.
``node_pause``
    The target node stops processing incoming messages for the window
    (GC pause / scheduler stall analogue); deliveries buffer in arrival
    order and drain when the window closes.

Plans are plain data: ``to_dict``/``from_dict`` round-trip losslessly so
a plan travels inside a scenario document and content-addresses like any
other campaign parameter, and :func:`generate_plan` derives a plan
deterministically from a seed via ``derive_rng`` — the same seed always
breaks the same links at the same times.

Link targets are positions in ``Interconnect.all_links()`` (a stable,
documented order per topology); each network class's ``link_count``
gives the valid range without building a network.
"""

from __future__ import annotations

import dataclasses

from repro.sim.rng import derive_rng
from repro.system.grid import is_token_protocol

#: Every fault class, in schedule-generation order.
FAULT_KINDS = ("link_flap", "link_degrade", "corrupt", "node_pause")

#: Fault classes that destroy messages outright.  Token-protocol
#: correctness survives arbitrary loss of transient requests; the
#: ordered baselines do not, so these are token-only (``link_flap`` is
#: *not* here — on baselines it degenerates to legal backpressure).
LOSS_FAULT_KINDS = ("corrupt",)

#: Kinds whose ``target`` addresses a link (index into ``all_links()``).
_LINK_KINDS = ("link_flap", "link_degrade")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fault window.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        start_ns: Window opening time.
        duration_ns: Window length (must be positive).
        target: Link index (``link_flap``/``link_degrade``), node id
            (``node_pause``), or node id / ``None`` for every node
            (``corrupt``).
        factor: Bandwidth divisor while degraded (``link_degrade``).
        prob: Per-message discard probability (``corrupt``).
    """

    kind: str
    start_ns: float
    duration_ns: float
    target: int | None = None
    factor: float = 1.0
    prob: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})"
            )
        if self.start_ns < 0:
            raise ValueError("start_ns must be nonnegative")
        if self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if self.kind != "corrupt" and self.target is None:
            raise ValueError(f"{self.kind} events need a target")
        if self.target is not None and self.target < 0:
            raise ValueError("target must be nonnegative")
        if self.kind == "link_degrade" and self.factor <= 1.0:
            raise ValueError("link_degrade factor must be > 1")
        if self.kind == "corrupt" and not 0.0 < self.prob <= 1.0:
            raise ValueError("corrupt prob must be in (0, 1]")

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


@dataclasses.dataclass
class FaultPlan:
    """A seeded schedule of fault windows.  Empty plan = healthy fabric.

    ``seed`` scopes the RNG streams the *installation* consumes (the
    corrupt fault's per-node discard rolls); the windows themselves are
    fixed data, whether hand-written or generated.
    """

    seed: int = 0
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        self.events = tuple(self.events)

    def any_active(self) -> bool:
        return bool(self.events)

    def kinds(self) -> list[str]:
        """The distinct fault classes scheduled, in canonical order."""
        present = {event.kind for event in self.events}
        return [kind for kind in FAULT_KINDS if kind in present]

    def events_of(self, *kinds: str) -> list[FaultEvent]:
        return [event for event in self.events if event.kind in kinds]

    def link_events(self) -> list[FaultEvent]:
        return self.events_of(*_LINK_KINDS)

    def loss_kinds(self) -> list[str]:
        """The scheduled fault classes that are only legal on token protocols."""
        return [kind for kind in self.kinds() if kind in LOSS_FAULT_KINDS]

    def last_end_ns(self) -> float:
        """When the final fault window closes (0.0 for an empty plan)."""
        return max((event.end_ns for event in self.events), default=0.0)

    def validate_for_protocol(self, protocol: str) -> None:
        """Enforce the legality matrix :class:`PerturbSpec` also obeys.

        Ordered baselines assume lossless delivery, so scheduling a
        loss-class fault on them must raise — never silently fall back
        to queueing.
        """
        illegal = self.loss_kinds()
        if illegal and not is_token_protocol(protocol):
            raise ValueError(
                f"fault kinds {illegal} are only legal on token "
                f"protocols, not {protocol!r} (baseline protocols "
                "assume ordered, lossless request delivery)"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [dataclasses.asdict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=payload.get("seed", 0),
            events=tuple(
                FaultEvent(**event) for event in payload.get("events", ())
            ),
        )


def generate_plan(
    seed: int,
    kinds,
    *,
    n_links: int,
    n_nodes: int,
    horizon_ns: float,
    events_per_kind: int = 1,
    intensity: float = 1.0,
) -> FaultPlan:
    """Derive a fault schedule deterministically from ``seed``.

    Windows open in the first ~60% of ``horizon_ns`` (so a run of about
    that length actually experiences them) and last a seeded fraction of
    the horizon scaled by ``intensity``; targets are drawn uniformly
    over the valid range per kind.  Every draw comes from a
    ``derive_rng`` stream scoped under ``(seed, kind, index)``, so adding
    a kind to the mix never shifts another kind's schedule.
    """
    if horizon_ns <= 0:
        raise ValueError("horizon_ns must be positive")
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    events = []
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (known: {FAULT_KINDS})"
            )
        for index in range(events_per_kind):
            rng = derive_rng(seed, "faults", kind, index)
            start = rng.uniform(0.10, 0.60) * horizon_ns
            duration = rng.uniform(0.08, 0.18) * horizon_ns * intensity
            if kind in _LINK_KINDS:
                target: int | None = rng.randrange(n_links)
            elif kind == "node_pause":
                target = rng.randrange(n_nodes)
            else:  # corrupt: one targeted node or, at high
                # intensity, fabric-wide CRC trouble.
                target = None if intensity >= 2.0 else rng.randrange(n_nodes)
            factor = rng.uniform(4.0, 12.0) * intensity
            prob = min(0.9, rng.uniform(0.10, 0.25) * intensity)
            events.append(
                FaultEvent(
                    kind=kind,
                    start_ns=round(start, 3),
                    duration_ns=round(duration, 3),
                    target=target,
                    factor=round(factor, 3) if kind == "link_degrade" else 1.0,
                    prob=round(prob, 4) if kind == "corrupt" else 0.0,
                )
            )
    return FaultPlan(seed=seed, events=tuple(events))
