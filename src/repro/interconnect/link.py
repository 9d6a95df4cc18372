"""Point-to-point link with bandwidth (serialization) and latency.

Each link models one direction of a physical channel: a message occupies
the link for ``size_bytes / bandwidth`` ns (serialization), then arrives
``latency`` ns later.  Links are FIFO — serialization slots are granted in
send order, and since latency is constant, arrival order matches send
order.  Passing ``bandwidth=None`` models the paper's "unlimited
bandwidth" configuration (zero serialization, latency only).

The interconnects carry a message over a link with :meth:`Link.cross`,
one call per hop: the slot claim, the traffic count and the arrival's
heap push.  An overlay hook moves a link onto ``HookedLink``
(:mod:`repro.overlay`), whose ``cross`` runs the hooks in the same frame.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from repro.sim.kernel import Simulator
from repro.sim.stats import TrafficMeter


class Link:
    """One directed link of the interconnect.

    Args:
        sim: The simulation kernel.
        name: Human-readable identifier, e.g. ``"up[3]"`` or ``"x+(1,2)"``.
        latency: Propagation latency in ns (Table 1: 15 ns, including
            wire, synchronization, and routing).
        bandwidth: Bytes per ns (Table 1: 3.2), or ``None`` for unlimited.
        traffic: Optional meter recording every crossing.
    """

    __slots__ = (
        "sim",
        "name",
        "latency",
        "bandwidth",
        "traffic",
        "_free_at",
        "_crossings",
        # The overlay layer's hook chain (repro.overlay).  Never touched
        # by this class: arming a hook fills the slot and moves the link
        # onto ``HookedLink`` (``__slots__ = ()``, identical layout).
        "_hooks",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: float,
        bandwidth: float | None,
        traffic: TrafficMeter | None = None,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be nonnegative")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive or None")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.traffic = traffic
        self._free_at = 0.0
        self._crossings = 0

    @property
    def crossings(self) -> int:
        """Number of messages that have traversed this link."""
        return self._crossings

    @property
    def busy_until(self) -> float:
        """Time at which the link's serialization slot frees up."""
        return self._free_at

    def occupy(self, size_bytes: int, category: str) -> float:
        """Claim the serialization slot and account one crossing.

        Returns the arrival time; scheduling the delivery is the caller's
        job.  :meth:`cross` repeats these float ops inline, so the two
        give bit-identical arrival times.
        """
        now = self.sim._now
        free = self._free_at
        start = now if now >= free else free
        if self.bandwidth is not None:
            serialization = size_bytes / self.bandwidth
        else:
            serialization = 0.0
        busy_until = start + serialization
        self._free_at = busy_until
        self._crossings += 1
        traffic = self.traffic
        if traffic is not None:
            traffic._bytes[category] += size_bytes
            traffic._messages[category] += 1
        return busy_until + self.latency

    def cross(
        self, msg, callback: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Carry ``msg`` over this link; post ``callback(*args)`` at arrival.

        :meth:`occupy`, the traffic count and ``Simulator.post_at`` in one
        frame, float op for float op and drawing the same ``seq``.  On a
        jittered kernel (any ``Simulator`` subclass) it takes ``occupy``
        and ``post_at`` themselves, so the jitter sees the post.
        """
        sim = self.sim
        size = msg.size_bytes
        if type(sim) is not Simulator:
            sim.post_at(self.occupy(size, msg.category), callback, *args)
            return
        now = sim._now
        free = self._free_at
        start = now if now >= free else free
        bandwidth = self.bandwidth
        busy_until = start + (size / bandwidth if bandwidth is not None else 0.0)
        self._free_at = busy_until
        self._crossings += 1
        traffic = self.traffic
        if traffic is not None:
            traffic._bytes[msg.category] += size
            traffic._messages[msg.category] += 1
        seq = sim._seq
        sim._seq = seq + 1
        heappush(
            sim._heap,
            (now + (busy_until + self.latency - now), seq, callback, args),
        )
