"""Interconnect interface shared by the tree and torus topologies.

Protocol controllers interact with the network only through
:meth:`Interconnect.send` (unicast) and :meth:`Interconnect.broadcast`
(tree-based multicast to all nodes), and receive messages through the
handler registered with :meth:`attach`.  Nothing above this layer knows
about switches, links, or routing.

The stock path (no link hooked, a stock :class:`Simulator`) crosses a
link in one call, :meth:`Interconnect._cross`, and posts a message's
last hop straight to the destination's handler: the head of its
delivery chain.  A hooked link or a jittered kernel takes the per-hop
reference path instead, ``Link.occupy`` then ``Simulator.post_at``, so
link hooks and kernel jitter see every crossing and every post.
"""

from __future__ import annotations

import abc
from functools import partial
from heapq import heappush
from typing import Any, Callable

from repro.interconnect.link import Link
from repro.interconnect.message import Message
from repro.sim.kernel import Simulator
from repro.sim.stats import TrafficMeter

MessageHandler = Callable[[Message], None]


def _unattached(node_id: int, msg: Message) -> None:
    raise RuntimeError(f"no handler attached to node {node_id}")


class Interconnect(abc.ABC):
    """Abstract N-node interconnection network."""

    #: True if the network delivers ordered-vnet broadcasts in a single
    #: global total order observed identically by every node (required by
    #: traditional snooping; the tree provides it, the torus does not).
    provides_total_order: bool = False

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        link_latency: float,
        link_bandwidth: float | None,
        traffic: TrafficMeter | None = None,
    ) -> None:
        if n_nodes < 2:
            raise ValueError("an interconnect needs at least 2 nodes")
        self.sim = sim
        self.n_nodes = n_nodes
        self.link_latency = link_latency
        self.link_bandwidth = link_bandwidth
        self.traffic = traffic if traffic is not None else TrafficMeter()
        # Indexed by node id.  Deliveries post an entry as the event
        # callback itself; until a node is attached its entry raises a
        # RuntimeError naming the node, so no delivery checks for it.
        self._handlers: list[MessageHandler] = [
            partial(_unattached, node_id) for node_id in range(n_nodes)
        ]
        # Set by repro.overlay.arm_link.  Once any link is hooked, the
        # stock path gives way to per-hop crossings through
        # ``Link.occupy``; once any link has a drop hook, every hop first
        # asks its link whether it drops the message.
        self._hooked = False
        self._dropping = False

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        """Register the message handler for ``node_id``."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node_id {node_id} out of range")
        if getattr(self._handlers[node_id], "func", None) is not _unattached:
            raise ValueError(f"node {node_id} already attached")
        self._handlers[node_id] = handler

    def _cross(
        self, link: Link, msg: Message, callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        """Carry ``msg`` over ``link``; post ``callback(*args)`` at arrival.

        On the stock path this is ``Link.occupy``, the traffic count and
        ``Simulator.post_at`` in one frame, float op for float op and
        drawing the same ``seq``.  A hooked link or a jittered kernel
        takes ``occupy`` and ``post_at`` themselves, after asking the
        link whether it drops the message.
        """
        sim = self.sim
        if self._hooked or type(sim) is not Simulator:
            if not (self._dropping and link.drops(msg)):
                sim.post_at(
                    link.occupy(msg.size_bytes, msg.category), callback, *args
                )
            return
        size = msg.size_bytes
        now = sim._now
        free = link._free_at
        start = now if now >= free else free
        bandwidth = link.bandwidth
        busy_until = start + (size / bandwidth if bandwidth is not None else 0.0)
        link._free_at = busy_until
        link._crossings += 1
        traffic = self.traffic
        traffic._bytes[msg.category] += size
        traffic._messages[msg.category] += 1
        seq = sim._seq
        sim._seq = seq + 1
        heappush(
            sim._heap,
            (now + (busy_until + link.latency - now), seq, callback, args),
        )

    @abc.abstractmethod
    def send(self, msg: Message) -> None:
        """Route a unicast message from ``msg.src`` to ``msg.dst``."""

    @abc.abstractmethod
    def broadcast(self, msg: Message, include_self: bool = False) -> None:
        """Multicast ``msg`` from ``msg.src`` to every node.

        ``include_self`` controls whether the sender receives its own copy
        (traditional snooping requires it to establish the order point).
        """

    @abc.abstractmethod
    def all_links(self) -> list:
        """Every directed link of the network, in a deterministic order.

        The order is stable for a given (topology, n_nodes): the
        adversarial layers use the position in this list as a durable
        link address (e.g. a ``FaultEvent.target``), so replays resolve
        the same physical link.
        """

    @abc.abstractmethod
    def outgoing_links(self, node_id: int) -> list:
        """The directed links on which ``node_id`` injects traffic.

        These are the links whose backlog a node can plausibly observe
        from its own network interface — what the bandwidth-adaptive
        hybrid (:mod:`repro.predict.hybrid`) watches.
        """

    @abc.abstractmethod
    def unicast_hops(self, src: int, dst: int) -> int:
        """Number of link crossings on the unicast route (for tests)."""

    def average_unicast_hops(self) -> float:
        """Mean unicast crossings over all (src, dst) pairs, self included.

        Figure 1 quotes this as 4 for the 16-node tree and 2 for the 4x4
        torus.
        """
        total = 0
        for src in range(self.n_nodes):
            for dst in range(self.n_nodes):
                total += self.unicast_hops(src, dst)
        return total / (self.n_nodes * self.n_nodes)
