"""Interconnect interface shared by the tree and torus topologies.

Protocol controllers interact with the network only through
:meth:`Interconnect.send` (unicast) and :meth:`Interconnect.broadcast`
(tree-based multicast to all nodes), and receive messages through the
handler registered with :meth:`attach`.  Nothing above this layer knows
about switches, links, or routing.

Every hop crosses its link in one call, :meth:`Link.cross`, and a
message's last hop posts straight to the destination's handler: the
head of its delivery chain.  A hooked link runs its hooks inside that
call, and on a jittered kernel the crossing posts through
``Simulator.post_at``, so link hooks and kernel jitter see every
crossing and every post.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Callable

from repro.interconnect.message import Message
from repro.sim.kernel import Simulator
from repro.sim.stats import TrafficMeter

MessageHandler = Callable[[Message], None]


def _unattached(node_id: int, msg: Message) -> None:
    raise RuntimeError(f"no handler attached to node {node_id}")


class Interconnect(abc.ABC):
    """Abstract N-node interconnection network."""

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
        # torus gives up its batched and up-front broadcast fan-outs for
        # one crossing per hop, so each hooked link sees its traffic.
        self._hooked = False

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        """Register the message handler for ``node_id``."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node_id {node_id} out of range")
        if getattr(self._handlers[node_id], "func", None) is not _unattached:
            raise ValueError(f"node {node_id} already attached")
        self._handlers[node_id] = handler

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
