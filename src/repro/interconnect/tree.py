"""Totally-ordered two-level broadcast tree (Figure 1a).

The 16-node configuration uses nine discrete switches: four *incoming*
switches (fan-in 4), one *root*, and four *outgoing* switches (fan-out 4).
Every message — unicast or broadcast — crosses exactly four links:

    node -> incoming switch -> root -> outgoing switch -> node

The root switch makes this interconnect a "virtual bus": it stamps every
broadcast on an ordered virtual network with a global sequence number, and
because all downstream links are FIFO with identical latency, every node
observes those broadcasts in exactly root order.  A per-node reorder stage
additionally *enforces* sequence order at delivery, so protocol code may
rely on the total order unconditionally.  This is the ordering property
traditional snooping requires (Section 2) and the one the torus lacks.

Every stage crosses its link in one call, :meth:`Link.cross`, which
runs the link's hooks when an overlay has armed any
(:mod:`repro.overlay`), so link hooks see every hop.  A unicast's last
hop and an unordered broadcast's deliveries post the destination's
handler directly; ordered broadcasts go through the per-node reorder
stage.  A link's drop hook may lose a message at any stage; only token
protocols may lose messages, and they never use the ordered vnet, so an
ordered broadcast can be delayed but never dropped.
"""

from __future__ import annotations

import math

from repro.interconnect.link import Link
from repro.interconnect.message import Message
from repro.interconnect.topology import Interconnect
from repro.sim.kernel import Simulator
from repro.sim.stats import TrafficMeter

#: Virtual networks whose broadcasts receive (and are delivered in) the
#: root-assigned total order.
ORDERED_VNET = "ordered"

#: Nodes per leaf switch: each incoming and outgoing switch serves
#: ``FANOUT`` consecutive nodes.
FANOUT = 4


class OrderedTreeInterconnect(Interconnect):
    """Two-level indirect tree with a sequencing root switch."""

    provides_total_order = True

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        link_latency: float,
        link_bandwidth: float | None,
        traffic: TrafficMeter | None = None,
    ) -> None:
        super().__init__(sim, n_nodes, link_latency, link_bandwidth, traffic)
        self.n_groups = math.ceil(n_nodes / FANOUT)

        def link(name: str) -> Link:
            return Link(sim, name, link_latency, link_bandwidth, self.traffic)

        self._up = [link(f"up[{i}]") for i in range(n_nodes)]
        self._in_root = [link(f"in_root[{g}]") for g in range(self.n_groups)]
        self._root_out = [link(f"root_out[{g}]") for g in range(self.n_groups)]
        self._down = [link(f"down[{i}]") for i in range(n_nodes)]
        #: Per-group (node, down-link) fan-out plan for the delivery stage.
        self._members: list[tuple[tuple[int, Link], ...]] = [
            tuple((node, self._down[node]) for node in self._group_members(g))
            for g in range(self.n_groups)
        ]

        self._next_order_seq = 0
        self._expected_seq = [0] * n_nodes
        self._reorder: list[dict[int, Message]] = [{} for _ in range(n_nodes)]

    def _group_members(self, group: int) -> list[int]:
        lo = group * FANOUT
        return list(range(lo, min(lo + FANOUT, self.n_nodes)))

    # ------------------------------------------------------------------
    # Unicast
    # ------------------------------------------------------------------

    def send(self, msg: Message) -> None:
        if msg.is_broadcast():
            raise ValueError("use broadcast() for broadcast messages")
        if msg.vnet == ORDERED_VNET:
            raise ValueError(
                "ordered vnet carries only broadcasts (total-order contract)"
            )
        if msg.src == msg.dst:
            # Node-local traffic never leaves the integrated node.
            self.sim.post(0.0, self._handlers[msg.dst], msg)
            return
        self._up[msg.src].cross(msg, self._unicast_at_in_switch, (msg,))

    def _unicast_at_in_switch(self, msg: Message) -> None:
        self._in_root[msg.src // FANOUT].cross(
            msg, self._unicast_at_root, (msg,)
        )

    def _unicast_at_root(self, msg: Message) -> None:
        self._root_out[msg.dst // FANOUT].cross(
            msg, self._unicast_at_out_switch, (msg,)
        )

    def _unicast_at_out_switch(self, msg: Message) -> None:
        dst = msg.dst
        self._down[dst].cross(msg, self._handlers[dst], (msg,))

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------

    def broadcast(self, msg: Message, include_self: bool = False) -> None:
        """Broadcast via the root.

        Ordered-vnet broadcasts are always delivered to the sender too:
        a snooping requester must observe its own request to learn its
        place in the total order, and per-node sequence accounting relies
        on every node seeing every ordered broadcast.
        """
        if msg.vnet == ORDERED_VNET:
            include_self = True
        self._up[msg.src].cross(
            msg, self._broadcast_at_in_switch, (msg, include_self)
        )

    def _broadcast_at_in_switch(self, msg: Message, include_self: bool) -> None:
        self._in_root[msg.src // FANOUT].cross(
            msg, self._broadcast_at_root, (msg, include_self)
        )

    def _broadcast_at_root(self, msg: Message, include_self: bool) -> None:
        if msg.vnet == ORDERED_VNET:
            msg.ordered_seq = self._next_order_seq
            self._next_order_seq += 1
        at_out = self._broadcast_at_out_switch
        for group, link in enumerate(self._root_out):
            link.cross(msg, at_out, (msg, group, include_self))

    def _broadcast_at_out_switch(
        self, msg: Message, group: int, include_self: bool
    ) -> None:
        # Batched delivery fan-out: one precomputed plan walk per group.
        src = msg.src
        if msg.ordered_seq is None:
            handlers = self._handlers
            args = (msg,)
            for node, down in self._members[group]:
                if node != src or include_self:
                    down.cross(msg, handlers[node], args)
        else:
            arrive = self._arrive_at_node
            for node, down in self._members[group]:
                if node != src or include_self:
                    down.cross(msg, arrive, (node, msg))

    def _arrive_at_node(self, node: int, msg: Message) -> None:
        # Enforce total order: deliver strictly by root sequence number.
        seq = msg.ordered_seq
        pending = self._reorder[node]
        if seq != self._expected_seq[node]:
            pending[seq] = msg
            return
        handler = self._handlers[node]
        while msg is not None:
            seq += 1
            self._expected_seq[node] = seq
            handler(msg)
            msg = pending.pop(seq, None)

    # ------------------------------------------------------------------

    def unicast_hops(self, src: int, dst: int) -> int:
        """Every tree route crosses four links (Figure 1a)."""
        del src, dst
        return 4

    def outgoing_links(self, node_id: int) -> list:
        """A node's single injection point: its uplink."""
        return [self._up[node_id]]

    def all_links(self) -> list[Link]:
        """All links: N up, G in-root, G root-out, N down (stage order)."""
        return [*self._up, *self._in_root, *self._root_out, *self._down]

    def broadcast_crossings(self) -> int:
        """Link crossings per full broadcast: 2 up + groups + N down."""
        return 2 + self.n_groups + self.n_nodes
