"""Unordered two-dimensional bidirectional torus (Figure 1b).

Directly connected, glueless: each node links to four neighbours with
wraparound.  Unicast uses deterministic dimension-ordered routing (X then
Y, shorter wrap direction, ties broken toward increasing coordinates).
Broadcasts use bandwidth-efficient tree-based multicast: a BFS spanning
tree rooted at the source, so an N-node broadcast crosses exactly N-1
links (the Theta(n) cost Question 5 discusses).

The torus provides *no* request total order — two broadcasts may be
observed in different orders by different nodes — which is precisely why
traditional snooping cannot run on it and why TokenB can.

Hot-path notes: multicast fan-out is batched per node.  Each fan-out step
resolves a precomputed, link-resolved spanning-tree plan (no per-hop dict
lookups or closure plumbing) and pushes its children's arrivals directly
on the kernel's tuple heap.  The limited-bandwidth path preserves the exact
``(time, seq)`` event ordering of the reference hop-by-hop implementation.
With unlimited link bandwidth the whole subtree's arrival times are
precomputed at broadcast time and every delivery is posted up front —
serialization is zero, so no intermediate fan-out state can affect the
timestamps; see :meth:`_broadcast_unlimited` for the (tie-breaking only)
caveat on seq assignment.  A unicast crosses each hop through
:meth:`Link.cross`, and the last hop (like every unlimited broadcast
delivery) posts the destination's handler itself.

The batched fan-out and the unlimited path's heap pushes serve stock
links on a stock kernel only.  Once an overlay arms a hook on any link
(:mod:`repro.overlay`), broadcast takes the per-hop reference fan-out
instead, which (like unicast) crosses every hop through ``Link.cross``
and so runs the link's hooks, a drop hook included.  On a jittered
kernel every crossing and delivery goes through ``post_at``, in the
stock path's order, so the jitter sees each one: the limited-bandwidth
fan-out takes the per-hop reference path, and the unlimited path posts
its up-front deliveries one by one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush

from repro.interconnect.link import Link
from repro.interconnect.message import BROADCAST, Message
from repro.interconnect.topology import Interconnect
from repro.sim.kernel import Simulator
from repro.sim.stats import TrafficMeter


def torus_dims(n_nodes: int) -> tuple[int, int]:
    """Pick the most square (width, height) factorization of ``n_nodes``.

    16 -> (4, 4); 64 -> (8, 8); 8 -> (2, 4).
    """
    width = int(n_nodes**0.5)
    while n_nodes % width:
        width -= 1
    return width, n_nodes // width


class TorusInterconnect(Interconnect):
    """2-D bidirectional torus with dimension-ordered routing."""

    provides_total_order = False

    #: Deterministic neighbour exploration order for routing/multicast.
    _DIRECTIONS = ("x+", "x-", "y+", "y-")

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        link_latency: float,
        link_bandwidth: float | None,
        traffic: TrafficMeter | None = None,
    ) -> None:
        super().__init__(sim, n_nodes, link_latency, link_bandwidth, traffic)
        self.width, self.height = torus_dims(n_nodes)
        # Directed links keyed by (node, direction).
        self._links: dict[tuple[int, str], Link] = {}
        for node in range(n_nodes):
            for direction in self._DIRECTIONS:
                self._links[(node, direction)] = Link(
                    sim,
                    f"{direction}({node})",
                    link_latency,
                    link_bandwidth,
                    self.traffic,
                )
        # Multicast spanning-tree plans, computed lazily per source.
        # Batched form: plan[vertex] -> tuple of (link, child) pairs.
        self._multicast_plan: dict[int, tuple[tuple[Link, int], ...]] = {}
        # Unlimited-bandwidth fast path: flat BFS order of the whole
        # subtree as (depth, node, link) triples, plus the tree depth.
        self._flat_plan: dict[int, tuple[tuple[tuple[int, int, Link], ...], int]] = {}
        # Unicast route plans: (src, dst) -> tuple of (link, next_node,
        # last) hops.
        self._route_plan: dict[
            tuple[int, int], tuple[tuple[Link, int, bool], ...]
        ] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def coords(self, node: int) -> tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return (y % self.height) * self.width + (x % self.width)

    def neighbour(self, node: int, direction: str) -> int:
        x, y = self.coords(node)
        if direction == "x+":
            return self.node_at(x + 1, y)
        if direction == "x-":
            return self.node_at(x - 1, y)
        if direction == "y+":
            return self.node_at(x, y + 1)
        if direction == "y-":
            return self.node_at(x, y - 1)
        raise ValueError(f"bad direction {direction!r}")

    def _dimension_steps(self, delta: int, extent: int, pos: str, neg: str) -> list[str]:
        """Directions to travel ``delta`` (mod ``extent``) along one axis."""
        forward = delta % extent
        backward = extent - forward if forward else 0
        if forward == 0:
            return []
        if forward <= backward:
            return [pos] * forward
        return [neg] * backward

    def route(self, src: int, dst: int) -> list[str]:
        """Dimension-ordered route as a list of directions (X then Y)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        steps = self._dimension_steps(dx - sx, self.width, "x+", "x-")
        steps += self._dimension_steps(dy - sy, self.height, "y+", "y-")
        return steps

    def unicast_hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def outgoing_links(self, node_id: int) -> list[Link]:
        """A node's four outgoing channels (one per direction)."""
        return [
            self._links[(node_id, direction)]
            for direction in self._DIRECTIONS
        ]

    def all_links(self) -> list[Link]:
        """All 4N directed links, in (node, direction) creation order."""
        return list(self._links.values())

    # ------------------------------------------------------------------
    # Unicast
    # ------------------------------------------------------------------

    def _unicast_plan(self, src: int, dst: int) -> tuple[tuple[Link, int, bool], ...]:
        """Build and cache the route's ``(link, next_node, last)`` hops."""
        route = self.route(src, dst)
        hops = []
        at_node = src
        for step, direction in enumerate(route, 1):
            next_node = self.neighbour(at_node, direction)
            link = self._links[(at_node, direction)]
            hops.append((link, next_node, step == len(route)))
            at_node = next_node
        plan = self._route_plan[(src, dst)] = tuple(hops)
        return plan

    def send(self, msg: Message) -> None:
        src, dst = msg.src, msg.dst
        if dst == BROADCAST:
            raise ValueError("use broadcast() for broadcast messages")
        plan = self._route_plan.get((src, dst))
        if plan is None:
            plan = self._unicast_plan(src, dst)
        if not plan:
            # Same node: deliver locally without touching the network.
            self.sim.post(0.0, self._handlers[dst], msg)
            return
        self._forward_unicast(msg, plan, 0)

    def _forward_unicast(
        self, msg: Message, plan: tuple[tuple[Link, int, bool], ...], hop: int
    ) -> None:
        link, next_node, last = plan[hop]
        if last:
            link.cross(msg, self._handlers[next_node], (msg,))
        else:
            link.cross(msg, self._forward_unicast, (msg, plan, hop + 1))

    # ------------------------------------------------------------------
    # Broadcast (tree-based multicast)
    # ------------------------------------------------------------------

    def _spanning_tree(self, source: int) -> dict[int, list[tuple[str, int]]]:
        """BFS spanning tree: vertex -> [(direction, child)] (for tests)."""
        children: dict[int, list[tuple[str, int]]] = {
            node: [] for node in range(self.n_nodes)
        }
        visited = {source}
        frontier = deque([source])
        while frontier:
            vertex = frontier.popleft()
            for direction in self._DIRECTIONS:
                nbr = self.neighbour(vertex, direction)
                if nbr not in visited:
                    visited.add(nbr)
                    children[vertex].append((direction, nbr))
                    frontier.append(nbr)
        return children

    def _multicast_plans(
        self, source: int
    ) -> tuple[tuple[tuple[Link, int], ...], ...]:
        """Link-resolved spanning-tree fan-out plan rooted at ``source``."""
        plan = self._multicast_plan.get(source)
        if plan is None:
            children = self._spanning_tree(source)
            plan = tuple(
                tuple(
                    (self._links[(vertex, direction)], child)
                    for direction, child in children[vertex]
                )
                for vertex in range(self.n_nodes)
            )
            self._multicast_plan[source] = plan

            # Flat subtree order for the unlimited-bandwidth fast path:
            # BFS over the plan, recording (depth, node, inbound link) in
            # exactly the order the hop-by-hop fan-out would schedule the
            # arrivals (per depth level, parents in their own arrival
            # order, children in direction order).
            flat: list[tuple[int, int, Link]] = []
            level = [source]
            depth = 0
            while level:
                depth += 1
                nxt: list[int] = []
                for vertex in level:
                    for link, child in plan[vertex]:
                        flat.append((depth, child, link))
                        nxt.append(child)
                level = nxt
            self._flat_plan[source] = (tuple(flat), depth)
        return plan

    def broadcast(self, msg: Message, include_self: bool = False) -> None:
        plan = self._multicast_plans(msg.src)
        if include_self:
            self.sim.post(0.0, self._handlers[msg.src], msg)
        if self.link_bandwidth is None and not self._hooked:
            self._broadcast_unlimited(msg)
        else:
            self._fanout_multicast(msg, msg.src, plan)

    def _fanout_multicast(
        self,
        msg: Message,
        at_node: int,
        plan: tuple[tuple[tuple[Link, int], ...], ...],
    ) -> None:
        hops = plan[at_node]
        if not hops:
            return
        sim = self.sim
        arrive = self._multicast_arrive
        if self._hooked or type(sim) is not Simulator:
            # Per-hop reference fan-out: a dropped hop posts nothing, so
            # the whole subtree behind it loses the message.
            for link, child in hops:
                link.cross(msg, arrive, (msg, child, plan))
            return
        size = msg.size_bytes
        # Batched fan-out: claim every child link's serialization slot and
        # push each arrival inline (the float ops of Link.cross,
        # serialization hoisted — all torus links share one bandwidth),
        # then account the traffic once for all of them.
        now = sim._now
        serialization = size / self.link_bandwidth
        latency = self.link_latency
        heap = sim._heap
        first = seq = sim._seq
        for link, child in hops:
            free = link._free_at
            start = now if now >= free else free
            busy_until = start + serialization
            link._free_at = busy_until
            link._crossings += 1
            heappush(
                heap,
                (now + (busy_until + latency - now), seq, arrive,
                 (msg, child, plan)),
            )
            seq += 1
        sim._seq = seq
        crossings = seq - first
        traffic = self.traffic
        traffic._bytes[msg.category] += size * crossings
        traffic._messages[msg.category] += crossings

    def _multicast_arrive(
        self,
        msg: Message,
        node: int,
        plan: tuple[tuple[tuple[Link, int], ...], ...],
    ) -> None:
        # Deliver, then fan out to this node's subtree in one event
        # (this fires once per node per broadcast).
        self._handlers[node](msg)
        if plan[node]:
            self._fanout_multicast(msg, node, plan)

    def _broadcast_unlimited(self, msg: Message) -> None:
        """Post the whole subtree's deliveries up front (zero serialization).

        With unlimited bandwidth a link's serialization slot is always
        free, so the arrival at depth ``d`` is a pure function of the
        broadcast time — no intermediate fan-out event can perturb it.
        The arrival chain reproduces the hop-by-hop float arithmetic
        (each depth re-anchored by ``post_at``'s delay form at the
        previous depth's arrival) so timestamps are bit-identical to the
        reference implementation.  Each delivery is posted straight to
        the node's handler: pushed inline on a stock kernel, through
        ``post_at`` on a jittered one.

        Seq assignment differs from hop-by-hop fan-out: all deliveries
        draw seqs at broadcast time rather than as parents arrive, so if
        an unrelated event lands on *exactly* the same timestamp as a
        deeper delivery, the tie can break the other way.  Ordering
        stays fully deterministic run-to-run either way (and the entire
        figure-suite grid was verified bit-identical against the
        reference); the determinism suite pins the fast path's outputs.
        """
        flat, max_depth = self._flat_plan[msg.src]
        sim = self.sim
        handlers = self._handlers
        latency = self.link_latency
        now = a = sim._now
        arrivals = []
        for _ in range(max_depth):
            hop = a + latency
            a = a + (hop - a)
            arrivals.append(a)
        args = (msg,)
        if type(sim) is Simulator:
            # post_at's own arithmetic, once per depth.
            times = [now + (arrival - now) for arrival in arrivals]
            heap = sim._heap
            seq = sim._seq
            for depth, node, link in flat:
                link._crossings += 1
                heappush(heap, (times[depth - 1], seq, handlers[node], args))
                seq += 1
            sim._seq = seq
        else:
            post_at = sim.post_at
            for depth, node, link in flat:
                link._crossings += 1
                post_at(arrivals[depth - 1], handlers[node], msg)
        self.traffic.record_crossings(msg.category, msg.size_bytes, len(flat))

    def broadcast_crossings(self) -> int:
        """Link crossings per broadcast: the N-1 spanning-tree edges."""
        return self.n_nodes - 1
