"""Interconnection networks: ordered broadcast tree and unordered torus."""

from repro.interconnect.link import Link
from repro.interconnect.message import (
    BROADCAST,
    CONTROL_MESSAGE_BYTES,
    DATA_BLOCK_BYTES,
    DATA_MESSAGE_BYTES,
    Message,
)
from repro.interconnect.topology import Interconnect
from repro.interconnect.tree import ORDERED_VNET, OrderedTreeInterconnect
from repro.interconnect.torus import TorusInterconnect, torus_dims

__all__ = [
    "BROADCAST",
    "CONTROL_MESSAGE_BYTES",
    "DATA_BLOCK_BYTES",
    "DATA_MESSAGE_BYTES",
    "Interconnect",
    "Link",
    "Message",
    "NETWORKS",
    "ORDERED_VNET",
    "OrderedTreeInterconnect",
    "TorusInterconnect",
    "build_interconnect",
    "torus_dims",
]


#: Interconnect name -> network class (the names of
#: :data:`repro.config.INTERCONNECTS`).
NETWORKS: dict[str, type[Interconnect]] = {
    "torus": TorusInterconnect,
    "tree": OrderedTreeInterconnect,
}


def build_interconnect(
    kind: str,
    sim,
    n_nodes: int,
    link_latency: float,
    link_bandwidth: float | None,
    traffic=None,
):
    """The ``kind`` network (a :data:`NETWORKS` name) of ``n_nodes``."""
    return NETWORKS[kind](sim, n_nodes, link_latency, link_bandwidth, traffic)
