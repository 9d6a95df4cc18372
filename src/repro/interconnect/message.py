"""Network message base class and size constants.

Message sizes follow Section 5.1 of the paper: every request,
acknowledgment, invalidation, and dataless token message is 8 bytes
(covering the 40+ bit physical address plus a token count where needed);
data messages add a 64-byte cache block to that header, for 72 bytes.
"""

from __future__ import annotations

import dataclasses
import itertools

CONTROL_MESSAGE_BYTES = 8
DATA_BLOCK_BYTES = 64
DATA_MESSAGE_BYTES = CONTROL_MESSAGE_BYTES + DATA_BLOCK_BYTES

#: Destination value meaning "all nodes" (tree-based multicast).
BROADCAST = -1

_message_ids = itertools.count()


@dataclasses.dataclass(slots=True)
class Message:
    """Base class for everything that crosses the interconnect.

    Attributes:
        src: Sending node id.
        dst: Receiving node id, or :data:`BROADCAST`.
        size_bytes: Wire size; 8 for control, 72 for data-bearing messages.
        category: Traffic-accounting label (e.g. ``"request"``, ``"data"``).
        vnet: Virtual-network name.  Virtual networks share physical link
            bandwidth (they exist for deadlock freedom and, on the tree,
            to mark which traffic is totally ordered).
        ordered_seq: Global sequence number stamped by the tree root for
            messages on the ordered virtual network; ``None`` elsewhere.
        msg_id: Unique id for debugging and deterministic tie-breaks.
    """

    src: int
    dst: int
    size_bytes: int = CONTROL_MESSAGE_BYTES
    category: str = "request"
    vnet: str = "request"
    ordered_seq: int | None = dataclasses.field(default=None, compare=False)
    msg_id: int = dataclasses.field(
        default_factory=_message_ids.__next__, compare=False
    )

    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST
