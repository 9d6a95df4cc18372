"""Coherence message vocabulary shared by all seven protocols.

One flexible dataclass rather than a class per message type: protocol
handlers dispatch on ``mtype`` strings.  The types in each protocol's
``handlers`` table:

============================  ==============================================
Protocols                     Message types
============================  ==============================================
TokenB, TokenD, TokenM, null  GETS, GETM (transient requests: broadcast by
                              TokenB, sent to the home and redirected by
                              TokenD, multicast by TokenM, never sent by
                              the null policy); TOKEN_DATA (data + tokens),
                              TOKEN_ONLY (dataless tokens); PREQ,
                              PDEACT_REQ (to the arbiter); PACT, PDEACT
                              (the arbiter's broadcasts); PACT_ACK,
                              PDEACT_ACK (to the arbiter)
Snooping                      GETS, GETM, PUT (ordered broadcasts); DATA
                              (response); WB_DATA (writeback data to home)
Directory                     GETS, GETM, PUT (to home); FWD_GETS,
                              FWD_GETM, INV (from home); DATA, ACK,
                              ACK_COUNT (to requester); UNBLOCK (to home);
                              PUT_ACK (from home)
Hammer                        GETS, GETM, PUT (to home); PROBE_GETS,
                              PROBE_GETM (home broadcast); DATA, ACK,
                              MEM_DATA (to requester); UNBLOCK (to home);
                              PUT_ACK (from home)
============================  ==============================================

Sizes follow Section 5.1: data-bearing messages are 72 bytes, everything
else 8 bytes.  ``data_version`` is the integer payload standing in for the
64-byte block, consumed by the coherence checker.
"""

from __future__ import annotations

import dataclasses

from repro.interconnect.message import Message

#: Transient performance-protocol requests.  Losing, repeating, or
#: reordering these is explicitly covered by the paper's reissue +
#: persistent machinery, so they are the only message types the
#: adversarial layers (:mod:`repro.testing.perturb`, :mod:`repro.faults`)
#: may discard on token protocols.
TRANSIENT_REQUEST_MTYPES = ("GETS", "GETM")


@dataclasses.dataclass(slots=True)
class CoherenceMessage(Message):
    """A protocol message; see module docstring for the ``mtype`` values."""

    mtype: str = ""
    block: int = 0
    #: The node whose miss this message serves (responses and forwards).
    requester: int = -1
    #: Token count carried (Token Coherence only).
    tokens: int = 0
    #: True if the owner token rides in this message (must carry data,
    #: Invariant #4').
    owner_token: bool = False
    #: Data payload version; None on dataless messages.
    data_version: int | None = None
    #: Invalidation-ack count the requester must collect (Directory).
    acks_expected: int = 0
    #: Tag disambiguating persistent-request sessions and marking
    #: memory-sourced data (protocol-specific small integer).
    tag: int = 0
    #: Requester-local transaction id, echoed by the responses that can
    #: outlive their miss (Snooping's DATA, Hammer's MEM_DATA) so one
    #: cannot be mistaken for the response to a newer miss.
    tx: int = 0

    def carries_data(self) -> bool:
        return self.data_version is not None

