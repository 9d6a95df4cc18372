"""The canonical protocol × topology grid.

Every harness that sweeps "all protocols on their legal interconnects" —
the stress tests, the adversarial schedule explorer and its presets, the
benchmarks — used to restate the same facts ad hoc: which protocols
exist, that traditional snooping only runs on the totally-ordered tree,
which protocols are token-based, and which can be validated with the
strict data-value checker.  This module is the single
statement of those facts.

``ALL_PROTOCOLS`` lists the seven protocols the conformance grid
exercises: the four paper protocols, the null performance protocol that
stresses the correctness substrate alone, and the two Section 7
extension protocols (TokenD's soft-state directory and TokenM's
predictive multicast, both first-class citizens of
:mod:`repro.predict`) — every one swept by the adversarial schedule
explorer, perturbed and (the ``differential`` preset) un-perturbed.
"""

from __future__ import annotations

from typing import Iterator

from repro.config import INTERCONNECTS, PROTOCOLS

#: The conformance grid's protocol set: the paper's four protocols, the
#: null performance protocol (Section 4.1's degenerate-but-correct
#: policy), and the Section 7 extension protocols.
ALL_PROTOCOLS: tuple[str, ...] = (
    "tokenb",
    "snooping",
    "directory",
    "hammer",
    "null-token",
    "tokend",
    "tokenm",
)

#: Protocols built on the Token Coherence correctness substrate (token
#: counting + persistent requests).
TOKEN_PROTOCOLS: tuple[str, ...] = ("tokenb", "null-token", "tokend", "tokenm")

#: Protocols whose checker can run in strict mode (instantaneous
#: agreement with the authoritative version is guaranteed; Section 3.1).
STRICT_SAFE_PROTOCOLS: tuple[str, ...] = ("tokenb", "tokend", "tokenm")


def is_token_protocol(protocol: str) -> bool:
    """True if ``protocol`` runs on the token-counting substrate."""
    return protocol in TOKEN_PROTOCOLS


def interconnects_for(protocol: str) -> tuple[str, ...]:
    """The interconnects ``protocol`` can legally run on.

    Traditional snooping requires the totally-ordered tree (Section 2);
    every other protocol runs on both the torus and the tree.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "snooping":
        return ("tree",)
    return INTERCONNECTS


def interconnect_for(protocol: str) -> str:
    """The default interconnect for ``protocol``.

    The torus (the paper's preferred glueless topology) everywhere it is
    legal; the tree where snooping requires it.
    """
    return "tree" if protocol == "snooping" else "torus"


def protocol_grid(
    protocols: tuple[str, ...] | list[str] = ALL_PROTOCOLS,
    interconnects: tuple[str, ...] | list[str] = INTERCONNECTS,
) -> Iterator[tuple[str, str]]:
    """Yield every legal ``(protocol, interconnect)`` pair in the grid.

    The full default grid is 13 combinations: snooping contributes only
    snooping/tree; the other six protocols contribute both topologies.
    """
    for protocol in protocols:
        legal = interconnects_for(protocol)
        for interconnect in interconnects:
            if interconnect in legal:
                yield protocol, interconnect
