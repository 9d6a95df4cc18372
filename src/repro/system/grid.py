"""The canonical protocol × topology grid.

Every harness that sweeps "all protocols on their legal interconnects" —
the stress tests, the adversarial schedule explorer and its presets, the
benchmarks — reads the grid from here: which protocols exist and where
each runs (both read from :data:`repro.config.PROTOCOLS`), which
protocols are token-based, and which can be validated with the strict
data-value checker.
"""

from __future__ import annotations

from typing import Iterator

from repro.config import INTERCONNECTS, PROTOCOLS

#: The conformance grid's protocol set, in :data:`~repro.config.PROTOCOLS`
#: order: every one swept by the adversarial schedule explorer,
#: perturbed and (the ``differential`` preset) un-perturbed.
ALL_PROTOCOLS: tuple[str, ...] = tuple(PROTOCOLS)

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
    """The interconnects ``protocol`` can legally run on."""
    return PROTOCOLS[protocol]


def interconnect_for(protocol: str) -> str:
    """The default interconnect for ``protocol``: the first legal one."""
    return PROTOCOLS[protocol][0]


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
