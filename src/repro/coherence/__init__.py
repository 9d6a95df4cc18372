"""Protocol-independent coherence layer: states, messages, safety oracle."""

from repro.coherence.checker import CoherenceChecker, CoherenceViolation
from repro.coherence.controller import ProtocolError, ProtocolNode
from repro.coherence.messages import CoherenceMessage
from repro.coherence.states import Moesi, state_from_tokens

__all__ = [
    "CoherenceChecker",
    "CoherenceMessage",
    "CoherenceViolation",
    "Moesi",
    "ProtocolError",
    "ProtocolNode",
    "state_from_tokens",
]
