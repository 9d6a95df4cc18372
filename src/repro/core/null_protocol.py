"""The null performance protocol.

Section 4.1: "Performance protocols have no obligations... A null or
random performance protocol would perform poorly but not incorrectly."

:class:`NullTokenNode` demonstrates exactly that: it never issues
transient requests and never responds to anything.  Every miss sits idle
until the starvation timeout fires, escalates to a persistent request,
and completes purely through the correctness substrate.  The integration
tests run full workloads on it and check the same safety oracles as
TokenB — slow, but never wrong.
"""

from __future__ import annotations

from repro.core.substrate import TokenMiss, TokenNodeBase


class NullTokenNode(TokenNodeBase):
    """A Token Coherence node whose performance protocol does nothing."""

    #: How long a miss waits before escalating (ns).  Deliberately short:
    #: with a null protocol *every* miss needs a persistent request.
    escalation_delay_ns = 50.0

    def _issue_transaction(self, entry: TokenMiss) -> None:
        entry.timer = self.sim.schedule(
            self.escalation_delay_ns, self._escalate, entry
        )

    def _escalate(self, entry: TokenMiss) -> None:
        if self.mshrs.get(entry.block) is not entry:
            return
        self.invoke_persistent_request(entry)

    # The null policy ignores every transient request (the substrate's
    # persistent mechanism still forces token forwarding when needed).
