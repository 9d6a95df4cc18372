"""Deliberately broken protocol variants: the oracle self-test.

A safety net that has never caught anything might just be a net with a
hole in it.  Each mutant here injects one specific coherence bug into a
built system, chosen so that exactly one oracle family is responsible
for catching it:

======================  ==============================================
Mutant                  Oracle that must fire
======================  ==============================================
skip-token-collection   Data-value checker (lost update / strict): a
                        node writes with only one token (Invariant #2'
                        dropped), so concurrent writers race.
stale-probe             Data-value checker (strict mode): one node's
                        probe under-reports versions by one, returning
                        provably stale data on every read hit.
token-duplication       Token conservation (Invariant #1'): evictions
                        send one more token than the line holds.
no-escalation           Liveness: misses neither issue transient
                        requests nor escalate, so the event queue
                        drains with operations outstanding.
writeback-leak          Writeback drainage: PUT_ACKs are ignored, so
                        the eviction window never closes.
lineage-leak            Token outcome contract: one custody chain's
                        quiesce terminal leaks, so the chain ends with
                        no terminal state at all.
lineage-double-terminal Token outcome contract: quiescence terminals
                        are written twice, so chains reach two
                        terminal states instead of exactly one.
lineage-dropped-dangle  Token outcome contract (fault-aware): a
                        corrupt-dropped request chain never receives
                        its absorbed-by-reissue terminal.
==========================================================================

Mutants are installed by patching *instance* methods and the lineage
recorder's class on a built system — the shipped protocol classes stay
byte-identical — and are addressed by name so a repro file can reference
them.  Every patch is module-level code (a function, bound to its node
with :func:`functools.partial`; a :class:`LineageRecorder` subclass; a
:class:`~repro.overlay.DeliveryHook`), so a mutated system snapshots
and forks like any other.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

from repro.lineage.record import LineageRecorder
from repro.overlay import DeliveryHook, arm_delivery


@dataclasses.dataclass(frozen=True)
class Mutant:
    """One named bug injection."""

    name: str
    #: The protocol the self-test runs it on (the bug itself may apply
    #: more broadly).
    protocol: str
    #: Violation type names (``type(exc).__name__``) the oracles may
    #: legally report for this bug.
    expected: tuple[str, ...]
    install: Callable[[object], None]
    #: The adversarial workload that reliably provokes the bug (e.g.
    #: only ``writeback_churn`` keeps eviction windows open long enough
    #: for ``writeback-leak`` to accumulate).
    workload: str = "false_sharing"
    description: str = ""
    #: The self-test must arm the lineage recorder (the mutant attacks
    #: the custody chain, and only the outcome contract can see it).
    lineage: bool = False


def _one_token_can_write(line) -> bool:
    return line.tokens >= 1 and line.valid_data


def _swallow_issue(entry) -> None:
    return None


def _swallow_put_ack(msg) -> None:
    return None


def _stale_probe(node, block, for_write):
    # ``node.probe`` is this patch; the class holds the real probe.
    version = type(node).probe(node, block, for_write)
    if version is not None and not for_write and version > 0:
        return version - 1
    return version


def _release_with_extra_token(node, line, dst, category) -> None:
    block = line.block
    if line.tokens > 0:
        version = line.version if line.owner_token else None
        extra = 1 if line.tokens < node.total_tokens else 0
        node.send_tokens(
            dst, block, line.tokens + extra, line.owner_token, version,
            category,
        )
    node._drop_line(block)


def _install_skip_token_collection(system) -> None:
    """Write permission with a single token instead of all T."""
    for node in system.nodes:
        node._line_can_write = _one_token_can_write


def _install_stale_probe(system) -> None:
    """Node 1's reads observe one version behind what it holds."""
    node = system.nodes[1]
    node.probe = functools.partial(_stale_probe, node)


def _install_token_duplication(system) -> None:
    """Node 1 mints one extra token whenever it releases a line."""
    node = system.nodes[1]
    node.release_line_tokens = functools.partial(
        _release_with_extra_token, node
    )


def _install_no_escalation(system) -> None:
    """Misses do nothing at all: no requests, no persistent fallback."""
    for node in system.nodes:
        node._issue_transaction = _swallow_issue


def _install_writeback_leak(system) -> None:
    """PUT_ACKs are swallowed; writeback windows never close."""
    for node in system.nodes:
        node._handle_put_ack = _swallow_put_ack
        node._bind_handlers()


class _QuiesceLeakRecorder(LineageRecorder):
    """Finalizes, then loses the first ``quiesce`` terminal (the seq
    numbers after it skip one; no oracle or outcome field reads them)."""

    __slots__ = ()

    def finalize(self, now=None) -> None:
        super().finalize(now)
        for index, event in enumerate(self.events):
            if event[2] == "quiesce":
                del self.events[index]
                return


class _DoubleFinalizeRecorder(LineageRecorder):
    """Writes every terminal twice."""

    __slots__ = ()

    def finalize(self, now=None) -> None:
        super().finalize(now)
        super().finalize(now)


class _NoCompletionRecorder(LineageRecorder):
    """Never registers a completed transaction."""

    __slots__ = ()

    def transaction_complete(self, block, node, t) -> None:
        return None


class _DropFirstForeignRequest(DeliveryHook):
    """Discards the first foreign transient request the node is
    delivered, recording the drop as a corruption fault would."""

    stage = "mutant"
    __slots__ = ("sim", "node_id", "recorder", "fired")

    def __init__(self, sim, node_id, recorder) -> None:
        self.sim = sim
        self.node_id = node_id
        self.recorder = recorder
        self.fired = False

    def deliver(self, msg) -> None:
        if (
            not self.fired
            and msg.mtype in ("GETS", "GETM")
            and msg.requester != self.node_id
        ):
            self.fired = True
            self.recorder.request_dropped(
                msg.block, msg.requester, self.node_id, self.sim._now
            )
            return
        self.inner(msg)


def _install_lineage_leak(system) -> None:
    """One custody chain's terminal quiesce event leaks.

    The chain's movements are all recorded faithfully — balances match,
    the ledger's count-based audit stays clean — but its quiesce
    terminal never lands, so the chain simply *stops* without reaching a
    terminal state.  Only the outcome contract's exactly-one-terminal
    discipline can see that.
    """
    system.lineage.__class__ = _QuiesceLeakRecorder


def _install_lineage_double_terminal(system) -> None:
    """Quiescence runs twice: every chain gets two terminal states."""
    system.lineage.__class__ = _DoubleFinalizeRecorder


def _install_lineage_dropped_dangle(system) -> None:
    """A corrupt-style drop whose chain is never absorbed.

    Node 1 discards the first foreign transient request it is delivered
    (recording the drop, exactly as the fault injector's corruption
    hook does) while the recorder stops registering transaction
    completions — so even though the requester recovers via the reissue
    path, the dropped chain never receives its ``absorbed-by-reissue``
    terminal and the fault-aware contract must flag the dangle.  The
    drop is the innermost delivery stage, so every delivery hook sits
    outside it, whenever it was armed.
    """
    system.lineage.__class__ = _NoCompletionRecorder
    arm_delivery(
        system.network, 1,
        _DropFirstForeignRequest(system.sim, 1, system.lineage),
    )


MUTANTS: dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            name="skip-token-collection",
            protocol="tokenb",
            expected=("CoherenceViolation",),
            install=_install_skip_token_collection,
            description="writes proceed with one token instead of all T",
        ),
        Mutant(
            name="stale-probe",
            protocol="tokenb",
            expected=("CoherenceViolation",),
            install=_install_stale_probe,
            description="node 1 serves reads one version stale",
        ),
        Mutant(
            name="token-duplication",
            protocol="tokenb",
            expected=("TokenInvariantError",),
            install=_install_token_duplication,
            workload="eviction_storm",
            description="node 1 sends tokens it does not hold",
        ),
        Mutant(
            name="no-escalation",
            protocol="null-token",
            expected=("DeadlockError",),
            install=_install_no_escalation,
            description="misses never issue or escalate anything",
        ),
        Mutant(
            name="writeback-leak",
            protocol="directory",
            expected=("OracleError",),
            install=_install_writeback_leak,
            workload="writeback_churn",
            description="PUT_ACKs ignored; writeback buffer leaks",
        ),
        Mutant(
            name="lineage-leak",
            protocol="tokenb",
            expected=("LineageContractError",),
            install=_install_lineage_leak,
            description="one chain's quiesce terminal leaks (no terminal)",
            lineage=True,
        ),
        Mutant(
            name="lineage-double-terminal",
            protocol="tokenb",
            expected=("LineageContractError",),
            install=_install_lineage_double_terminal,
            description="quiescence recorded twice per custody chain",
            lineage=True,
        ),
        Mutant(
            name="lineage-dropped-dangle",
            protocol="tokenb",
            expected=("LineageContractError",),
            install=_install_lineage_dropped_dangle,
            description="corrupt-dropped request chain never absorbed",
            lineage=True,
        ),
    )
}
