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

Mutants are installed by patching *instance* methods on a built system
— the shipped protocol classes stay byte-identical — and are addressed
by name so a repro file can reference them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable


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


# The patched-in methods for the three simplest mutants are module-level
# functions rather than lambdas so a mutated system stays picklable by
# reference (the snapshot layer refuses local functions; see
# repro.snapshot.capture and PICKLABLE_MUTANTS below).


def _one_token_can_write(line) -> bool:
    return line.tokens >= 1 and line.valid_data


def _swallow_issue(entry) -> None:
    return None


def _swallow_put_ack(msg) -> None:
    return None


def _install_skip_token_collection(system) -> None:
    """Write permission with a single token instead of all T."""
    for node in system.nodes:
        node._line_can_write = _one_token_can_write


def _install_stale_probe(system) -> None:
    """Node 1's reads observe one version behind what it holds."""
    node = system.nodes[1]

    def probe(block, for_write, _orig=node.probe):
        version = _orig(block, for_write)
        if version is not None and not for_write and version > 0:
            return version - 1
        return version

    node.probe = probe


def _install_token_duplication(system) -> None:
    """Node 1 mints one extra token whenever it releases a line."""
    node = system.nodes[1]
    total = node.total_tokens

    def release(line, dst, category, _node=node, _total=total):
        block = line.block
        if line.tokens > 0:
            version = line.version if line.owner_token else None
            extra = 1 if line.tokens < _total else 0
            _node.send_tokens(
                dst, block, line.tokens + extra, line.owner_token,
                version, category,
            )
        _node._drop_line(block)

    node.release_line_tokens = release


def _install_no_escalation(system) -> None:
    """Misses do nothing at all: no requests, no persistent fallback."""
    for node in system.nodes:
        node._issue_transaction = _swallow_issue


def _install_writeback_leak(system) -> None:
    """PUT_ACKs are swallowed; writeback windows never close."""
    for node in system.nodes:
        node._handle_put_ack = _swallow_put_ack
        node._bind_handlers()


#: Mutants whose installed patches are module-level functions — a system
#: carrying one of these can be snapshotted; every other mutant installs
#: closures or dynamic classes and is refused by the capture layer.
PICKLABLE_MUTANTS = frozenset(
    {"skip-token-collection", "no-escalation", "writeback-leak"}
)


def _recorder_subclass(recorder, **overrides):
    """Swap a slotted recorder onto a single-base subclass with
    ``overrides`` as methods (instance attributes cannot shadow methods
    on a ``__slots__`` class)."""
    cls = type(recorder)
    recorder.__class__ = type(
        f"Mutant{cls.__name__}", (cls,), {"__slots__": (), **overrides}
    )
    return recorder


def _install_lineage_leak(system) -> None:
    """One custody chain's terminal quiesce event leaks.

    The chain's movements are all recorded faithfully — balances match,
    the ledger's count-based audit stays clean — but its quiesce
    terminal never lands, so the chain simply *stops* without reaching a
    terminal state.  Only the outcome contract's exactly-one-terminal
    discipline can see that.
    """
    fired = {"done": False}

    def _emit(
        self, t, kind, block, node, peer=-1, tokens=0, owner=False,
        xfer=-1, _orig=type(system.lineage)._emit,
    ):
        if kind == "quiesce" and not fired["done"]:
            fired["done"] = True
            return -1
        return _orig(self, t, kind, block, node, peer, tokens, owner, xfer)

    _recorder_subclass(system.lineage, _emit=_emit)


def _install_lineage_double_terminal(system) -> None:
    """Quiescence runs twice: every chain gets two terminal states."""

    def finalize(self, now=None, _orig=type(system.lineage).finalize):
        _orig(self, now)
        _orig(self, now)

    _recorder_subclass(system.lineage, finalize=finalize)


def _install_lineage_dropped_dangle(system) -> None:
    """A corrupt-style drop whose chain is never absorbed.

    Node 1 discards the first foreign transient request it is delivered
    (recording the drop, exactly as the fault injector's corruption
    wrapper does) while the recorder stops registering transaction
    completions — so even though the requester recovers via the reissue
    path, the dropped chain never receives its ``absorbed-by-reissue``
    terminal and the fault-aware contract must flag the dangle.
    """
    recorder = system.lineage
    _recorder_subclass(
        system.lineage,
        transaction_complete=lambda self, block, node, t: None,
    )
    node_id = 1
    handlers = system.network._handlers
    sim = system.sim
    fired = {"done": False}

    def wrapped(msg, _orig=handlers[node_id]):
        if (
            not fired["done"]
            and msg.mtype in ("GETS", "GETM")
            and msg.requester != node_id
        ):
            fired["done"] = True
            recorder.request_dropped(
                msg.block, msg.requester, node_id, sim.now
            )
            return
        _orig(msg)

    handlers[node_id] = wrapped


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
