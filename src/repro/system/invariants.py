"""Every end-of-run invariant, as named predicates over a built System.

:func:`check_finished` is the one definition of a finished run, and
:meth:`System.finish <repro.system.builder.System.finish>` calls it: a
plain ``System.run()``, an explorer scenario (the ``differential``
preset's un-perturbed ones included) and a forked tail are all judged
by the same checks in the same order.  A new end-of-run check belongs
here, not in a harness.
"""

from __future__ import annotations


class OracleError(AssertionError):
    """An end-of-run oracle failed (accounting, drainage or fault
    recovery)."""


def check_accounting(system) -> None:
    """Every dispatched operation was validated exactly once, as itself.

    Section 4.1: whatever the performance protocol does, what the input
    streams fix comes out the same: each block's final version, each
    processor's load and store counts per block, and the versions a
    private block's stores produce.  All three are read off the data
    checker's validations (``record_store`` raises a block's version by
    one per store), so once the checker has validated, per processor
    and block, exactly the loads and stores dispatched there, the
    streams fix them and a cross-protocol comparison has nothing left
    to find.  The checker counts each operation pending from
    ``Sequencer._dispatch`` until it validates it, per (processor,
    block) and kind; a finished run must leave nothing pending and
    nothing validated twice, and each sequencer must have completed
    what it dispatched.  Totals would not do: a store completed twice
    on one block and lost on another balances every one of them.
    """
    for sequencer in system.sequencers:
        if sequencer.completed_ops != sequencer.issued_ops:
            raise OracleError(
                f"accounting: P{sequencer.proc_id} completed "
                f"{sequencer.completed_ops} operations but dispatched "
                f"{sequencer.issued_ops}"
            )
    checker = system.checker
    for kind, pending in (
        ("store", checker.pending_stores),
        ("load", checker.pending_loads),
    ):
        unsettled = sorted(item for item in pending.items() if item[1])
        if not unsettled:
            continue
        (proc, block), count = unsettled[0]
        noun = kind if abs(count) == 1 else f"{kind}s"
        if count > 0:
            raise OracleError(
                f"accounting: P{proc} dispatched {count} {noun} to block "
                f"{block:#x} that the checker never validated"
            )
        raise OracleError(
            f"accounting: the checker validated {-count} {noun} by "
            f"P{proc} to block {block:#x} beyond those dispatched"
        )


def check_drained(system) -> None:
    """Writeback buffers and MSHRs are empty on every node; on token
    protocols so are persistent tables and requests, and every arbiter
    is idle."""
    for node in system.nodes:
        if node.writeback_buffer:
            raise OracleError(
                f"drainage: P{node.node_id} writeback buffer still holds "
                f"{sorted(node.writeback_buffer)}"
            )
        if len(node.mshrs) != 0:
            raise OracleError(
                f"drainage: P{node.node_id} finished with live MSHRs"
            )
    if system.ledger is None:
        return
    for node in system.nodes:
        if node._table_by_arbiter or node._table_by_block:
            raise OracleError(
                f"drainage: P{node.node_id} persistent table not empty"
            )
        if node._my_persistent:
            raise OracleError(
                f"drainage: P{node.node_id} has unresolved persistent "
                "requests"
            )
        arbiter = node.arbiter
        if arbiter.state != "idle" or arbiter.queue or arbiter.current:
            raise OracleError(
                f"drainage: arbiter at P{node.node_id} stuck in "
                f"{arbiter.state!r}"
            )


def check_recovered(system) -> None:
    """Every fault window must be followed by quiescence.

    By the time the event queue drains, (a) no pause gate may still
    buffer messages — resume must have flushed them all — and (b) the
    simulation clock must have passed the last fault window, so the
    liveness and drainage checks genuinely ran *after* the faults, not
    before them.
    """
    injector = system.faults
    undrained = injector.undrained_nodes()
    if undrained:
        raise OracleError(
            f"recovery: pause gates at nodes {undrained} still buffer "
            "messages after the run (resume never drained them)"
        )
    if injector.gates and system.sim.now < injector.last_fault_end_ns():
        raise OracleError(
            "recovery: event queue drained at "
            f"t={system.sim.now} before the last fault window closed "
            f"at t={injector.last_fault_end_ns()}"
        )


def check_finished(system) -> None:
    """Judge a drained run; raise on the first invariant it breaks.

    Liveness (:class:`~repro.system.simulator.DeadlockError`), operation
    accounting, Invariant #1' over every touched block, drainage,
    recovery from an armed fault plan, then an armed custody recorder's
    outcome contract.
    """
    system.check_complete()
    check_accounting(system)
    if system.ledger is not None:
        # The audit retires quiesced blocks, so the count of blocks it
        # covered lives on the system rather than in ledger state.
        system.audited_blocks = system.ledger.audit_all_touched()
    check_drained(system)
    if system.faults is not None:
        check_recovered(system)
    recorder = system.lineage
    if recorder is not None:
        from repro.lineage import check_outcome_contract

        recorder.finalize(now=system.sim.now)
        check_outcome_contract(recorder, system.nodes)
