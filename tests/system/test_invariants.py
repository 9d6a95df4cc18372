"""End-of-run invariants: every run finishes through one set of checks.

:meth:`System.finish` runs :func:`repro.system.invariants.check_finished`,
so a plain ``System.run()`` is judged for operation accounting,
drainage and the custody contract exactly as an explorer scenario is,
with no harness around it.
"""

import pytest

from repro.coherence.controller import ProtocolNode
from repro.lineage import LineageContractError, install_recorder
from repro.system.builder import build_system
from repro.system.invariants import OracleError
from repro.testing.explore import (
    Scenario,
    _build_config,
    _generate_streams,
    run_scenario,
)
from repro.testing.mutants import MUTANTS


def _plain_system(protocol, workload, seed):
    """A scenario's machine and streams as a plain build: no overlay."""
    scenario = Scenario(seed, protocol, "torus", workload)
    config = _build_config(scenario)
    return build_system(config, _generate_streams(scenario, config))


@pytest.mark.parametrize("seed", range(4))
def test_plain_run_catches_a_writeback_leak(seed):
    """A directory system that ignores PUT_ACKs fails its own run."""
    system = _plain_system("directory", "writeback_churn", seed)
    MUTANTS["writeback-leak"].install(system)
    with pytest.raises(
        OracleError, match=r"drainage: P\d writeback buffer still holds"
    ):
        system.run()


def test_plain_run_checks_the_custody_contract():
    """A recorder armed on a plain system is finalized and checked."""
    system = _plain_system("tokenb", "false_sharing", 0)
    install_recorder(system)
    MUTANTS["lineage-leak"].install(system)
    with pytest.raises(LineageContractError):
        system.run()
    assert system.lineage.finalized


def test_clean_plain_run_finishes():
    system = _plain_system("tokenb", "false_sharing", 0)
    install_recorder(system)
    result = system.run()
    assert result.total_ops == 4 * 40
    assert system.audited_blocks > 0
    assert system.lineage.finalized


def _complete_a_store_twice(monkeypatch, drop):
    """Break ``_finish_mshr`` on every node: the first write waiter any
    miss finishes with runs twice, and with ``drop`` set to ``"load"``
    or ``"store"`` the next such waiter on that node, for another
    block, never runs, so its processor's totals balance again."""
    finish = ProtocolNode._finish_mshr
    broken = {}

    def finish_mshr(node, entry):
        waiters = entry.waiters
        if not broken:
            writes = [waiter for waiter in waiters if waiter[0]]
            if writes:
                waiters.append(writes[0])
                broken.update(node=node.node_id, block=entry.block)
        elif (
            drop and "dropped" not in broken
            and node.node_id == broken["node"]
            and entry.block != broken["block"]
        ):
            lost = [w for w in waiters if w[0] == (drop == "store")]
            if lost:
                waiters.remove(lost[0])
                broken["dropped"] = entry.block
        finish(node, entry)

    monkeypatch.setattr(ProtocolNode, "_finish_mshr", finish_mshr)
    return broken


#: What each fault breaks first: the processor's completions when a
#: store completes twice; once a lost load or store on block 0x203 evens
#: those out, the extra store validated on block 0x202.  Then the
#: system-wide (stores, loads) the checker validated: 80 of each were
#: dispatched, so a lost store balances even these totals.
_EXTRA_STORE = ("accounting: the checker validated 1 store by P1 to block "
                "0x202 beyond those dispatched")
_ACCOUNTING_FAULTS = {
    "store-twice": (None, "accounting: P1 completed 41 operations but "
                          "dispatched 40", (81, 80)),
    "store-twice-load-lost": ("load", _EXTRA_STORE, (81, 79)),
    "store-twice-store-lost": ("store", _EXTRA_STORE, (80, 80)),
}


@pytest.mark.parametrize("fault", sorted(_ACCOUNTING_FAULTS))
def test_plain_run_catches_a_store_completed_twice(monkeypatch, fault):
    """Nothing else notices: the second store lands on a line its node
    still holds writable, so the data-value checker and drainage pass.
    A lost operation balances each processor's completions."""
    drop, message, totals = _ACCOUNTING_FAULTS[fault]
    broken = _complete_a_store_twice(monkeypatch, drop)
    system = _plain_system("hammer", "false_sharing", 0)
    with pytest.raises(OracleError) as failure:
        system.run()
    assert str(failure.value) == message
    assert broken.get("dropped") == (drop and 0x203)
    checker = system.checker
    assert (checker.stores_checked, checker.loads_checked) == totals
    if drop is not None:
        assert all(s.completed_ops == s.issued_ops == 40
                   for s in system.sequencers)


@pytest.mark.parametrize("fault", sorted(_ACCOUNTING_FAULTS))
def test_scenario_catches_a_store_completed_twice(monkeypatch, fault):
    drop, message, _ = _ACCOUNTING_FAULTS[fault]
    _complete_a_store_twice(monkeypatch, drop)
    outcome = run_scenario(Scenario(0, "hammer", "torus", "false_sharing"))
    assert outcome.violation_type == "OracleError"
    assert outcome.violation_message == message
