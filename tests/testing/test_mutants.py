"""Oracle self-test: every deliberately injected bug must be caught.

A safety oracle earns trust only by firing on a known-bad system.  Each
mutant in :mod:`repro.testing.mutants` injects one specific coherence
bug; these tests run each mutant under the explorer's full oracle suite
and assert the responsible oracle actually reports a violation — the
negative coverage the checker's strict-mode and violation paths
otherwise lack.
"""

import pytest

from repro.system.grid import interconnect_for
from repro.testing.explore import Scenario, run_scenario
from repro.testing.mutants import MUTANTS


def _mutant_scenario(mutant, seed=0, **overrides):
    params = dict(
        seed=seed,
        protocol=mutant.protocol,
        interconnect=interconnect_for(mutant.protocol),
        workload=mutant.workload,
        n_procs=4,
        ops_per_proc=16 if mutant.protocol == "null-token" else 24,
        mutant=mutant.name,
        max_events=2_000_000,
        # Lineage mutants attack the custody chain; only the armed
        # outcome contract can see them.
        lineage=mutant.lineage,
    )
    params.update(overrides)
    return Scenario(**params)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_trips_its_oracle(name):
    mutant = MUTANTS[name]
    outcome = run_scenario(_mutant_scenario(mutant))
    assert not outcome.ok, f"mutant {name!r} went undetected"
    assert outcome.violation_type in mutant.expected, (
        f"mutant {name!r} caught by {outcome.violation_type} "
        f"({outcome.violation_message}), expected one of {mutant.expected}"
    )


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_detection_is_deterministic(name):
    """Same mutant scenario twice -> identical violation report."""
    mutant = MUTANTS[name]
    first = run_scenario(_mutant_scenario(mutant))
    second = run_scenario(_mutant_scenario(mutant))
    assert first.violation_type == second.violation_type
    assert first.violation_message == second.violation_message


def test_unmutated_counterparts_pass():
    """The same scenarios with the mutant removed are clean — the
    self-test detects the injected bug, not the scenario."""
    import dataclasses

    for mutant in MUTANTS.values():
        clean = dataclasses.replace(_mutant_scenario(mutant), mutant=None)
        outcome = run_scenario(clean)
        assert outcome.ok, (
            f"control scenario for {mutant.name!r} failed: "
            f"{outcome.violation_type} ({outcome.violation_message})"
        )


def test_skip_token_collection_needs_strict_writes():
    """The lost-update mutant is caught even with several writers racing
    on every block (no benign schedule hides it)."""
    mutant = MUTANTS["skip-token-collection"]
    for seed in range(3):
        outcome = run_scenario(_mutant_scenario(mutant, seed=seed))
        assert not outcome.ok
        assert outcome.violation_type == "CoherenceViolation"


def test_mutant_registry_is_well_formed():
    for name, mutant in MUTANTS.items():
        assert mutant.name == name
        assert mutant.expected, f"{name} lists no expected violations"
        assert callable(mutant.install)


def test_dropped_dangle_hook_is_innermost():
    """The mutant's delivery hook sits just before node 1's handler,
    inside a pause gate armed after it."""
    from repro.faults import FaultEvent, FaultPlan, PauseGate
    from repro.testing.explore import _armed_system

    mutant = MUTANTS["lineage-dropped-dangle"]
    plan = FaultPlan(events=(
        FaultEvent("node_pause", start_ns=100.0, duration_ns=50.0, target=1),
    ))
    system = _armed_system(_mutant_scenario(mutant, faults=plan))
    gate = system.network._handlers[1].__self__
    assert isinstance(gate, PauseGate)
    hook = gate.inner.__self__
    assert hook.stage == "mutant"
    assert hook.inner == system.nodes[1].handle_message
