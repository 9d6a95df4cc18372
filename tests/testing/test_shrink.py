"""Failure-shrinking tests: a forced violation is minimized to a
deterministic repro file that replays to the same violation."""

import dataclasses

import pytest

from repro.faults import FAULT_KINDS
from repro.interconnect import NETWORKS
from repro.testing.explore import Scenario, make_fault_scenario, run_scenario
from repro.testing.perturb import PerturbSpec
from repro.testing.shrink import load_repro, replay, shrink, write_repro


def _forced_violation() -> Scenario:
    """A deliberately noisy violating scenario: the no-escalation mutant
    deadlocks, wrapped in perturbations and overrides the bug does not
    need, so the shrinker has real work to do."""
    return Scenario(
        seed=1,
        protocol="null-token",
        interconnect="torus",
        workload="false_sharing",
        n_procs=4,
        ops_per_proc=16,
        perturb=PerturbSpec(seed=1, link_jitter_ns=6.0,
                            kernel_jitter_ns=12.0),
        config_overrides={"l2_assoc": 8},
        mutant="no-escalation",
    )


def test_shrink_requires_a_failing_scenario():
    clean = Scenario(seed=0, protocol="tokenb", interconnect="torus",
                     workload="false_sharing", ops_per_proc=8)
    with pytest.raises(ValueError, match="does not fail"):
        shrink(clean)


def test_forced_violation_shrinks_and_replays(tmp_path):
    original = _forced_violation()
    original_outcome = run_scenario(original)
    assert not original_outcome.ok
    assert original_outcome.violation_type == "DeadlockError"

    shrunk, outcome = shrink(original)
    # The minimized scenario still fails the same way...
    assert outcome.violation_type == "DeadlockError"
    # ...and is strictly smaller: fewer ops, fewer procs, and none of
    # the irrelevant perturbations or overrides survive.
    assert shrunk.ops_per_proc < original.ops_per_proc
    assert shrunk.n_procs < original.n_procs
    assert shrunk.perturb.active_fields() == []
    assert shrunk.config_overrides == {}
    assert shrunk.mutant == "no-escalation"

    path = tmp_path / "repro.json"
    write_repro(path, shrunk, outcome)
    loaded, expected = load_repro(path)
    assert loaded == shrunk
    assert expected["type"] == "DeadlockError"

    reproduced, _, replay_outcome = replay(path)
    assert reproduced
    assert replay_outcome.violation_type == "DeadlockError"
    assert replay_outcome.violation_message == outcome.violation_message


def test_shrink_preserves_violation_type_not_just_any_failure():
    """A reduction that flips the failure mode must be rejected: every
    accepted candidate reproduces the original violation type."""
    original = _forced_violation()
    shrunk, outcome = shrink(original)
    # Re-running the shrunk scenario gives the identical violation.
    again = run_scenario(shrunk)
    assert again.violation_type == outcome.violation_type
    assert again.violation_message == outcome.violation_message


def test_shrink_respects_run_budget():
    original = _forced_violation()
    shrunk, outcome = shrink(original, max_runs=3)
    assert not outcome.ok  # still a witness even under a tiny budget
    assert shrunk.ops_per_proc <= original.ops_per_proc


def test_load_repro_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_repro.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a repro"):
        load_repro(path)


def test_candidates_never_enlarge_the_scenario():
    from repro.testing.shrink import _candidates

    scenario = _forced_violation()
    for candidate in _candidates(scenario):
        assert candidate.ops_per_proc <= scenario.ops_per_proc
        assert candidate.n_procs <= scenario.n_procs
        assert len(candidate.perturb.active_fields()) <= len(
            scenario.perturb.active_fields()
        )
        assert len(candidate.config_overrides) <= len(
            scenario.config_overrides
        )
        assert len(candidate.faults.events) <= len(scenario.faults.events)
        # A candidate differs from its parent in exactly one dimension.
        assert candidate != scenario


# ----------------------------------------------------------------------
# Faulty-fabric violations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("interconnect", ["torus", "tree"])
@pytest.mark.parametrize("fault_class", FAULT_KINDS)
def test_faulty_fabric_violation_shrinks(fault_class, interconnect):
    """Fewer processors mean fewer links and nodes: a processor
    reduction is proposed only while every link and node the fault plan
    targets still exists, so shrinking a faulty-fabric violation yields
    a witness instead of a fault-installation error.  A fault window the
    violation does not need is dropped."""
    scenario = dataclasses.replace(
        make_fault_scenario(1, "tokenb", interconnect, fault_class,
                            workload="false_sharing"),
        mutant="skip-token-collection",
    )
    original = run_scenario(scenario)
    assert not original.ok

    shrunk, outcome = shrink(scenario)
    assert outcome.violation_type == original.violation_type
    # The mutant alone breaks coherence, so every fault window goes.
    assert scenario.faults.events and shrunk.faults.events == ()
    n_links = NETWORKS[interconnect].link_count(shrunk.n_procs)
    assert all(e.target < n_links for e in shrunk.faults.link_events())
    assert all(
        e.target < shrunk.n_procs for e in shrunk.faults.events_of("node_pause")
    )
    assert run_scenario(shrunk) == outcome


def test_repro_file_is_pure_json(tmp_path):
    import json

    scenario = _forced_violation()
    outcome = run_scenario(scenario)
    path = tmp_path / "repro.json"
    write_repro(path, scenario, outcome)
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro.testing/repro-v1"
    assert payload["scenario"]["mutant"] == "no-escalation"
    assert payload["violation"]["type"] == "DeadlockError"
    # Round-trips through Scenario.from_dict with nothing lost.
    assert Scenario.from_dict(payload["scenario"]) == scenario
    assert dataclasses.asdict(
        Scenario.from_dict(payload["scenario"]).perturb
    ) == payload["scenario"]["perturb"]
