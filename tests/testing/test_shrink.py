"""Failure-shrinking tests: a forced violation is minimized to a
deterministic repro file that replays to the same violation."""

import dataclasses

import pytest

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
        # A candidate differs from its parent in exactly one dimension.
        assert candidate != scenario


# ----------------------------------------------------------------------
# Checkpointed shrinking
# ----------------------------------------------------------------------


def _checkpointable_violation() -> Scenario:
    """A violating scenario inside the snapshot boundary: picklable
    mutant, jitter-only perturbation, prefix-stable workload."""
    return Scenario(
        seed=3,
        protocol="directory",
        interconnect="torus",
        workload="writeback_churn",
        n_procs=4,
        ops_per_proc=40,
        perturb=PerturbSpec(link_jitter_ns=6.0),
        mutant="writeback-leak",
    )


def test_checkpointable_classifies_the_boundary():
    from repro.testing.shrink import checkpointable

    assert checkpointable(_checkpointable_violation())
    base = _checkpointable_violation()
    # Every overlay pickles, so none of them flips the verdict...
    for armed in (
        dataclasses.replace(base, lineage=True, observe=True),
        dataclasses.replace(base, perturb=PerturbSpec(
            drop_request_prob=0.1, dup_request_prob=0.1,
            force_escalation_prob=0.1,
        )),
        make_fault_scenario(3, "tokenb", "torus", "corrupt",
                            workload="writeback_churn"),
    ):
        assert checkpointable(armed)
    # ...only a closure-based mutant or a prefix-unstable workload does.
    assert not checkpointable(dataclasses.replace(base, mutant="stale-probe"))
    assert not checkpointable(dataclasses.replace(base, workload="phase_shift"))


def test_checkpointed_shrink_simulates_fewer_events():
    """The speedup contract: resuming ops-reduction candidates from the
    violating run's snapshots yields the *same* minimized repro — same
    scenario, byte-identical outcome — for strictly fewer simulated
    events, with the savings visible in the stats out-param."""
    scenario = _checkpointable_violation()
    cold_stats: dict = {}
    cold_scenario, cold_outcome = shrink(
        scenario, checkpoints=False, stats=cold_stats
    )
    warm_stats: dict = {}
    warm_scenario, warm_outcome = shrink(
        scenario, checkpoints=True, stats=warm_stats
    )

    assert warm_scenario == cold_scenario
    assert warm_outcome == cold_outcome
    assert warm_stats["checkpoints"] > 0
    assert warm_stats["resumed_runs"] > 0
    assert warm_stats["events_saved"] > 0
    assert warm_stats["events_simulated"] < cold_stats["events_simulated"]
    # The accounting is conservation-exact: warm work + skipped warmups
    # equals what the same candidate schedule cost cold.
    assert cold_stats["resumed_runs"] == 0
    assert cold_stats["events_saved"] == 0
    assert (
        warm_stats["events_simulated"] + warm_stats["events_saved"]
        == cold_stats["events_simulated"]
    )


def test_unsupported_scenarios_degrade_to_cold_shrinking():
    """Outside the snapshot boundary, checkpoints=True is a transparent
    no-op: identical result, zero resumed runs."""
    original = Scenario(  # a closure-based mutant: cold-only
        seed=3, protocol="tokenb", interconnect="torus",
        workload="false_sharing", ops_per_proc=24,
        perturb=PerturbSpec(seed=3, link_jitter_ns=6.0),
        mutant="stale-probe", lineage=True,
    )
    warm_stats: dict = {}
    shrunk, outcome = shrink(original, checkpoints=True, stats=warm_stats)
    assert not outcome.ok
    assert warm_stats["checkpoints"] == 0
    assert warm_stats["resumed_runs"] == 0
    assert warm_stats["events_saved"] == 0
    assert shrunk.ops_per_proc <= original.ops_per_proc


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
