"""Snapshot behavior under every explorer overlay combination.

Every overlay the adversarial harness can arm — jitter, drop/dup,
forced escalation, link flap / degrade, corruption, node pause, lineage
and tracing — hooks the system through :mod:`repro.overlay`, so a
mid-run capture/restore continues bit-identically: the forked outcome
equals the uninterrupted one, violation or not.  Every mutant patches
module-level code, so mutated systems fork too.  Generator op streams
are refused *before* any pickling is attempted, and anything else
unpicklable by the pickler: either way ``SimulatorSnapshot.capture``
raises :class:`SnapshotUnsupportedError` naming the cause.
"""

import dataclasses

import pytest

from repro.faults import FAULT_KINDS, generate_plan
from repro.interconnect import NETWORKS
from repro.snapshot import SimulatorSnapshot, SnapshotUnsupportedError
from repro.testing.explore import (
    FAULT_EVENTS_PER_KIND,
    FAULT_HORIZON_NS,
    Scenario,
    _armed_system,
    _finish_scenario,
    make_fault_scenario,
    make_scenario,
    run_scenario,
)
from repro.testing.mutants import MUTANTS
from repro.testing.perturb import PerturbSpec


def _forked_outcome(scenario: Scenario, pause_events: int):
    """Run to ``pause_events``, capture, restore, finish the restored copy.

    The snapshot is the system alone: every overlay rides on it, so the
    restored run's :class:`ScenarioOutcome` (perturbation and fault
    counters, pause-gate buffers and lineage included) is judged by the
    same oracle path as :func:`run_scenario`.
    """
    system = _armed_system(scenario)
    system.start()
    while system.sim.events_fired < pause_events and system.sim.step():
        pass
    restored = SimulatorSnapshot.capture(system).restore()
    return _finish_scenario(scenario, restored)


def _assert_fork_transparent(scenario: Scenario) -> None:
    cold = run_scenario(scenario)
    forked = _forked_outcome(scenario, max(1, cold.events_fired // 2))
    assert forked == cold


# ----------------------------------------------------------------------
# Every overlay: capture mid-run, restored continuation identical
# ----------------------------------------------------------------------


def test_bare_scenario_forks_transparently():
    _assert_fork_transparent(
        Scenario(seed=1, protocol="tokenb", interconnect="torus",
                 workload="false_sharing")
    )


def test_jitter_perturbations_fork_transparently():
    """All three jitter hooks are bound RNG methods — fully picklable."""
    _assert_fork_transparent(
        Scenario(
            seed=2, protocol="tokenm", interconnect="torus",
            workload="arbiter_contention",
            perturb=PerturbSpec(
                kernel_jitter_ns=12.0, link_jitter_ns=6.0,
                reorder_jitter_ns=10.0,
            ),
        )
    )


@pytest.mark.parametrize("fault_class", ["link_flap", "link_degrade",
                                         "node_pause"])
def test_loss_free_fault_plans_fork_transparently(fault_class):
    """Flap/degrade/pause state lives in module-level classes and
    scheduled bound-method events; snapshots carry it all."""
    scenario = dataclasses.replace(
        make_fault_scenario(
            1, "tokenb", "torus", fault_class, workload="false_sharing"
        ),
        lineage=False, observe=False,
    )
    _assert_fork_transparent(scenario)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_fork_transparently(name):
    """Every mutant patches module-level code, so a mutated system
    snapshots — the forked run reaches the same violation (type,
    message, and event count) as the cold run, which is what lets the
    shrinker resume them mid-stream."""
    mutant = MUTANTS[name]
    scenario = Scenario(
        seed=4, protocol=mutant.protocol, interconnect="torus",
        workload=mutant.workload, mutant=name, lineage=mutant.lineage,
    )
    cold = run_scenario(scenario)
    assert not cold.ok
    forked = _forked_outcome(scenario, max(1, cold.events_fired // 2))
    assert forked == cold


def test_jitter_plus_fault_combination_forks_transparently():
    scenario = dataclasses.replace(
        make_fault_scenario(
            2, "tokend", "torus", "link_flap", workload="false_sharing"
        ),
        perturb=PerturbSpec(kernel_jitter_ns=12.0, link_jitter_ns=6.0,
                            reorder_jitter_ns=10.0),
        lineage=False, observe=False,
    )
    _assert_fork_transparent(scenario)


def _bare(**fields) -> Scenario:
    return Scenario(seed=0, protocol="tokenb", interconnect="torus",
                    workload="false_sharing", **fields)


def test_lineage_recorder_forks_transparently():
    """The forked run's custody chain carries the warmup's events, so
    the outcome contract and the lineage counters match the cold run."""
    _assert_fork_transparent(_bare(lineage=True))


def test_timeline_tracing_forks_transparently():
    _assert_fork_transparent(_bare(observe=True))


@pytest.mark.parametrize("field", ["drop_request_prob", "dup_request_prob"])
def test_loss_perturbations_fork_transparently(field):
    _assert_fork_transparent(_bare(perturb=PerturbSpec(**{field: 0.1})))


def test_forced_escalation_forks_transparently():
    _assert_fork_transparent(
        _bare(perturb=PerturbSpec(force_escalation_prob=0.1))
    )


def test_corrupt_faults_fork_transparently():
    scenario = dataclasses.replace(
        make_fault_scenario(
            0, "tokenb", "torus", "corrupt", workload="false_sharing"
        ),
        lineage=False, observe=False,
    )
    _assert_fork_transparent(scenario)


@pytest.mark.parametrize("interconnect,seed", [("torus", 2), ("tree", 3)])
def test_every_overlay_composes_in_one_scenario(interconnect, seed):
    """Link, reorder and kernel jitter, drop/dup, forced escalation,
    every fault class, lineage and tracing, all armed at once: the
    oracles hold, every layer visibly acts, the observers change
    nothing, and the run forks transparently."""
    plan = generate_plan(
        seed, FAULT_KINDS, n_links=NETWORKS[interconnect].link_count(4),
        n_nodes=4, horizon_ns=FAULT_HORIZON_NS,
        events_per_kind=FAULT_EVENTS_PER_KIND,
    )
    scenario = dataclasses.replace(
        make_scenario(seed, "tokenb", interconnect, "false_sharing"),
        faults=plan,
    )
    assert scenario.lineage and scenario.observe
    assert len(scenario.perturb.active_fields()) == 6
    outcome = run_scenario(scenario)
    assert outcome.ok, outcome.violation_message
    assert all(outcome.perturb_stats.values())
    assert all(outcome.fault_stats.values())
    assert outcome.lineage_stats["lineage_events"] > 0
    assert outcome.telemetry["hops"] > 0

    unobserved = run_scenario(
        dataclasses.replace(scenario, lineage=False, observe=False)
    )
    assert dataclasses.replace(outcome, lineage_stats={}, telemetry={}) == (
        unobserved
    )
    forked = _forked_outcome(scenario, outcome.events_fired // 2)
    assert forked == outcome


# ----------------------------------------------------------------------
# Handler tables: left out of the pickle, rebound on restore
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scenario", [
    make_scenario(42, "tokenm", "torus", "false_sharing"),
    make_scenario(42, "directory", "torus", "false_sharing"),
    Scenario(seed=4, protocol="directory", interconnect="torus",
             workload="writeback_churn", mutant="writeback-leak"),
], ids=["tokenm-armed", "directory-armed", "writeback-leak"])
def test_restored_nodes_dispatch_to_their_own_methods(scenario):
    """Each entry of a restored node's table is bound to the restored
    node and resolves as an attribute lookup on it does: through its
    hooked class, or to an instance patch."""
    system = _armed_system(scenario)
    system.start()
    while system.sim.events_fired < 200 and system.sim.step():
        pass
    restored = SimulatorSnapshot.capture(system).restore()
    for before, node in zip(system.nodes, restored.nodes):
        assert "_handlers" not in before.__getstate__()
        assert type(node) is type(before)
        assert node._handlers.keys() == node.handlers.keys()
        for mtype, name in node.handlers.items():
            handler = node._handlers[mtype]
            patched = vars(node).get(name)
            if patched is not None:
                assert handler is patched
            else:
                assert handler.__self__ is node
                assert handler.__func__ is getattr(type(node), name)
    hooked = scenario.mutant is None
    assert all(
        (type(node).__module__ == "repro.overlay") == hooked
        for node in restored.nodes
    )
    if not hooked:
        assert all("_handle_put_ack" in vars(node) for node in restored.nodes)


# ----------------------------------------------------------------------
# Refused: generator op streams up front, anything else by the pickler
# ----------------------------------------------------------------------


def test_unpicklable_patch_is_refused_by_the_pickler():
    """A closure patched onto a node is not pre-checked: the pickler
    fails on it, and capture says so in its own error."""
    system = _armed_system(_bare())
    system.nodes[1].probe = lambda block, for_write: None
    with pytest.raises(SnapshotUnsupportedError, match="failed to pickle"):
        SimulatorSnapshot.capture(system)


def test_generator_streams_are_refused():
    """Lazily-streamed programs feed generators to the sequencers —
    refused with a pointer at ReplayableStream (what fork_family wraps
    warmup streams in so they survive the pickle)."""
    from repro.config import SystemConfig
    from repro.snapshot import demo_family
    from repro.system.builder import build_system

    config = SystemConfig(
        protocol="tokenb", interconnect="torus", n_procs=2, seed=0
    )
    warmup = demo_family(warmup_ops=8, tail_ops=4, n_tails=1).warmup
    streams = {
        proc: warmup.iter_stream(proc, 2, 0, config.block_bytes)
        for proc in range(2)
    }
    system = build_system(config, streams)
    with pytest.raises(SnapshotUnsupportedError, match="ReplayableStream"):
        SimulatorSnapshot.capture(system)
