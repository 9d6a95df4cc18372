"""Fault-injection tests: schedule legality, install mechanics, the
per-class semantics (flap/degrade/corrupt/pause), recovery, composition
with the other overlays, and the guarantee that a fault-free system
runs the exact shipped classes."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.coherence.messages import CoherenceMessage
from repro.config import SystemConfig
from repro.faults import (
    FAULT_KINDS,
    LOSS_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    generate_plan,
)
from repro.faults.inject import LinkFaultState, _merge_windows
from repro.interconnect import NETWORKS
from repro.interconnect.link import Link
from repro.interconnect.torus import TorusInterconnect
from repro.sim.kernel import Simulator
from repro.system.builder import build_system
from repro.system.grid import interconnect_for
from repro.testing.explore import (
    FAULT_HORIZON_NS,
    Scenario,
    fault_classes_for,
    fault_scenario_grid,
    make_fault_scenario,
    run_scenario,
)
from repro.overlay import HookedLink
from repro.testing.perturb import LinkJitter, PerturbSpec, Perturber
from repro.workloads.adversarial import false_sharing_streams


def _build(protocol="tokenb", interconnect="torus", seed=0):
    config = SystemConfig(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=4,
        seed=seed,
        l2_bytes=16 * 64,
        l2_assoc=4,
        l1_bytes=8 * 64,
    )
    streams = false_sharing_streams(seed, 4, 24)
    return build_system(config, streams)


def _flap(target=0, start=0.0, duration=100.0):
    return FaultEvent("link_flap", start, duration, target=target)


# ----------------------------------------------------------------------
# Schedule vocabulary: event validation, plan round-trip, generation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(kind="meteor_strike", start_ns=0.0, duration_ns=1.0, target=0),
    dict(kind="link_flap", start_ns=-1.0, duration_ns=1.0, target=0),
    dict(kind="link_flap", start_ns=0.0, duration_ns=0.0, target=0),
    dict(kind="link_flap", start_ns=0.0, duration_ns=1.0),  # no target
    dict(kind="node_pause", start_ns=0.0, duration_ns=1.0, target=-1),
    dict(kind="link_degrade", start_ns=0.0, duration_ns=1.0, target=0,
         factor=1.0),  # a "degrade" that changes nothing
    dict(kind="corrupt", start_ns=0.0, duration_ns=1.0, prob=0.0),
    dict(kind="corrupt", start_ns=0.0, duration_ns=1.0, prob=1.5),
])
def test_event_validation_rejects_malformed_windows(bad):
    with pytest.raises(ValueError):
        FaultEvent(**bad)


def test_plan_roundtrips_through_dict():
    plan = generate_plan(
        7, FAULT_KINDS, n_links=16, n_nodes=4,
        horizon_ns=1000.0, events_per_kind=2, intensity=2.0,
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.from_dict({}) == FaultPlan()
    assert not FaultPlan().any_active()


def test_plan_kind_queries():
    plan = FaultPlan(events=(
        FaultEvent("node_pause", 5.0, 10.0, target=1),
        _flap(target=2, start=0.0, duration=20.0),
    ))
    # kinds() reports in canonical FAULT_KINDS order, not event order.
    assert plan.kinds() == ["link_flap", "node_pause"]
    assert plan.loss_kinds() == []
    assert [e.kind for e in plan.link_events()] == ["link_flap"]
    assert plan.last_end_ns() == 20.0


def test_generated_plans_are_deterministic_and_in_range():
    kwargs = dict(n_links=12, n_nodes=4, horizon_ns=500.0,
                  events_per_kind=3)
    first = generate_plan(3, FAULT_KINDS, **kwargs)
    second = generate_plan(3, FAULT_KINDS, **kwargs)
    assert first == second
    assert generate_plan(4, FAULT_KINDS, **kwargs) != first
    for event in first.events:
        assert 0.0 <= event.start_ns <= 0.60 * 500.0
        if event.kind in ("link_flap", "link_degrade"):
            assert 0 <= event.target < 12
        elif event.kind == "node_pause":
            assert 0 <= event.target < 4


def test_adding_a_kind_never_shifts_another_kinds_schedule():
    """Per-(kind, index) RNG streams: schedules are independent."""
    kwargs = dict(n_links=12, n_nodes=4, horizon_ns=500.0)
    alone = generate_plan(3, ["node_pause"], **kwargs)
    mixed = generate_plan(3, FAULT_KINDS, **kwargs)
    assert alone.events_of("node_pause") == mixed.events_of("node_pause")


def test_link_count_matches_built_networks():
    for network in NETWORKS.values():
        for n_nodes in (4, 6, 16):
            built = network(Simulator(), n_nodes, 15.0, 3.2)
            assert network.link_count(n_nodes) == len(built.all_links())


# ----------------------------------------------------------------------
# Legality matrix: loss faults are token-only, the rest universal
# ----------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["snooping", "directory", "hammer"])
def test_loss_faults_rejected_on_baselines(protocol):
    """Baselines assume lossless delivery: a corrupt window must raise
    at plan validation, never silently degrade to queueing."""
    plan = FaultPlan(events=(
        FaultEvent("corrupt", 0.0, 100.0, target=0, prob=0.5),
    ))
    with pytest.raises(ValueError, match="only legal on token"):
        plan.validate_for_protocol(protocol)
    system = _build(protocol, interconnect_for(protocol))
    with pytest.raises(ValueError, match="only legal on token"):
        FaultInjector(plan).install(system)


@pytest.mark.parametrize("protocol", ["snooping", "directory", "hammer"])
@pytest.mark.parametrize("kind", ["link_flap", "link_degrade", "node_pause"])
def test_structural_faults_legal_on_baselines(protocol, kind):
    """Flap (backpressure), degrade, and pause never lose messages, so
    every protocol must survive them with all ops completed."""
    interconnect = interconnect_for(protocol)
    event = dict(
        link_flap=_flap(target=1, start=50.0, duration=300.0),
        link_degrade=FaultEvent("link_degrade", 50.0, 300.0, target=1,
                                factor=8.0),
        node_pause=FaultEvent("node_pause", 50.0, 300.0, target=1),
    )[kind]
    system = _build(protocol, interconnect)
    FaultInjector(FaultPlan(events=(event,))).install(system)
    result = system.run()
    assert result.total_ops == 4 * 24


def test_fault_classes_for_encodes_the_matrix():
    assert fault_classes_for("tokenb") == FAULT_KINDS
    for baseline in ("snooping", "directory", "hammer"):
        classes = fault_classes_for(baseline)
        assert set(classes) == set(FAULT_KINDS) - set(LOSS_FAULT_KINDS)


def test_grid_skips_illegal_protocol_class_pairs():
    scenarios = fault_scenario_grid(range(2), protocols=("tokenb", "directory"))
    for scenario in scenarios:
        for kind in scenario.faults.loss_kinds():
            assert scenario.protocol == "tokenb"


# ----------------------------------------------------------------------
# Install mechanics: zero-cost when absent, hooked links when armed
# ----------------------------------------------------------------------


def test_faultfree_system_uses_base_classes():
    system = _build()
    assert type(system.network) is TorusInterconnect
    assert not system.network._hooked
    for link in system.network.all_links():
        assert type(link) is Link


def test_install_swaps_classes_in_place():
    """Only the targeted link is hooked, but the whole network leaves
    its batched fan-outs so that the hooked link sees every hop."""
    for interconnect in ("torus", "tree"):
        system = _build("tokenb", interconnect)
        FaultInjector(FaultPlan(events=(_flap(),))).install(system)
        assert system.network._hooked
        links = system.network.all_links()
        assert type(links[0]) is HookedLink
        assert links[0]._hooks.drop is not None
        for link in links[1:]:
            assert type(link) is Link


def test_faulty_subclasses_add_no_instance_layout():
    """``__class__`` reassignment requires identical slot layouts."""
    assert HookedLink.__slots__ == ()


def test_injector_installs_once():
    system = _build()
    injector = FaultInjector(FaultPlan(events=(_flap(),)))
    injector.install(system)
    with pytest.raises(RuntimeError, match="already installed"):
        injector.install(system)


def test_second_injector_on_one_system_raises():
    """The injector publishes itself as ``system.faults``, one per
    system: a second plan must not stack a second pause gate on the
    same node."""
    system = _build()
    plan = FaultPlan(events=(FaultEvent("node_pause", 50.0, 100.0, target=1),))
    first = FaultInjector(plan)
    first.install(system)
    with pytest.raises(RuntimeError, match="already installed"):
        FaultInjector(plan).install(system)
    assert system.faults is first
    assert len(first.gates) == 1


def test_link_faults_compose_with_jittered_links():
    """Link jitter and link faults arm different stages of one link's
    hook chain: both hold, in either install order, and the run stays
    clean."""
    events = (_flap(target=0, start=50.0, duration=100.0),
              FaultEvent("link_degrade", 150.0, 600.0, target=0, factor=4.0))
    outcomes = []
    for faults_first in (False, True):
        system = _build()
        perturber = Perturber(PerturbSpec(link_jitter_ns=2.0))
        injector = FaultInjector(FaultPlan(events=events))
        for layer in ((injector, perturber) if faults_first
                      else (perturber, injector)):
            layer.install(system)
        hooks = system.network.all_links()[0]._hooks
        assert isinstance(hooks.delay.__self__, LinkJitter)
        assert hooks.drop is not None and hooks.hold is not None
        assert hooks.stretch is not None
        result = system.run()
        assert result.total_ops == 4 * 24
        outcomes.append((result.events_fired, result.runtime_ns,
                         dict(injector.stats)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2]["degraded_crossings"] > 0


def test_kernel_perturbations_compose_with_faults():
    system = _build()
    Perturber(PerturbSpec(kernel_jitter_ns=2.0, drop_request_prob=0.05)
              ).install(system)
    FaultInjector(FaultPlan(events=(_flap(start=50.0),))).install(system)
    result = system.run()
    assert result.total_ops == 4 * 24


def test_out_of_range_targets_raise():
    system = _build()
    links = len(system.network.all_links())
    with pytest.raises(ValueError, match="out of range"):
        FaultInjector(FaultPlan(events=(_flap(target=links),))
                      ).install(system)
    system = _build()
    with pytest.raises(ValueError, match="out of range"):
        FaultInjector(FaultPlan(events=(
            FaultEvent("node_pause", 0.0, 10.0, target=99),
        ))).install(system)


# ----------------------------------------------------------------------
# Per-class semantics at the link level
# ----------------------------------------------------------------------


def _faulty_link(sim, down=(), degraded=(), drop_mode=True, bandwidth=3.2):
    stats = {"flap_dropped": 0, "flap_queued": 0, "degraded_crossings": 0}
    link = Link(sim, "test-link", latency=10.0, bandwidth=bandwidth)
    LinkFaultState(down, degraded, drop_mode, stats).arm(SimpleNamespace(), link)
    return link, stats


def _data(size_bytes=72):
    return CoherenceMessage(src=0, dst=1, mtype="DATA_OWNER",
                            size_bytes=size_bytes, category="data")


def _cross(link, msg):
    """Carry ``msg`` over ``link`` at the kernel's current time.

    Returns the arrival time the crossing posted, or None if it posted
    nothing (the message was dropped).
    """
    arrivals = []
    sim = link.sim
    link.cross(msg, lambda: arrivals.append(sim.now), ())
    sim.run()
    return arrivals[0] if arrivals else None


def test_flap_queues_nondroppable_traffic_past_the_outage():
    sim = Simulator()
    link, stats = _faulty_link(sim, down=[(0.0, 100.0)])
    # Data message at t=0: serialization may not start until t=100.
    assert _cross(link, _data()) == 100.0 + 72 / 3.2 + 10.0
    assert stats["flap_queued"] == 1


def test_flap_drops_transient_requests_overlapping_the_outage():
    sim = Simulator()
    link, stats = _faulty_link(sim, down=[(5.0, 100.0)])
    gets = CoherenceMessage(src=0, dst=1, mtype="GETS")
    # Crossing [0, 0+8/3.2+10] overlaps the outage opening at 5.
    assert _cross(link, gets) is None
    assert stats["flap_dropped"] == 1
    # A dropped message never occupied the link.
    assert link.crossings == 0 and link.busy_until == 0.0
    # Data (not a transient request) is never dropped.
    assert _cross(link, _data()) == 72 / 3.2 + 10.0
    assert stats["flap_dropped"] == 1
    # A request whose whole crossing clears before the outage survives.
    sim2 = Simulator()
    late_window, _ = _faulty_link(sim2, down=[(50.0, 100.0)])
    assert _cross(late_window, gets) == 8 / 3.2 + 10.0


def test_flap_queues_instead_of_dropping_on_baselines():
    """drop_mode=False (ordered baselines): requests backpressure."""
    sim = Simulator()
    link, stats = _faulty_link(sim, down=[(0.0, 100.0)], drop_mode=False)
    gets = CoherenceMessage(src=0, dst=1, mtype="GETS")
    assert _cross(link, gets) == 100.0 + 8 / 3.2 + 10.0
    assert stats["flap_queued"] == 1
    assert stats["flap_dropped"] == 0


def test_degrade_stretches_serialization_inside_the_window():
    sim = Simulator()
    link, stats = _faulty_link(sim, degraded=[(0.0, 100.0, 5.0)])
    assert _cross(link, _data(32)) == pytest.approx(5.0 * 32 / 3.2 + 10.0)
    assert stats["degraded_crossings"] == 1
    # Outside the window the link is healthy again.
    sim2 = Simulator()
    healthy, stats2 = _faulty_link(sim2, degraded=[(200.0, 300.0, 5.0)])
    assert _cross(healthy, _data(32)) == pytest.approx(32 / 3.2 + 10.0)
    assert stats2["degraded_crossings"] == 0


def test_degrade_is_noop_under_unlimited_bandwidth():
    sim = Simulator()
    link, stats = _faulty_link(sim, degraded=[(0.0, 100.0, 5.0)],
                               bandwidth=None)
    assert _cross(link, _data()) == 10.0
    # The window *matched* (counter ticks) but there was nothing to
    # stretch: 0.0 serialization stays 0.0.
    assert stats["degraded_crossings"] == 1


def test_merge_windows_coalesces_overlaps():
    assert _merge_windows([(5.0, 10.0), (0.0, 6.0), (20.0, 30.0)]) == [
        (0.0, 10.0), (20.0, 30.0),
    ]


# ----------------------------------------------------------------------
# Whole-system runs: recovery, drained pauses, determinism
# ----------------------------------------------------------------------


def test_pause_buffers_then_drains():
    system = _build()
    plan = FaultPlan(events=(
        FaultEvent("node_pause", 20.0, 400.0, target=1),
    ))
    injector = FaultInjector(plan)
    injector.install(system)
    result = system.run()
    assert result.total_ops == 4 * 24
    assert injector.stats["paused_deliveries"] > 0
    assert injector.undrained_nodes() == []
    # The run cannot have finished before the window closed: the flush
    # event itself keeps the simulator alive through it.
    assert system.sim.now >= plan.last_end_ns()


def test_pause_gate_holds_duplicated_requests():
    """A request the drop/dup perturbation duplicates is re-delivered
    into the rest of the delivery chain, so a paused node's gate holds
    the duplicate too: the node processes nothing inside its window."""
    system = _build()
    handlers = system.network._handlers
    node_handler = handlers[1]
    processed = []

    def recording(msg):
        processed.append(system.sim.now)
        node_handler(msg)

    handlers[1] = recording
    Perturber(PerturbSpec(seed=3, dup_request_prob=0.5)).install(system)
    injector = FaultInjector(FaultPlan(events=(
        FaultEvent("node_pause", 50.0, 2950.0, target=1),
    )))
    injector.install(system)
    result = system.run()
    assert [t for t in processed if 50.0 <= t < 3000.0] == []
    assert injector.stats["paused_deliveries"] == 37
    assert injector.undrained_nodes() == []
    assert result.total_ops == 4 * 24


@pytest.mark.parametrize("fault_class", FAULT_KINDS)
def test_fault_scenarios_pass_oracles_and_replay_bitwise(fault_class):
    scenario = make_fault_scenario(0, "tokenb", "torus", fault_class)
    assert scenario.faults.any_active()
    assert all(e.start_ns < FAULT_HORIZON_NS for e in scenario.faults.events)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.ok, first.violation_message
    assert first.events_fired == second.events_fired
    assert first.fault_stats == second.fault_stats
    assert first.runtime_ns == second.runtime_ns
    assert first.recovery_ns == second.recovery_ns


def test_faults_actually_fire():
    """Each class's scenario shows its own damage counter moving (on a
    protocol with transient requests) — a quiet plan proves nothing."""
    counters = dict(
        link_flap=("flap_dropped", "flap_queued"),
        link_degrade=("degraded_crossings",),
        corrupt=("corrupt_dropped",),
        node_pause=("paused_deliveries",),
    )
    for fault_class, keys in counters.items():
        fired = 0
        for seed in range(4):
            outcome = run_scenario(
                make_fault_scenario(seed, "tokenb", "torus", fault_class)
            )
            assert outcome.ok, outcome.violation_message
            fired += sum(outcome.fault_stats[key] for key in keys)
        assert fired > 0, f"{fault_class} never perturbed any of 4 seeds"


def test_scenario_document_roundtrips_fault_plan():
    scenario = make_fault_scenario(3, "tokend", "tree", "corrupt")
    assert "faults[corrupt]" in scenario.label()
    restored = Scenario.from_dict(scenario.to_dict())
    assert restored.faults == scenario.faults
    assert restored.label() == scenario.label()


def test_faultfree_scenario_reports_no_fault_stats():
    outcome = run_scenario(
        Scenario(seed=0, protocol="tokenb", interconnect="torus",
                 workload="false_sharing", ops_per_proc=16)
    )
    assert outcome.ok
    # Like perturb_stats, the counters are reported zeroed, not absent.
    assert set(outcome.fault_stats.values()) == {0}
    assert outcome.recovery_ns == 0.0


def test_intensity_scales_the_damage():
    base = dataclasses.asdict(
        make_fault_scenario(1, "tokenb", "torus", "corrupt").faults.events[0]
    )
    hot = dataclasses.asdict(
        make_fault_scenario(1, "tokenb", "torus", "corrupt",
                            intensity=1.5).faults.events[0]
    )
    assert hot["duration_ns"] > base["duration_ns"]
    assert hot["prob"] > base["prob"]


def test_fault_bench_cell_averages_ttr_over_fired_runs_only():
    """Regression: the fault-resilience bench averaged ``recovery_ns``
    over every run, so a cell where no fault ever fired (null-token
    under corruption) still reported a mean and max TTR.  A cell folds
    TTR only over runs that passed and on which a fault fired, counts
    them as ``fired``, and reports a null mean and max when there are
    none."""
    import sys
    from pathlib import Path

    root = str(Path(__file__).resolve().parents[2])
    if root not in sys.path:
        sys.path.insert(0, root)
    from benchmarks.bench_fault_resilience import _aggregate
    from repro.testing.explore import ScenarioOutcome

    def outcome(dropped, recovery_ns):
        return ScenarioOutcome(
            ok=True, fault_stats={"corrupt_dropped": dropped},
            runtime_ns=1000.0, recovery_ns=recovery_ns,
            traffic_bytes={"data": 72},
        )

    clean = outcome(0, 0.0)
    quiet = _aggregate([(outcome(0, 400.0), clean)])
    assert quiet["fired"] == 0
    assert quiet["recovery_ns"] == {"mean": None, "max": None}

    mixed = _aggregate([(outcome(0, 400.0), clean), (outcome(3, 100.0), clean)])
    assert mixed["fired"] == 1
    assert mixed["recovery_ns"] == {"mean": 100.0, "max": 100.0}
