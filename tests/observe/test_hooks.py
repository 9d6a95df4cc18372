"""Armed tracing: observational equivalence and span coverage.

The tentpole contract is that installing the trace layer changes
*nothing* the simulation can observe — same events, same clock, same
counters — while the recorder captures a complete account of messages,
link crossings, and miss lifecycles.
"""

import dataclasses

import pytest

from repro.observe import (
    TimelineRecorder,
    TraceRecorder,
    install_tracing,
    is_installed,
)
from repro.system.builder import build_system
from repro.testing.explore import (
    Scenario,
    _build_config,
    _generate_streams,
    run_scenario,
)
from repro.testing.signature import outcome_signature


def _untraced(outcome):
    """The outcome with its telemetry, the only field allowed to differ
    between an armed and an unarmed run, emptied."""
    return dataclasses.replace(outcome, telemetry={})


def _armed_system(scenario, epoch_ns=None, recorder=None):
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    system = build_system(config, streams, workload_name=scenario.workload)
    recorder = install_tracing(system, recorder=recorder, epoch_ns=epoch_ns)
    return system, recorder


EQUIVALENCE_CASES = [
    ("tokenb", "torus", "false_sharing"),
    ("tokenb", "tree", "writeback_churn"),
    ("directory", "torus", "false_sharing"),
    ("snooping", "tree", "barrier_storm"),
    ("hammer", "torus", "eviction_storm"),
    ("tokenm", "torus", "false_sharing"),
]


@pytest.mark.parametrize("protocol,interconnect,workload", EQUIVALENCE_CASES)
def test_armed_run_is_observationally_identical(protocol, interconnect,
                                                workload):
    scenario = Scenario(
        seed=11, protocol=protocol, interconnect=interconnect,
        workload=workload, n_procs=4, ops_per_proc=40,
    )
    unarmed = run_scenario(scenario)
    armed = run_scenario(dataclasses.replace(scenario, observe=True))
    assert unarmed.ok and armed.ok
    assert unarmed.telemetry == {}
    assert outcome_signature(_untraced(armed)) == outcome_signature(unarmed)
    assert armed.telemetry["delivers"] > 0


def test_armed_unlimited_bandwidth_fast_path_identical():
    """The zero-serialization broadcast fast path is replicated, not
    wrapped; the replica must not move a single event."""
    scenario = Scenario(
        seed=3, protocol="tokenb", interconnect="torus",
        workload="barrier_storm", n_procs=4, ops_per_proc=40,
        config_overrides={"link_bandwidth_bytes_per_ns": None},
    )
    unarmed = run_scenario(scenario)
    armed = run_scenario(dataclasses.replace(scenario, observe=True))
    assert outcome_signature(_untraced(armed)) == outcome_signature(unarmed)


def test_double_install_rejected():
    scenario = Scenario(seed=0, protocol="tokenb", interconnect="torus",
                        workload="false_sharing", n_procs=4, ops_per_proc=10)
    system, _recorder = _armed_system(scenario)
    assert is_installed(system)
    with pytest.raises(ValueError):
        install_tracing(system)


def test_recorder_covers_all_crossings_and_misses():
    """Every link crossing the traffic meter counted appears as a hop
    span, and every completed miss appears as a closed span."""
    scenario = Scenario(seed=5, protocol="tokenb", interconnect="torus",
                        workload="false_sharing", n_procs=4, ops_per_proc=60)
    system, recorder = _armed_system(scenario, recorder=TimelineRecorder())
    result = system.run(max_events=scenario.max_events)
    crossings = sum(system.traffic.crossings_by_category().values())
    assert len(recorder.hops) == crossings
    assert recorder.open_miss_count() == 0
    assert len(recorder.miss_spans) == result.counters.get("l2_miss", 0) > 0
    # The sequencer hook measured exactly the completed misses.
    assert recorder.miss_latency.count > 0
    for start, end, _node, _block, kind in recorder.miss_spans:
        assert end >= start
        assert kind in ("load", "store")


def test_tree_interconnect_hops_via_links():
    """Trees cross every hop through Link.cross — the timeline's hooked
    links alone must account for every crossing."""
    scenario = Scenario(seed=5, protocol="directory", interconnect="tree",
                        workload="writeback_churn", n_procs=4,
                        ops_per_proc=40)
    system, recorder = _armed_system(scenario, recorder=TimelineRecorder())
    system.run(max_events=scenario.max_events)
    crossings = sum(system.traffic.crossings_by_category().values())
    assert len(recorder.hops) == crossings > 0


def test_deliveries_and_sends_recorded_with_labels():
    scenario = Scenario(seed=2, protocol="tokenb", interconnect="torus",
                        workload="false_sharing", n_procs=4, ops_per_proc=40)
    system, recorder = _armed_system(scenario, recorder=TimelineRecorder())
    system.run(max_events=scenario.max_events)
    assert recorder.sends and recorder.delivers
    labels = {label for _t, _n, _id, label, _dst, _sz in recorder.sends}
    assert "GETS" in labels or "GETM" in labels
    # Timestamps never decrease below zero and nodes are in range.
    for t, node, _msg_id, _label in recorder.delivers:
        assert t >= 0.0
        assert 0 <= node < scenario.n_procs


def test_timeseries_sampler_adds_no_kernel_events():
    scenario = Scenario(seed=2, protocol="tokenb", interconnect="torus",
                        workload="false_sharing", n_procs=4, ops_per_proc=40)
    plain_system, _ = _armed_system(scenario)
    plain = plain_system.run(max_events=scenario.max_events)
    sampled_system, recorder = _armed_system(scenario, epoch_ns=50.0)
    sampled = sampled_system.run(max_events=scenario.max_events)
    assert sampled.events_fired == plain.events_fired
    assert sampled.runtime_ns == plain.runtime_ns
    assert recorder.timeseries
    times = [row[0] for row in recorder.timeseries]
    assert times == sorted(times)
    # Cumulative series: deliveries never decrease.
    deliveries = [row[5] for row in recorder.timeseries]
    assert deliveries == sorted(deliveries)


def test_fault_scenario_composes_with_tracing():
    """Tracing installs on top of the fault layer: windows land on the
    trace, the run stays clean, and the oracles still hold."""
    from repro.testing.explore import make_fault_scenario

    scenario = dataclasses.replace(
        make_fault_scenario(1, "tokenb", "torus", "link_flap"),
        observe=True,
    )
    outcome = run_scenario(scenario)
    assert outcome.ok
    assert outcome.telemetry["fault_windows"] > 0


def test_external_recorder_instance_is_used():
    recorder = TraceRecorder()
    scenario = Scenario(seed=0, protocol="tokenb", interconnect="torus",
                        workload="false_sharing", n_procs=4, ops_per_proc=10)
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    system = build_system(config, streams, workload_name=scenario.workload)
    returned = install_tracing(system, recorder=recorder)
    assert returned is recorder
    assert system.observe is recorder
    assert recorder.meta["protocol"] == "tokenb"
