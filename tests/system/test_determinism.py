"""Determinism regression suite.

The engine's contract is *bit-identical replay*: the same
``SystemConfig`` + workload must always produce exactly the same
``events_fired``, ``runtime_ns``, counters, and traffic — run-to-run,
and across engine refactors.  The golden file was recorded from the
reference hop-by-hop engine and cross-checked against the current one;
any hot-path change that perturbs event ordering fails here.
"""

import json
from pathlib import Path

import pytest

from repro import COMMERCIAL_WORKLOADS, SystemConfig, simulate

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "determinism_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _run_case(case: dict):
    config = SystemConfig(n_procs=16, **case["config"])
    spec = COMMERCIAL_WORKLOADS[case["workload"]].scaled(case["ops_per_proc"])
    return simulate(config, spec)


def _observed(result) -> dict:
    return {
        "events_fired": result.events_fired,
        "runtime_ns": result.runtime_ns,
        "total_ops": result.total_ops,
        "total_misses": result.total_misses,
        "counters": dict(sorted(result.counters.items())),
        "traffic_bytes": dict(sorted(result.traffic_bytes.items())),
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
    }


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_matches_recorded_golden(label):
    """The engine reproduces the recorded reference outputs exactly."""
    case = GOLDEN[label]
    observed = _observed(_run_case(case))
    expected = {key: case[key] for key in observed}
    assert observed == expected


def test_same_config_replays_identically():
    """Two runs of one configuration are indistinguishable."""
    case = GOLDEN["tokenb-torus"]
    first = _run_case(case)
    second = _run_case(case)
    assert _observed(first) == _observed(second)
    assert first.per_proc_finish_ns == second.per_proc_finish_ns
    assert first.mean_miss_latency_ns == second.mean_miss_latency_ns


def test_faults_layer_is_invisible_when_uninstalled():
    """Importing (and arming elsewhere) the fault-injection package must
    not move a single event in a fault-free run: the layer exists only
    as a reserved slot plus an install-time ``__class__`` swap, so a
    healthy system replays the goldens byte-identically."""
    import repro.faults  # noqa: F401 — the import is the point

    from repro.faults import FaultEvent, FaultInjector, FaultPlan
    from repro.testing.explore import make_fault_scenario, run_scenario

    # Exercise the installed path in this very process, so any leaked
    # state (class-level, module-level) would get its chance to show.
    outcome = run_scenario(
        make_fault_scenario(0, "tokenb", "torus", "link_flap")
    )
    assert outcome.ok
    label = "tokenb-torus"
    case = GOLDEN[label]
    observed = _observed(_run_case(case))
    expected = {key: case[key] for key in observed}
    assert observed == expected
    # An injector whose plan is empty is also a no-op.
    assert not FaultPlan().any_active()
    assert FaultEvent("link_flap", 0.0, 1.0, target=0).end_ns == 1.0
    assert FaultInjector(FaultPlan()).stats["flap_dropped"] == 0


def test_observe_layer_is_invisible_when_uninstalled():
    """Importing (and arming elsewhere) the observability package must
    not move a single event in an un-armed run — same reserved-slot +
    ``__class__``-swap discipline as the fault layer."""
    import repro.observe  # noqa: F401 — the import is the point

    from repro.testing.explore import Scenario, run_scenario

    # Arm tracing in this very process so cached traced classes and any
    # leaked module state get their chance to show.
    outcome = run_scenario(
        Scenario(seed=0, protocol="tokenb", interconnect="torus",
                 workload="false_sharing", n_procs=4, ops_per_proc=30,
                 observe=True)
    )
    assert outcome.ok and outcome.telemetry["delivers"] > 0
    case = GOLDEN["tokenb-torus"]
    observed = _observed(_run_case(case))
    expected = {key: case[key] for key in observed}
    assert observed == expected


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_armed_tracing_matches_recorded_golden(label):
    """An armed run reproduces the golden outputs bit-identically: the
    trace layer observes the schedule without touching it."""
    from repro.observe import install_tracing
    from repro.system.builder import build_system
    from repro.workloads import generate_streams

    case = GOLDEN[label]
    config = SystemConfig(n_procs=16, **case["config"])
    spec = COMMERCIAL_WORKLOADS[case["workload"]].scaled(case["ops_per_proc"])
    streams = generate_streams(
        spec, config.n_procs, config.seed, config.block_bytes
    )
    system = build_system(
        config, streams, workload_name=spec.name,
        ops_per_transaction=spec.ops_per_transaction,
    )
    recorder = install_tracing(system, epoch_ns=200.0)
    # Summary tracing hooks no link: the network keeps its stock path.
    assert not system.network._hooked
    observed = _observed(system.run())
    expected = {key: case[key] for key in observed}
    assert observed == expected
    # And the trace is not empty: the run was genuinely recorded.
    summary = recorder.summary()
    assert summary["delivers"] and summary["hops"]
    assert recorder.timeseries


def test_unlimited_bandwidth_fast_path_matches_hop_by_hop():
    """The torus broadcast fast path (bandwidth=None posts every
    subtree delivery up front) must deliver exactly like progressive
    hop-by-hop fan-out: each node at ``depth * latency``."""
    from repro.interconnect.message import Message
    from repro.interconnect.torus import TorusInterconnect
    from repro.sim import Simulator

    sim = Simulator()
    torus = TorusInterconnect(sim, 16, 15.0, None)
    log = []
    for node in range(16):
        torus.attach(node, lambda msg, node=node: log.append((node, sim.now)))
    torus.broadcast(Message(src=3, dst=-1), include_self=True)
    sim.run()

    # Progressive fan-out arrives at depth(node) * latency (source at 0).
    children = torus._spanning_tree(3)
    depth = {3: 0}
    frontier = [3]
    while frontier:
        nxt = []
        for vertex in frontier:
            for _direction, child in children[vertex]:
                depth[child] = depth[vertex] + 1
                nxt.append(child)
        frontier = nxt
    reference = sorted((node, depth[node] * 15.0) for node in range(16))
    assert sorted(log) == reference
    # One delivery per node, N-1 tree crossings accounted.
    assert len(log) == 16
    assert torus.traffic.crossings_by_category() == {"request": 15}
