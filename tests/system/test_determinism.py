"""Determinism regression suite.

The engine's contract is *bit-identical replay*: the same
``SystemConfig`` + workload must always produce exactly the same
result — every output field of
:func:`~repro.testing.signature.result_signature` — run-to-run, and
across engine refactors.  ``tests/golden/determinism_golden.json`` pins
each case's ``events_fired`` and signature digest; any hot-path change
that perturbs event ordering fails here.  The snapshot suite checks its
restored runs against the same pins.  Re-record every golden (only for
an intended behaviour change) with
``PYTHONPATH=src python -m pytest -q --record-golden``.
"""

import pytest

from repro import COMMERCIAL_WORKLOADS, SystemConfig, simulate
from repro.system.builder import build_system
from repro.testing.signature import pin, result_signature
from repro.workloads import generate_streams

GOLDEN_NAME = "determinism_golden.json"

#: label -> (workload, SystemConfig kwargs); 16 procs x 60 ops each.
CASES = {
    "directory-torus": (
        "oltp", dict(protocol="directory", interconnect="torus")
    ),
    "snooping-tree": ("apache", dict(protocol="snooping", interconnect="tree")),
    "tokenb-torus": ("apache", dict(protocol="tokenb", interconnect="torus")),
    "tokenb-torus-unlim": (
        "apache",
        dict(protocol="tokenb", interconnect="torus",
             link_bandwidth_bytes_per_ns=None),
    ),
}
OPS_PER_PROC = 60


def case_inputs(label: str):
    """The case's ``(SystemConfig, WorkloadSpec)``."""
    workload, kwargs = CASES[label]
    config = SystemConfig(n_procs=16, **kwargs)
    return config, COMMERCIAL_WORKLOADS[workload].scaled(OPS_PER_PROC)


def golden_system(label: str):
    """The case's system, built and not yet started."""
    config, spec = case_inputs(label)
    streams = generate_streams(
        spec, config.n_procs, config.seed, config.block_bytes
    )
    return build_system(
        config, streams, workload_name=spec.name,
        ops_per_transaction=spec.ops_per_transaction,
    )


@pytest.fixture(scope="module")
def golden(golden_file):
    return golden_file(GOLDEN_NAME, CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_matches_recorded_golden(golden, label):
    """The engine reproduces the recorded reference outputs exactly."""
    golden.check(label, pin(result_signature(simulate(*case_inputs(label)))))


def test_same_config_replays_identically():
    """Two runs of one configuration are indistinguishable."""
    first = simulate(*case_inputs("tokenb-torus"))
    second = simulate(*case_inputs("tokenb-torus"))
    assert result_signature(first) == result_signature(second)


def test_faults_layer_is_invisible_when_uninstalled(golden):
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
    result = simulate(*case_inputs("tokenb-torus"))
    golden.check("tokenb-torus", pin(result_signature(result)))
    # An injector whose plan is empty is also a no-op.
    assert not FaultPlan().any_active()
    assert FaultEvent("link_flap", 0.0, 1.0, target=0).end_ns == 1.0
    assert FaultInjector(FaultPlan()).stats["flap_dropped"] == 0


def test_observe_layer_is_invisible_when_uninstalled(golden):
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
    result = simulate(*case_inputs("tokenb-torus"))
    golden.check("tokenb-torus", pin(result_signature(result)))


@pytest.mark.parametrize("label", sorted(CASES))
def test_armed_tracing_matches_recorded_golden(golden, label):
    """An armed run reproduces the golden outputs bit-identically: the
    trace layer observes the schedule without touching it."""
    from repro.observe import install_tracing

    system = golden_system(label)
    recorder = install_tracing(system, epoch_ns=200.0)
    # Summary tracing hooks no link: the network keeps its stock path.
    assert not system.network._hooked
    golden.check(label, pin(result_signature(system.run())))
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
