"""Snapshot capture/restore preserves bit-identical continuation.

The subsystem's core contract: pausing a simulation mid-run, pickling
it, and resuming the restored copy must be invisible — the resumed run
produces exactly the outputs of the uninterrupted one, which the
determinism golden file pins across engine refactors.
"""

import functools
import json
import pickle
from pathlib import Path

import pytest

from repro import COMMERCIAL_WORKLOADS, SystemConfig
from repro.snapshot import ReplayableStream, SimulatorSnapshot, demo_family
from repro.system.builder import build_system
from repro.workloads import generate_streams

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "determinism_golden.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())


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


def _golden_system(label: str):
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
    return system, case


def _run_to(system, fired: int) -> None:
    """Advance a started system until ``fired`` events have executed."""
    sim = system.sim
    while sim.events_fired < fired and sim.step():
        pass


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_midrun_capture_restore_matches_golden(label):
    """Pause at an arbitrary point, pickle, resume: the restored run
    reproduces the recorded golden outputs exactly."""
    system, case = _golden_system(label)
    system.start()
    _run_to(system, 1500)
    snapshot = SimulatorSnapshot.capture(system)
    assert snapshot.size_bytes > 0
    assert snapshot.meta["events_fired"] == system.sim.events_fired
    assert snapshot.meta["protocol"] == case["config"]["protocol"]

    restored = snapshot.restore()
    assert restored is not system
    restored.drain()
    observed = _observed(restored.finish())
    expected = {key: case[key] for key in observed}
    assert observed == expected


def _replayable_warmup_system(protocol: str):
    """A 4-proc torus system fed ReplayableStreams over a 200-op warmup."""
    config = SystemConfig(protocol=protocol, interconnect="torus", n_procs=4)
    warmup = demo_family(warmup_ops=200).warmup
    streams = {
        proc: ReplayableStream(
            functools.partial(
                warmup.iter_stream, proc, config.n_procs, config.seed,
                config.block_bytes,
            )
        )
        for proc in range(config.n_procs)
    }
    return build_system(config, streams, workload_name=warmup.name)


@pytest.mark.parametrize("protocol", ["tokenb", "directory", "tokenm", "hammer"])
def test_midrun_restore_replays_replayable_streams(protocol):
    """Captured mid-warmup, each restored ReplayableStream regenerates
    its consumed prefix on its first read, and the resumed run equals
    the uninterrupted one."""
    expected = _replayable_warmup_system(protocol).run()

    system = _replayable_warmup_system(protocol)
    system.start()
    _run_to(system, 1500)
    snapshot = SimulatorSnapshot.capture(system)
    assert all(0 < issued < 200 for issued in snapshot.meta["issued_ops"])

    restored = snapshot.restore()
    restored.drain()
    result = restored.finish()
    assert _observed(result) == _observed(expected)
    assert result.per_proc_finish_ns == expected.per_proc_finish_ns


def test_capture_does_not_disturb_the_original():
    """Capture is read-only: the captured system, resumed in place,
    still replays its golden bit-identically."""
    label = "tokenb-torus"
    system, case = _golden_system(label)
    system.start()
    _run_to(system, 1000)
    SimulatorSnapshot.capture(system)
    system.drain()
    observed = _observed(system.finish())
    expected = {key: case[key] for key in observed}
    assert observed == expected


def test_snapshot_round_trips_through_bytes():
    """The snapshot itself pickles (how the checkpoint store writes it)
    and the rehydrated copy restores to the same continuation."""
    label = "directory-torus"
    system, case = _golden_system(label)
    system.start()
    _run_to(system, 800)
    snapshot = SimulatorSnapshot.capture(system)
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone.meta == snapshot.meta

    for snap in (snapshot, clone):
        restored = snap.restore()
        restored.drain()
        observed = _observed(restored.finish())
        assert observed == {key: case[key] for key in observed}


def test_two_restores_diverge_independently():
    """Restores are copies, not views: running one does not advance the
    other (the copy-on-write property forks rely on)."""
    system, _case = _golden_system("tokenb-torus")
    system.start()
    _run_to(system, 1200)
    snapshot = SimulatorSnapshot.capture(system)

    first = snapshot.restore()
    second = snapshot.restore()
    first.drain()
    first_result = first.finish()
    assert second.sim.events_fired == snapshot.meta["events_fired"]
    second.drain()
    second_result = second.finish()
    assert _observed(first_result) == _observed(second_result)
    assert first_result.per_proc_finish_ns == second_result.per_proc_finish_ns


def test_drained_two_node_snapshot_is_small():
    """An idle cache set costs nothing to pickle: a drained 2-node TokenB
    system (two 16,384-set L2s and two 512-set L1s) stays under 20 KB."""
    from repro.processor.sequencer import MemoryOp

    config = SystemConfig(protocol="tokenb", interconnect="torus", n_procs=2)
    system = build_system(
        config,
        {0: [MemoryOp(0x1000, False)], 1: [MemoryOp(0x2000, True)]},
    )
    system.start()
    system.drain()
    assert SimulatorSnapshot.capture(system).size_bytes < 20_000
