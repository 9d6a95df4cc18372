"""Snapshot capture/restore preserves bit-identical continuation.

The subsystem's core contract: pausing a simulation mid-run, pickling
it, and resuming the restored copy must be invisible — the resumed run
produces exactly the outputs of the uninterrupted one.  A restored run
of a determinism case checks the determinism suite's own pin for that
label (``tests/golden/determinism_golden.json``), so under
``--record-golden`` a restored run that disagrees with the
uninterrupted one fails instead of recording.
"""

import functools
import importlib.util
import pickle
from pathlib import Path

import pytest

from repro import SystemConfig
from repro.snapshot import ReplayableStream, SimulatorSnapshot, demo_family
from repro.system.builder import build_system
from repro.testing.signature import pin, result_signature

_DETERMINISM_SUITE = (
    Path(__file__).resolve().parent.parent / "system" / "test_determinism.py"
)


def _determinism_suite():
    """The determinism suite's module: its ``CASES``, ``GOLDEN_NAME``
    and ``golden_system``."""
    spec = importlib.util.spec_from_file_location(
        "_determinism_suite", _DETERMINISM_SUITE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DETERMINISM = _determinism_suite()


@pytest.fixture(scope="module")
def golden(golden_file):
    return golden_file(DETERMINISM.GOLDEN_NAME, DETERMINISM.CASES)


def _run_to(system, fired: int) -> None:
    """Advance a started system until ``fired`` events have executed."""
    sim = system.sim
    while sim.events_fired < fired and sim.step():
        pass


@pytest.mark.parametrize("label", sorted(DETERMINISM.CASES))
def test_midrun_capture_restore_matches_golden(golden, label):
    """Pause at an arbitrary point, pickle, resume: the restored run
    reproduces the recorded golden outputs exactly."""
    system = DETERMINISM.golden_system(label)
    system.start()
    _run_to(system, 1500)
    snapshot = SimulatorSnapshot.capture(system)
    assert snapshot.size_bytes > 0
    assert snapshot.meta["events_fired"] == system.sim.events_fired
    assert snapshot.meta["protocol"] == system.config.protocol

    restored = snapshot.restore()
    assert restored is not system
    restored.drain()
    golden.check(label, pin(result_signature(restored.finish())))


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
    assert result_signature(restored.finish()) == result_signature(expected)


def test_capture_does_not_disturb_the_original(golden):
    """Capture is read-only: the captured system, resumed in place,
    still replays its golden bit-identically."""
    system = DETERMINISM.golden_system("tokenb-torus")
    system.start()
    _run_to(system, 1000)
    SimulatorSnapshot.capture(system)
    system.drain()
    golden.check("tokenb-torus", pin(result_signature(system.finish())))


def test_snapshot_round_trips_through_bytes(golden):
    """The snapshot itself pickles (so it can cross a process boundary)
    and the rehydrated copy restores to the same continuation."""
    system = DETERMINISM.golden_system("directory-torus")
    system.start()
    _run_to(system, 800)
    snapshot = SimulatorSnapshot.capture(system)
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone.meta == snapshot.meta

    for snap in (snapshot, clone):
        restored = snap.restore()
        restored.drain()
        golden.check(
            "directory-torus", pin(result_signature(restored.finish()))
        )


def test_two_restores_diverge_independently():
    """Restores are copies, not views: running one does not advance the
    other (the copy-on-write property forks rely on)."""
    system = DETERMINISM.golden_system("tokenb-torus")
    system.start()
    _run_to(system, 1200)
    snapshot = SimulatorSnapshot.capture(system)

    first = snapshot.restore()
    second = snapshot.restore()
    first.drain()
    first_result = first.finish()
    assert second.sim.events_fired == snapshot.meta["events_fired"]
    second.drain()
    assert result_signature(first_result) == result_signature(second.finish())


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
