"""Warmup-once forking is bit-identical to cold replay, grid-wide.

``fork_family`` runs a family's shared warmup once, snapshots, and
resumes the snapshot under each divergent tail.  The contract: every
forked tail's result equals the cold path's (fresh system, full warmup
replay, same tail) byte for byte — across all 13 legal
protocol × interconnect pairs — and stays pinned to the recorded golden
digests so engine refactors cannot silently move fork outputs.  On a
warmup-dominated family, forking must also execute at least 3x fewer
events than cold replay.

Regenerate the golden after an *intentional* engine change with::

    PYTHONPATH=src python tests/snapshot/test_fork_family.py --regen
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign.spec import canonical_json
from repro.config import SystemConfig
from repro.snapshot import demo_family, fork_family, run_family_cold
from repro.system.grid import ALL_PROTOCOLS, protocol_grid
from repro.workloads import programs

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "golden"
    / "snapshot_fork_golden.json"
)
GOLDEN_FORMAT = "repro.snapshot/fork-golden-v1"

#: Small but non-trivial: enough warmup to dirty caches and in-flight
#: state at the barrier, two divergent tails, every grid pair.
N_PROCS = 4
SEED = 5
FAMILY_SHAPE = dict(warmup_ops=60, tail_ops=12, n_tails=2)

GRID = list(protocol_grid(ALL_PROTOCOLS))


def _config(protocol: str, interconnect: str) -> SystemConfig:
    return SystemConfig(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=N_PROCS,
        seed=SEED,
    )


def _observed(result) -> dict:
    return {
        "events_fired": result.events_fired,
        "runtime_ns": result.runtime_ns,
        "total_ops": result.total_ops,
        "total_misses": result.total_misses,
        "counters": dict(sorted(result.counters.items())),
        "traffic_bytes": dict(sorted(result.traffic_bytes.items())),
        "per_proc_finish_ns": result.per_proc_finish_ns,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "mean_miss_latency_ns": result.mean_miss_latency_ns,
    }


def _digest(observed: dict) -> str:
    return hashlib.sha256(canonical_json(observed).encode()).hexdigest()


def _fork_digests(protocol: str, interconnect: str) -> dict:
    family = demo_family(**FAMILY_SHAPE)
    results, stats = fork_family(_config(protocol, interconnect), family)
    assert stats["tails"] == len(results) == FAMILY_SHAPE["n_tails"]
    assert stats["warmup_events"] > 0
    return {
        name: _digest(_observed(result)) for name, result in results.items()
    }


def _load_golden() -> dict:
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["format"] == GOLDEN_FORMAT
    return payload["digests"]


@pytest.mark.parametrize(
    "protocol,interconnect", GRID, ids=[f"{p}-{i}" for p, i in GRID]
)
def test_fork_equals_cold_and_matches_golden(protocol, interconnect):
    family = demo_family(**FAMILY_SHAPE)
    config = _config(protocol, interconnect)
    forked, stats = fork_family(config, family)
    cold = run_family_cold(config, family)

    assert sorted(forked) == sorted(cold) == sorted(family.tails)
    for name in forked:
        assert _observed(forked[name]) == _observed(cold[name]), name
        assert (
            forked[name].per_proc_finish_ns == cold[name].per_proc_finish_ns
        )

    golden = _load_golden()[f"{protocol}/{interconnect}"]
    observed = {name: _digest(_observed(result))
                for name, result in forked.items()}
    assert observed == golden


#: The fork economics floor: a family's tails forked from one warmup
#: execute at least this many times fewer events than replaying the
#: warmup cold for every tail.
MIN_EVENTS_RATIO = 3.0

#: 160:1 warmup:tail over 4 tails, the regime forking exists for.
RATIO_FAMILY_SHAPE = dict(warmup_ops=1600, tail_ops=10, n_tails=4)
RATIO_GRID = [("tokenb", "torus"), ("directory", "torus"), ("tokenm", "torus")]


@pytest.mark.parametrize(
    "protocol,interconnect",
    RATIO_GRID,
    ids=[f"{p}-{i}" for p, i in RATIO_GRID],
)
def test_fork_events_ratio_floor(protocol, interconnect):
    """Events are deterministic, so this floor is immune to wall-clock
    noise.  Cold replays every tail from scratch (Σ tail events_fired;
    fork == cold is pinned above); the fork runs the warmup once plus
    each tail's increment past the checkpoint."""
    config = SystemConfig(
        protocol=protocol, interconnect=interconnect, n_procs=8, seed=7
    )
    forked, stats = fork_family(config, demo_family(**RATIO_FAMILY_SHAPE))
    warmup = stats["warmup_events"]
    events_cold = sum(result.events_fired for result in forked.values())
    events_fork = warmup + sum(
        result.events_fired - warmup for result in forked.values()
    )
    assert events_cold / events_fork >= MIN_EVENTS_RATIO


def test_fork_generates_only_warmup_and_tail_ops(monkeypatch):
    """Restoring a tail's system does not regenerate the warmup: the
    restored warmup streams replay only when read, and every tail feeds
    its sequencers fresh streams instead."""
    family = demo_family(**FAMILY_SHAPE)
    config = _config("tokenb", "torus")

    def op_count(program) -> int:
        return sum(
            len(ops) for ops in program.materialize(
                config.n_procs, config.seed, config.block_bytes
            ).values()
        )

    expected = op_count(family.warmup) + sum(
        op_count(tail) for tail in family.tails.values()
    )
    generated = 0
    phase_stream = programs.phase_stream

    def counting_phase_stream(*args, **kwargs):
        nonlocal generated
        for op in phase_stream(*args, **kwargs):
            generated += 1
            yield op

    monkeypatch.setattr(programs, "phase_stream", counting_phase_stream)
    fork_family(config, family)
    assert generated == expected


def test_golden_covers_the_full_grid():
    golden = _load_golden()
    assert sorted(golden) == sorted(f"{p}/{i}" for p, i in GRID)
    assert len(golden) == 13


def _regen() -> None:
    digests = {
        f"{protocol}/{interconnect}": _fork_digests(protocol, interconnect)
        for protocol, interconnect in GRID
    }
    payload = {
        "format": GOLDEN_FORMAT,
        "n_procs": N_PROCS,
        "seed": SEED,
        "family": FAMILY_SHAPE,
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(digests)} grid points)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        sys.exit("usage: test_fork_family.py --regen")
