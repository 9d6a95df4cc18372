"""Warmup-once forking is bit-identical to cold replay, grid-wide.

``fork_family`` runs a family's shared warmup once, snapshots, and
resumes the snapshot under each divergent tail.  The contract: every
forked tail's result equals the cold path's (fresh system, full warmup
replay, same tail) in every output field of
:func:`~repro.testing.signature.result_signature` — across all 13 legal
protocol × interconnect pairs — and each tail stays pinned in
``tests/golden/snapshot_fork_golden.json`` so engine refactors cannot
silently move fork outputs.  On a warmup-dominated family, forking must
also execute at least 3x fewer events than cold replay.  Re-record
every golden (only for an intended behaviour change) with
``PYTHONPATH=src python -m pytest -q --record-golden``.
"""

import pytest

from repro.config import SystemConfig
from repro.snapshot import demo_family, fork_family, run_family_cold
from repro.system.grid import ALL_PROTOCOLS, protocol_grid
from repro.testing.signature import pin, result_signature
from repro.workloads import programs

#: Small but non-trivial: enough warmup to dirty caches and in-flight
#: state at the barrier, two divergent tails, every grid pair.
N_PROCS = 4
SEED = 5
FAMILY_SHAPE = dict(warmup_ops=60, tail_ops=12, n_tails=2)

GRID = list(protocol_grid(ALL_PROTOCOLS))

#: One pin per grid pair and tail: ``protocol/interconnect/tail``.
PINS = [
    f"{protocol}/{interconnect}/{tail}"
    for protocol, interconnect in GRID
    for tail in sorted(demo_family(**FAMILY_SHAPE).tails)
]


def _config(protocol: str, interconnect: str) -> SystemConfig:
    return SystemConfig(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=N_PROCS,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def golden(golden_file):
    return golden_file("snapshot_fork_golden.json", PINS)


@pytest.mark.parametrize(
    "protocol,interconnect", GRID, ids=[f"{p}-{i}" for p, i in GRID]
)
def test_fork_equals_cold_and_matches_golden(golden, protocol, interconnect):
    family = demo_family(**FAMILY_SHAPE)
    config = _config(protocol, interconnect)
    forked, stats = fork_family(config, family)
    cold = run_family_cold(config, family)

    assert stats["tails"] == FAMILY_SHAPE["n_tails"]
    assert stats["warmup_events"] > 0
    assert sorted(forked) == sorted(cold) == sorted(family.tails)
    for name in forked:
        signature = result_signature(forked[name])
        assert signature == result_signature(cold[name]), name
        golden.check(f"{protocol}/{interconnect}/{name}", pin(signature))


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
