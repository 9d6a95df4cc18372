"""Warmup-once, fork-many execution of phased scenario families.

Most campaign scenarios share an identical warmup prefix — same
protocol, topology, and seed, divergent late phases — yet a cold sweep
replays that prefix from t=0 for every member.  This module runs the
shared :class:`~repro.workloads.programs.WorkloadProgram` warmup once,
snapshots the quiesced system in memory (:mod:`repro.snapshot.capture`),
and forks each divergent tail from that snapshot.

Family semantics — and why fork ≡ cold *by construction*
--------------------------------------------------------
A family run is warmup → **barrier** → tail: the warmup drains to full
quiescence (every sequencer finished, event queue empty, liveness
checked) before any tail op dispatches, via :meth:`Sequencer.feed`.
Both execution paths share that exact structure:

* **cold**: build system → start → drain → check → feed tail → drain →
  finish;
* **fork**: [build → start → drain → check → snapshot] once → per
  tail: restore → feed tail → drain → finish.

The only difference is a pickle round-trip at the barrier, so the
golden-pinned bit-identity of fork vs cold
(``tests/snapshot/test_fork_family.py``) is a direct test of snapshot
fidelity.  Note the barrier makes a family run *intentionally
different* from concatenating warmup+tail phases into one program
(which would overlap warmup stragglers with tail dispatch).

Results are cumulative over warmup+tail (``events_fired``, counters,
``runtime_ns`` all include the shared prefix), which is what makes them
byte-comparable across the two paths.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.config import SystemConfig
from repro.snapshot.capture import SimulatorSnapshot
from repro.snapshot.stream import ReplayableStream
from repro.system.builder import System, build_system
from repro.workloads.patterns import PatternSpec
from repro.workloads.programs import (
    WorkloadProgram,
    _contention_burst,
    _streaming_scan,
)


@dataclasses.dataclass
class ProgramFamily:
    """One shared warmup program and its named divergent tails."""

    name: str
    warmup: WorkloadProgram
    tails: dict[str, WorkloadProgram]

    def __post_init__(self) -> None:
        if not self.tails:
            raise ValueError("a family needs at least one tail")

    def to_dict(self) -> dict:
        """JSON document (content-addressable; see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "warmup": self.warmup.to_dict(),
            "tails": {
                name: tail.to_dict() for name, tail in self.tails.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProgramFamily":
        return cls(
            name=payload["name"],
            warmup=WorkloadProgram.from_dict(payload["warmup"]),
            tails={
                name: WorkloadProgram.from_dict(tail)
                for name, tail in sorted(payload["tails"].items())
            },
        )


def _warmup_system(config: SystemConfig, warmup: WorkloadProgram) -> System:
    """Build and run the shared warmup to its quiescence barrier.

    Streams are :class:`ReplayableStream` wrappers (not raw generators)
    so the drained system is snapshot-able; their pickled form is just
    the program reference plus a consumed-op count.  A restored warmup
    stream replays its prefix only when read, and :func:`_run_tail`
    feeds every sequencer a fresh tail instead, so forking a tail never
    regenerates the warmup's ops.
    """
    streams = {
        proc: ReplayableStream(
            functools.partial(
                warmup.iter_stream, proc, config.n_procs, config.seed,
                config.block_bytes,
            )
        )
        for proc in range(config.n_procs)
    }
    system = build_system(
        config,
        streams,
        workload_name=warmup.name,
        ops_per_transaction=warmup.ops_per_transaction,
    )
    system.start()
    system.drain()
    system.check_complete()
    return system


def _run_tail(system: System, tail: WorkloadProgram):
    """Feed one tail into a quiesced system and seal the run."""
    config = system.config
    for proc, sequencer in enumerate(system.sequencers):
        sequencer.feed(
            tail.iter_stream(proc, config.n_procs, config.seed,
                             config.block_bytes)
        )
    system.drain()
    return system.finish()


def run_family_cold(config: SystemConfig, family: ProgramFamily) -> dict:
    """Every tail executed with its own full warmup replay (no forking).

    The reference path the fork results are pinned against, and the
    baseline the benchmark compares wall time with.
    """
    results = {}
    for name, tail in family.tails.items():
        system = _warmup_system(config, family.warmup)
        results[name] = _run_tail(system, tail)
    return results


def fork_family(
    config: SystemConfig, family: ProgramFamily
) -> tuple[dict, dict]:
    """Warmup once, fork every tail.

    Returns ``(results, stats)``: per-tail
    :class:`~repro.system.simulator.SimulationResult` keyed by tail
    name, plus a stats document recording the shared-warmup cost
    (``warmup_events`` lets callers compute per-tail incremental event
    counts as ``result.events_fired - warmup_events``).  The snapshot
    lives in memory only: a campaign memoizes the whole family's
    results in its store, so a warmup never needs to outlive its
    family.
    """
    system = _warmup_system(config, family.warmup)
    snapshot = SimulatorSnapshot.capture(system)
    results = {
        # Every tail (including the first) restores from the blob, so
        # all tails take the identical restore path.
        name: _run_tail(snapshot.restore(), tail)
        for name, tail in family.tails.items()
    }
    stats = {
        "family": family.name,
        "tails": len(family.tails),
        "warmup_events": snapshot.meta["events_fired"],
        "warmup_t": snapshot.meta["t"],
        "snapshot_bytes": snapshot.size_bytes,
    }
    return results, stats


# ----------------------------------------------------------------------
# The canonical warmup-heavy family (tests, CI smoke, benchmark)
# ----------------------------------------------------------------------


def demo_family(
    warmup_ops: int = 240,
    tail_ops: int = 40,
    n_tails: int = 3,
    name: str = "demo",
) -> ProgramFamily:
    """A warmup-dominated family with up to four divergent tails.

    The warmup is a long bounded-footprint contention prefix (a slowly
    rotating hotspot over a fixed 96-block pool); the tails re-aim
    contention four different ways — migratory burst, streaming scan,
    rotating hotspot, group handoff — which is the fan-out shape the
    fork path exists for.  The *bounded* footprint matters for the
    economics: snapshot size (ledger holders, checker values) scales
    with blocks touched, not ops executed, so a fixed working set keeps
    per-tail restore cost flat while warmup cost grows — exactly the
    regime where forking beats cold replay.
    """
    if not 1 <= n_tails <= 4:
        raise ValueError("n_tails must be between 1 and 4")
    warmup = WorkloadProgram(
        f"{name}_warmup",
        [
            PatternSpec(
                "warmup", "rotating_hotspot", ops_per_proc=warmup_ops,
                n_blocks=96, hot_blocks=8, rotation_period=24,
                write_prob=0.4,
            )
        ],
    )
    builders = {
        "contend": lambda: WorkloadProgram(
            f"{name}_contend", [_contention_burst("contend", tail_ops)]
        ),
        "scan": lambda: WorkloadProgram(
            f"{name}_scan", [_streaming_scan("scan", tail_ops)]
        ),
        "hotspot": lambda: WorkloadProgram(
            f"{name}_hotspot",
            [
                PatternSpec(
                    "hotspot", "rotating_hotspot", ops_per_proc=tail_ops,
                    n_blocks=16, hot_blocks=2, rotation_period=8,
                    write_prob=0.5,
                )
            ],
        ),
        "handoff": lambda: WorkloadProgram(
            f"{name}_handoff",
            [
                PatternSpec(
                    "handoff", "producer_group_handoff",
                    ops_per_proc=tail_ops, n_blocks=16, group_size=4,
                    rotation_period=12,
                )
            ],
        ),
    }
    tails = {
        tail_name: build()
        for tail_name, build in list(builders.items())[:n_tails]
    }
    return ProgramFamily(name=name, warmup=warmup, tails=tails)
