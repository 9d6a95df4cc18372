"""The adversarial schedule explorer.

One :class:`Scenario` is one fully-determined simulation: a protocol on
an interconnect, an adversarial workload, a perturbation spec, optional
config overrides (e.g. aggressive timeout knobs), and optionally a named
mutant from :mod:`repro.testing.mutants`.  :func:`run_scenario` arms
its overlays, runs it, and folds the verdict and every overlay's stats
into a :class:`ScenarioOutcome`.  The oracles are the data-value
checker (``strict=True`` wherever the builder allows — all token
protocols) and the end-of-run invariants that :meth:`System.finish`
checks on every run (:mod:`repro.system.invariants`): liveness,
operation accounting, token conservation, drainage, fault recovery and,
with the custody recorder armed, the token outcome contract.

:func:`scenario_grid` sweeps seeds × the canonical protocol/topology
grid × the adversarial workloads, with each protocol perturbed as hard
as its legality bounds allow (token protocols get the full adversarial
treatment; baselines get FIFO-preserving link jitter), and
:func:`fault_scenario_grid` crosses the same grid with the fault
classes.  The sweeps run as campaigns (the ``explorer``, ``faults`` and
``lineage`` presets, and ``differential``, every protocol un-perturbed
on the same streams)::

    python -m repro.campaign run --spec explorer --seeds 32 --jobs 2
    python -m repro.campaign report --spec explorer --seeds 32

On a recorded violation ``run`` shrinks the first violating scenario
and writes a deterministic repro file, ``<store>/repro_failure.json``
(see :mod:`repro.testing.shrink`), then exits nonzero.  This module's
own entry point replays such a file::

    python -m repro.testing.explore --repro FILE
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.config import SystemConfig
from repro.faults import (
    FAULT_KINDS,
    LOSS_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    generate_plan,
    link_count,
)
from repro.system.builder import build_system
from repro.system.grid import ALL_PROTOCOLS, is_token_protocol, protocol_grid
from repro.testing.mutants import MUTANTS
from repro.testing.perturb import Perturber, PerturbSpec
from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS
from repro.workloads.programs import ADVERSARIAL_PROGRAMS

#: Everything a scenario's ``workload`` field may name: the flat
#: adversarial generators plus the phase-structured adversarial
#: programs — both pure functions of (seed, n_procs, ops_per_proc), so
#: either kind replays bit-identically from a repro file.
EXPLORER_WORKLOADS = {**ADVERSARIAL_WORKLOADS, **ADVERSARIAL_PROGRAMS}


#: Default small-system geometry: tiny caches maximize evictions, races,
#: and writeback windows (mirrors the stress suite).
BASE_GEOMETRY = dict(
    l2_bytes=16 * 64,
    l2_assoc=4,
    l1_bytes=8 * 64,
)


@dataclasses.dataclass
class Scenario:
    """One deterministic adversarial simulation."""

    seed: int
    protocol: str
    interconnect: str
    workload: str
    n_procs: int = 4
    ops_per_proc: int = 40
    perturb: PerturbSpec = dataclasses.field(default_factory=PerturbSpec)
    faults: FaultPlan = dataclasses.field(default_factory=FaultPlan)
    config_overrides: dict = dataclasses.field(default_factory=dict)
    mutant: str | None = None
    max_events: int = 20_000_000
    #: Arm the token-custody recorder + outcome-contract oracle
    #: (token protocols only — custody is a token-counting notion).
    lineage: bool = False
    #: Arm summary tracing (repro.observe's default recorder: counts
    #: and histograms, no link hooks); the outcome then carries a
    #: telemetry summary with a mergeable miss-latency histogram.
    observe: bool = False

    def label(self) -> str:
        parts = [
            f"seed={self.seed}",
            f"{self.protocol}/{self.interconnect}",
            self.workload,
            f"{self.n_procs}p x {self.ops_per_proc}ops",
        ]
        active = self.perturb.active_fields()
        if active:
            parts.append("perturb[" + ",".join(active) + "]")
        kinds = self.faults.kinds()
        if kinds:
            parts.append("faults[" + ",".join(kinds) + "]")
        if self.lineage:
            parts.append("+lineage")
        if self.observe:
            parts.append("+observe")
        if self.mutant:
            parts.append(f"mutant={self.mutant}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["perturb"] = self.perturb.to_dict()
        payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        payload = dict(payload)
        payload["perturb"] = PerturbSpec.from_dict(payload.get("perturb", {}))
        payload["faults"] = FaultPlan.from_dict(payload.get("faults", {}))
        return cls(**payload)


@dataclasses.dataclass
class ScenarioOutcome:
    """What one scenario run produced."""

    ok: bool
    violation_type: str | None = None
    violation_message: str | None = None
    total_ops: int = 0
    events_fired: int = 0
    persistent_requests: int = 0
    reissued_requests: int = 0
    perturb_stats: dict = dataclasses.field(default_factory=dict)
    fault_stats: dict = dataclasses.field(default_factory=dict)
    #: Completion time of the last operation (0.0 on violation).
    runtime_ns: float = 0.0
    #: Time-to-recovery: how long after the last fault window closed the
    #: system still needed to finish (0.0 when it finished first, or on
    #: a fault-free run).
    recovery_ns: float = 0.0
    #: Traffic by category, for resilience cost accounting ({} on
    #: violation).
    traffic_bytes: dict = dataclasses.field(default_factory=dict)
    #: Custody-recorder counters when the lineage oracle was armed
    #: (``lineage_events``/``_transfers``/``_blocks``/``_terminals``/
    #: ``_absorbed_reissues``); {} otherwise.
    lineage_stats: dict = dataclasses.field(default_factory=dict)
    #: Trace-recorder summary when ``Scenario.observe`` was set (event
    #: counts, mergeable ``miss_latency_hist``, queue-depth percentiles
    #: — see :meth:`repro.observe.TraceRecorder.summary`); {} otherwise.
    telemetry: dict = dataclasses.field(default_factory=dict)


def _build_config(scenario: Scenario) -> SystemConfig:
    params = dict(
        protocol=scenario.protocol,
        interconnect=scenario.interconnect,
        n_procs=scenario.n_procs,
        seed=scenario.seed,
        **BASE_GEOMETRY,
    )
    params.update(scenario.config_overrides)
    return SystemConfig(**params)


def _generate_streams(scenario: Scenario, config: SystemConfig):
    generator = EXPLORER_WORKLOADS[scenario.workload]
    kwargs = {}
    if scenario.workload == "eviction_storm":
        # Aim the storm at the system's actual set count.
        kwargs["n_sets"] = config.l2_bytes // (
            config.block_bytes * config.l2_assoc
        )
    return generator(
        scenario.seed,
        scenario.n_procs,
        scenario.ops_per_proc,
        block_bytes=config.block_bytes,
        **kwargs,
    )


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute one scenario with every oracle armed."""
    system = _armed_system(scenario)
    system.start()
    return _finish_scenario(scenario, system)


def _armed_system(scenario: Scenario):
    """Build the scenario's system with every overlay installed.

    Returns the system, ready for :meth:`System.run`; every overlay
    rides on it (``system.lineage``, ``.perturb``, ``.faults``,
    ``.observe``).  The perturber and the fault injector are always
    installed: an idle spec or an empty plan arms nothing and leaves
    their counters at zero.
    """
    if scenario.workload not in EXPLORER_WORKLOADS:
        raise ValueError(f"unknown workload {scenario.workload!r}")
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    system = build_system(config, streams, workload_name=scenario.workload)
    if scenario.lineage:
        # Before the mutant (it may sabotage the recorder) and the fault
        # injector (it reports request drops into the recorder).  The
        # overlays themselves compose in any order.
        from repro.lineage import install_recorder

        install_recorder(system)
    if scenario.mutant is not None:
        MUTANTS[scenario.mutant].install(system)
    Perturber(scenario.perturb).install(system)
    FaultInjector(scenario.faults).install(system)
    if scenario.observe:
        from repro.observe import install_tracing

        install_tracing(system)
    return system


def _finish_scenario(scenario: Scenario, system) -> ScenarioOutcome:
    """Drain a started system; fold its verdict and stats into an outcome.

    The system is fresh from :func:`_armed_system` and started, or a
    restored mid-run snapshot of one; either way :meth:`System.finish`
    judges it, and every overlay's stats are read off the system.
    """
    try:
        system.drain(max_events=scenario.max_events)
        result = system.finish()
    except (AssertionError, RuntimeError) as exc:
        verdict = dict(
            ok=False,
            violation_type=type(exc).__name__,
            violation_message=str(exc),
        )
    else:
        verdict = dict(
            ok=True,
            total_ops=result.total_ops,
            runtime_ns=result.runtime_ns,
            recovery_ns=max(
                0.0, result.runtime_ns - scenario.faults.last_end_ns()
            ) if scenario.faults.any_active() else 0.0,
            traffic_bytes=dict(result.traffic_bytes),
        )
    recorder, trace = system.lineage, system.observe
    return ScenarioOutcome(
        **verdict,
        events_fired=system.sim.events_fired,
        persistent_requests=system.counters.get("persistent_request"),
        reissued_requests=system.counters.get("reissued_request"),
        perturb_stats=dict(system.perturb.stats),
        fault_stats=dict(system.faults.stats),
        lineage_stats=recorder.stats() if recorder is not None else {},
        telemetry=trace.summary() if trace is not None else {},
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

#: Full adversarial treatment for token protocols: jitter everything,
#: lose and repeat a tenth of all transient requests, and force a
#: twentieth of all misses straight onto the persistent path.
_TOKEN_PERTURB = dict(
    kernel_jitter_ns=12.0,
    link_jitter_ns=6.0,
    reorder_jitter_ns=10.0,
    drop_request_prob=0.10,
    dup_request_prob=0.10,
    force_escalation_prob=0.05,
)

#: Baselines assume ordered lossless delivery; FIFO-preserving link
#: congestion jitter is the legal subset.
_BASELINE_PERTURB = dict(link_jitter_ns=6.0)

#: TokenM scenarios rotate through every destination-set predictor (and
#: arm the bandwidth-adaptive hybrid on alternating seeds) so the sweep
#: exercises the whole prediction subsystem, not just the default.
_PREDICTOR_ROTATION = ("group", "owner", "broadcast-if-shared")

#: Tight timeout knobs for TokenB so the sweep constantly exercises the
#: reissue and persistent paths, not just the happy broadcast path.
_AGGRESSIVE_TIMEOUTS = dict(
    backoff_initial_ns=10.0,
    backoff_max_ns=80.0,
    reissue_timeout_multiplier=0.5,
    persistent_timeout_multiplier=3.0,
    reissue_limit=2,
)


def make_scenario(
    seed: int, protocol: str, interconnect: str, workload: str
) -> Scenario:
    """The standard adversarial scenario for one grid point."""
    token = is_token_protocol(protocol)
    perturb_fields = dict(_TOKEN_PERTURB if token else _BASELINE_PERTURB)
    overrides: dict = {}
    if protocol == "tokenb" and workload != "writeback_churn":
        # Tight timeouts put every miss one slow response away from the
        # reissue/persistent path.  Not on writeback_churn: its misses
        # are uncontended capacity misses, and declaring most of them
        # "starving" pins so many lines under persistent requests that a
        # set can run out of evictable ways — the capacity-envelope
        # misconfiguration the simulator rejects by design (the explorer
        # found exactly this before the exclusion).
        overrides.update(_AGGRESSIVE_TIMEOUTS)
    if workload in ("eviction_storm", "writeback_churn"):
        # 8-way keeps the storm legal: enough ways that pinned lines and
        # in-flight MSHRs cannot exhaust a set (that exhaustion is a
        # declared misconfiguration, not a protocol bug).
        overrides["l2_assoc"] = 8
    if protocol == "tokenm":
        overrides["predictor"] = _PREDICTOR_ROTATION[
            seed % len(_PREDICTOR_ROTATION)
        ]
        overrides["bandwidth_adaptive"] = seed % 2 == 1
        # A tiny table under an adversarial workload keeps the LRU
        # eviction path hot (an evicted entry is just a lost hint).
        overrides["predictor_table_entries"] = 8
    ops = 16 if protocol == "null-token" else 40
    return Scenario(
        seed=seed,
        protocol=protocol,
        interconnect=interconnect,
        workload=workload,
        n_procs=4,
        ops_per_proc=ops,
        perturb=PerturbSpec(seed=seed, **perturb_fields),
        config_overrides=overrides,
        # Custody chains only exist for token protocols; arming the
        # recorder everywhere it is meaningful makes the outcome
        # contract a standing oracle of every sweep.
        lineage=token,
        # Summary telemetry on every sweep point: outcomes carry
        # mergeable miss-latency histograms, and every sweep doubles as
        # an armed-vs-unarmed equivalence exercise.
        observe=True,
    )


def scenario_grid(
    seeds,
    protocols=ALL_PROTOCOLS,
    workloads=None,
) -> list[Scenario]:
    """Seeds × canonical protocol/topology grid × adversarial workloads.

    The default workload rotation covers both the flat adversarial
    generators and the phased :data:`ADVERSARIAL_PROGRAMS`, so every
    protocol also faces mid-schedule sharing-pattern shifts with all
    oracles armed.
    """
    if workloads is None:
        workloads = tuple(EXPLORER_WORKLOADS)
    return [
        make_scenario(seed, protocol, interconnect, workload)
        for seed in seeds
        for protocol, interconnect in protocol_grid(protocols)
        for workload in workloads
    ]


# ----------------------------------------------------------------------
# Faulty-fabric scenarios
# ----------------------------------------------------------------------

#: Horizon the fault-schedule generator aims windows into.  Explorer
#: runs (4 procs x 40 ops, small caches) finish between ~1.5k and ~7.5k
#: ns across the grid, so windows opening in the first 60% of 2500 ns
#: land early-to-mid run for every protocol/topology pair.
FAULT_HORIZON_NS = 2500.0

#: Fault windows scheduled per fault class in a generated scenario.
FAULT_EVENTS_PER_KIND = 2


def fault_classes_for(protocol: str) -> tuple[str, ...]:
    """The fault classes legal on ``protocol`` (the legality matrix)."""
    if is_token_protocol(protocol):
        return FAULT_KINDS
    return tuple(k for k in FAULT_KINDS if k not in LOSS_FAULT_KINDS)


def make_fault_scenario(
    seed: int,
    protocol: str,
    interconnect: str,
    fault_class: str,
    workload: str | None = None,
    intensity: float = 1.0,
) -> Scenario:
    """A faulty-fabric scenario: one fault class, no perturbations.

    Perturbations are deliberately off so a violation is attributable
    to the fault windows alone; the campaign preset and the explorer
    rotation both build on this.  The workload defaults to a rotation
    over the adversarial set keyed by (seed, fault class), so a sweep
    crosses every fault class with every sharing pattern.
    """
    if workload is None:
        rotation = tuple(EXPLORER_WORKLOADS)
        offset = FAULT_KINDS.index(fault_class)
        workload = rotation[(seed + offset) % len(rotation)]
    n_procs = 4
    plan = generate_plan(
        seed,
        (fault_class,),
        n_links=link_count(interconnect, n_procs),
        n_nodes=n_procs,
        horizon_ns=FAULT_HORIZON_NS,
        events_per_kind=FAULT_EVENTS_PER_KIND,
        intensity=intensity,
    )
    plan.validate_for_protocol(protocol)
    overrides: dict = {}
    if workload in ("eviction_storm", "writeback_churn"):
        # Same capacity-envelope guard as make_scenario: 8 ways keep
        # pinned lines from exhausting a set.
        overrides["l2_assoc"] = 8
    ops = 16 if protocol == "null-token" else 40
    return Scenario(
        seed=seed,
        protocol=protocol,
        interconnect=interconnect,
        workload=workload,
        n_procs=n_procs,
        ops_per_proc=ops,
        faults=plan,
        config_overrides=overrides,
        # Fault-aware custody: corruption-dropped request chains must
        # terminate as absorbed-by-reissue, never dangle.
        lineage=is_token_protocol(protocol),
        # Fault windows render on the trace; TTR distributions aggregate
        # from the per-scenario telemetry in summarize().
        observe=True,
    )


def fault_scenario_grid(
    seeds,
    protocols=ALL_PROTOCOLS,
    fault_classes=FAULT_KINDS,
    intensities=(1.0,),
) -> list[Scenario]:
    """Seeds x protocol/topology grid x legal fault classes x intensity."""
    return [
        make_fault_scenario(
            seed, protocol, interconnect, fault_class, intensity=intensity
        )
        for seed in seeds
        for protocol, interconnect in protocol_grid(protocols)
        for fault_class in fault_classes
        if fault_class in fault_classes_for(protocol)
        for intensity in intensities
    ]


#: Seed count of the ``--smoke`` slice of the explorer, faults and
#: lineage campaign presets.
SMOKE_SEEDS = 2


def smoke_scenarios(scenarios) -> list[Scenario]:
    """The CI-sized variant of a sweep: halved streams (min 8 ops)."""
    return [
        dataclasses.replace(s, ops_per_proc=max(8, s.ops_per_proc // 2))
        for s in scenarios
    ]


def has_recovery(ok: bool, fault_stats: dict) -> bool:
    """Whether a run measured a time-to-recovery.

    Only a run that passed and on which some fault counter is nonzero
    recovered from anything: a scheduled window the traffic never
    crossed recovers from nothing, and a violating run keeps the
    default ``recovery_ns=0.0``.  Every TTR aggregate — :func:`summarize`,
    the campaign's faults report and explore export, the
    fault-resilience bench — applies this one rule.
    """
    return bool(ok) and any(fault_stats.values())


def summarize(scenarios, outcomes) -> dict:
    """Aggregate ``outcomes`` (parallel to ``scenarios``) into a report.

    Pure function of its inputs — no timing, no ordering dependence on
    *when* each outcome was produced — so a resumed campaign aggregates
    byte-identically to an uninterrupted one.
    """
    from repro.sim.stats import Histogram

    violations = []
    by_protocol: dict[str, int] = {}
    miss_latency = Histogram()
    ttr = Histogram()
    totals = {"persistent_requests": 0, "reissued_requests": 0,
              "dropped_requests": 0, "duplicated_requests": 0,
              "forced_escalations": 0, "events_fired": 0,
              "flap_dropped": 0, "flap_queued": 0,
              "degraded_crossings": 0, "corrupt_dropped": 0,
              "paused_deliveries": 0,
              "lineage_events": 0, "lineage_transfers": 0,
              "lineage_blocks": 0, "lineage_terminals": 0,
              "lineage_absorbed_reissues": 0}
    for scenario, outcome in zip(scenarios, outcomes):
        key = f"{scenario.protocol}/{scenario.interconnect}"
        by_protocol[key] = by_protocol.get(key, 0) + 1
        totals["persistent_requests"] += outcome.persistent_requests
        totals["reissued_requests"] += outcome.reissued_requests
        totals["events_fired"] += outcome.events_fired
        for stat, value in outcome.perturb_stats.items():
            totals[stat] += value
        for stat, value in outcome.fault_stats.items():
            totals[stat] += value
        for stat, value in outcome.lineage_stats.items():
            totals[stat] += value
        hist = outcome.telemetry.get("miss_latency_hist")
        if hist:
            # Associative bucket-count merge: any sharding of the sweep
            # folds to the same distribution.
            miss_latency.merge(Histogram.from_dict(hist))
        if has_recovery(outcome.ok, outcome.fault_stats):
            ttr.record(outcome.recovery_ns)
        if not outcome.ok:
            violations.append(
                {
                    "scenario": scenario.to_dict(),
                    "violation_type": outcome.violation_type,
                    "violation_message": outcome.violation_message,
                }
            )
    return {
        "scenarios": len(scenarios),
        "violations": violations,
        "violation_count": len(violations),
        "by_protocol": by_protocol,
        "totals": totals,
        "distributions": {
            "miss_latency_ns": miss_latency.percentiles(),
            "ttr_ns": ttr.percentiles(),
        },
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    """Replay a repro file; exit 0 if it reproduces its violation, 1 if
    it does not, and 2 on a file that cannot be replayed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.explore",
        description="Replay a shrunk explorer repro.  Sweeps run through "
                    "python -m repro.campaign run --spec "
                    "explorer|faults|lineage, which writes the repro.",
    )
    parser.add_argument("--repro", required=True, metavar="FILE",
                        help="repro file to replay, e.g. "
                             "<store>/repro_failure.json")
    args = parser.parse_args(argv)
    from repro.testing.shrink import ReproFileError, replay

    try:
        reproduced, scenario, outcome = replay(args.repro)
    except ReproFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"repro: {scenario.label()}")
    print(f"  expected -> observed: {outcome.violation_type} "
          f"({outcome.violation_message})")
    print("REPRODUCED" if reproduced else "DID NOT REPRODUCE")
    return 0 if reproduced else 1


if __name__ == "__main__":
    sys.exit(main())
