"""The adversarial schedule explorer.

One :class:`Scenario` is one fully-determined simulation: a protocol on
an interconnect, an adversarial workload, a perturbation spec, optional
config overrides (e.g. aggressive timeout knobs), and optionally a named
mutant from :mod:`repro.testing.mutants`.  :func:`run_scenario` executes
it with **every oracle armed**:

* the data-value checker (``strict=True`` wherever the builder allows —
  all token protocols);
* token conservation (ledger audit over every touched block);
* liveness (every operation completes; the run neither deadlocks nor
  exhausts its event budget);
* drainage (writeback buffers, MSHRs, persistent-request tables and
  arbiters all empty at the end).

:func:`scenario_grid` sweeps seeds × the canonical protocol/topology
grid × the adversarial workloads, with each protocol perturbed as hard
as its legality bounds allow (token protocols get the full adversarial
treatment; baselines get FIFO-preserving link jitter).  The module is
executable::

    python -m repro.testing.explore                 # full sweep (>=200)
    python -m repro.testing.explore --smoke         # CI-sized sweep
    python -m repro.testing.explore --repro FILE    # replay a shrunk repro

On a violation the explorer shrinks the scenario and writes a
deterministic repro file (see :mod:`repro.testing.shrink`), then exits
nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

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


class OracleError(AssertionError):
    """A post-run oracle failed (liveness accounting or drainage)."""


#: Default small-system geometry: tiny caches maximize evictions, races,
#: and writeback windows (mirrors the stress suite).  Shared with the
#: differential conformance harness so both run the same machine.
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
    #: Arm timeline tracing (repro.observe); the outcome then carries a
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
    #: Trace-recorder summary when ``Scenario.observe`` was set (span
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


def _post_run_oracles(system, result, expected_ops: int) -> None:
    """Everything that must hold once the event queue has drained."""
    if result.total_ops != expected_ops:
        raise OracleError(
            f"liveness: {result.total_ops} of {expected_ops} ops completed"
        )
    for node in system.nodes:
        if node.writeback_buffer:
            raise OracleError(
                f"drainage: P{node.node_id} writeback buffer still holds "
                f"{sorted(node.writeback_buffer)}"
            )
        if len(node.mshrs) != 0:
            raise OracleError(
                f"drainage: P{node.node_id} finished with live MSHRs"
            )
    if system.ledger is not None:
        system.ledger.audit_all_touched()
        for node in system.nodes:
            if node._table_by_arbiter or node._table_by_block:
                raise OracleError(
                    f"drainage: P{node.node_id} persistent table not empty"
                )
            if node._my_persistent:
                raise OracleError(
                    f"drainage: P{node.node_id} has unresolved persistent "
                    "requests"
                )
            arbiter = node.arbiter
            if arbiter.state != "idle" or arbiter.queue or arbiter.current:
                raise OracleError(
                    f"drainage: arbiter at P{node.node_id} stuck in "
                    f"{arbiter.state!r}"
                )


def _recovery_oracles(system, injector: FaultInjector) -> None:
    """Every fault window must be followed by quiescence.

    By the time the event queue drains, (a) no pause gate may still
    buffer messages — resume must have flushed them all — and (b) the
    simulation clock must have passed the last fault window, so the
    liveness/drainage oracles above genuinely ran *after* the faults,
    not before them.
    """
    undrained = injector.undrained_nodes()
    if undrained:
        raise OracleError(
            f"recovery: pause gates at nodes {undrained} still buffer "
            "messages after the run (resume never drained them)"
        )
    if injector.gates and system.sim.now < injector.last_fault_end_ns():
        raise OracleError(
            "recovery: event queue drained at "
            f"t={system.sim.now} before the last fault window closed "
            f"at t={injector.last_fault_end_ns()}"
        )


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute one scenario with every oracle armed."""
    outcome, _recorder = run_scenario_recorded(scenario)
    return outcome


def _armed_system(scenario: Scenario):
    """Build the scenario's system with every overlay installed.

    Returns ``(system, expected_ops, perturber, injector)`` ready for
    :meth:`System.run` (or a stepped drain — the shrinker's checkpointed
    runner snapshots between strides).  The lineage and trace recorders
    ride on the system as ``system.lineage`` and ``system.observe``.
    """
    if scenario.workload not in EXPLORER_WORKLOADS:
        raise ValueError(f"unknown workload {scenario.workload!r}")
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    expected_ops = sum(len(ops) for ops in streams.values())
    system = build_system(config, streams, workload_name=scenario.workload)
    if scenario.lineage:
        # Before the mutant (it may sabotage the recorder) and the fault
        # injector (it reports request drops into the recorder).  The
        # overlays themselves compose in any order.
        from repro.lineage import install_recorder

        install_recorder(system)
    if scenario.mutant is not None:
        MUTANTS[scenario.mutant].install(system)
    perturber = Perturber(scenario.perturb)
    if scenario.perturb.any_active():
        perturber.install(system)
    injector = FaultInjector(scenario.faults, recorder=system.lineage)
    if scenario.faults.any_active():
        injector.install(system)
    if scenario.observe:
        from repro.observe import install_tracing

        install_tracing(
            system,
            fault_plan=(
                scenario.faults if scenario.faults.any_active() else None
            ),
        )
    return system, expected_ops, perturber, injector


def _finish_scenario(
    scenario: Scenario, system, expected_ops: int, perturber, injector, run
):
    """Execute ``run()`` and fold oracles + stats into an outcome.

    ``run`` is a zero-argument callable returning the
    :class:`SimulationResult` — ``system.run(...)`` on the straight
    path, or a restore-and-continue closure on the shrinker's
    checkpointed path.  Shared so both paths judge a scenario with
    byte-identical oracle and accounting logic.  Returns the outcome
    and the lineage recorder (None unless armed).
    """
    recorder, trace = system.lineage, system.observe
    try:
        result = run()
        _post_run_oracles(system, result, expected_ops)
        _recovery_oracles(system, injector)
        if recorder is not None:
            from repro.lineage import check_outcome_contract

            recorder.finalize(now=system.sim.now)
            check_outcome_contract(recorder, system.nodes)
    except (AssertionError, RuntimeError) as exc:
        return ScenarioOutcome(
            ok=False,
            violation_type=type(exc).__name__,
            violation_message=str(exc),
            events_fired=system.sim.events_fired,
            persistent_requests=system.counters.get("persistent_request"),
            reissued_requests=system.counters.get("reissued_request"),
            perturb_stats=dict(perturber.stats),
            fault_stats=dict(injector.stats),
            lineage_stats=recorder.stats() if recorder is not None else {},
            telemetry=trace.summary() if trace is not None else {},
        ), recorder
    return ScenarioOutcome(
        ok=True,
        total_ops=result.total_ops,
        events_fired=result.events_fired,
        persistent_requests=result.counters.get("persistent_request", 0),
        reissued_requests=result.counters.get("reissued_request", 0),
        perturb_stats=dict(perturber.stats),
        fault_stats=dict(injector.stats),
        runtime_ns=result.runtime_ns,
        recovery_ns=max(
            0.0, result.runtime_ns - scenario.faults.last_end_ns()
        ) if scenario.faults.any_active() else 0.0,
        traffic_bytes=dict(result.traffic_bytes),
        lineage_stats=recorder.stats() if recorder is not None else {},
        telemetry=trace.summary() if trace is not None else {},
    ), recorder


def run_scenario_recorded(scenario: Scenario):
    """Like :func:`run_scenario`, but also return the lineage recorder.

    The recorder is ``None`` unless ``scenario.lineage`` is set.  Used
    by the query CLI's ``record`` subcommand, which needs the custody
    log itself (to write a :class:`~repro.lineage.LineageStore`), not
    just the aggregated outcome.
    """
    system, expected_ops, perturber, injector = _armed_system(scenario)
    return _finish_scenario(
        scenario, system, expected_ops, perturber, injector,
        run=lambda: system.run(max_events=scenario.max_events),
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
        # Timeline telemetry on every sweep point: outcomes carry
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


#: --smoke seed count: both this module's CLI and the campaign preset's
#: smoke mode sweep exactly this many seeds.
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


def explore(scenarios, progress=None) -> dict:
    """Run ``scenarios`` serially; return a report dict (violations listed)."""
    started = time.perf_counter()
    outcomes = []
    for index, scenario in enumerate(scenarios):
        outcome = run_scenario(scenario)
        outcomes.append(outcome)
        if progress is not None:
            progress(index, scenario, outcome)
    report = summarize(scenarios, outcomes)
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    return report


def explore_campaign(
    scenarios, jobs=None, store_dir=None, progress=None
) -> dict:
    """Run ``scenarios`` through the campaign runner (the ``--jobs`` path).

    Results are content-addressed in a :class:`CampaignStore`, so a
    killed sweep resumed against the same ``store_dir`` executes only
    the missing scenarios; the aggregate (everything but ``elapsed_s``
    and the ``campaign`` execution counters) is byte-identical to an
    uninterrupted run and is written to ``<store_dir>/aggregate.json``.
    With no ``store_dir`` the store is a throwaway temp directory.
    """
    import shutil
    import tempfile

    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import ScenarioCase
    from repro.campaign.store import CampaignStore

    started = time.perf_counter()
    cases = [ScenarioCase("explore", s.to_dict()) for s in scenarios]
    index_by_key = {case.key: i for i, case in enumerate(cases)}
    temp_root = None
    if store_dir is None:
        temp_root = tempfile.mkdtemp(prefix="explore-campaign-")
        store_dir = temp_root
    try:
        store = CampaignStore(store_dir)

        def campaign_progress(done, total, case, ok, error):
            # Worker results are not visible to the parent store until
            # the pool drains, so completion ticks carry no outcome;
            # violations are summarized from the store afterwards.
            if progress is not None:
                progress(index_by_key[case.key], scenarios[index_by_key[case.key]], None)

        report_run = run_campaign(
            cases, store, jobs=jobs, progress=campaign_progress
        )
        if report_run.failures:
            raise RuntimeError(
                f"{len(report_run.failures)} scenario executors failed: "
                f"{report_run.failures[:3]}"
            )
        try:
            outcomes = [
                ScenarioOutcome(**store.get(case.key)["result"])
                for case in cases
            ]
        except (TypeError, ValueError, KeyError) as exc:
            # Only reachable with a pinned REPRO_CAMPAIGN_FINGERPRINT
            # across an outcome-schema change; name the store instead
            # of dying on a raw constructor error.
            raise RuntimeError(
                f"store {store.root} holds records that do not match the "
                f"current ScenarioOutcome schema ({exc}); clear the store "
                "or unpin REPRO_CAMPAIGN_FINGERPRINT"
            ) from None
        report = summarize(scenarios, outcomes)
        if temp_root is None:
            aggregate_path = Path(store_dir) / "aggregate.json"
            aggregate_path.write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
        report["elapsed_s"] = round(time.perf_counter() - started, 3)
        report["campaign"] = {
            "executed": report_run.executed,
            "cached": report_run.cached,
            "store": None if temp_root is not None else str(store_dir),
        }
        return report
    finally:
        if temp_root is not None:
            shutil.rmtree(temp_root, ignore_errors=True)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.explore",
        description="Adversarial schedule explorer over the protocol grid.",
    )
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of seeds to sweep (default 8)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed value (default 0)")
    parser.add_argument("--protocols", default=",".join(ALL_PROTOCOLS),
                        help="comma-separated protocol subset")
    parser.add_argument("--workloads",
                        default=",".join(EXPLORER_WORKLOADS),
                        help="comma-separated adversarial workload subset "
                             "(flat generators and phased programs)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep (2 seeds, shorter streams)")
    parser.add_argument("--faults", action="store_true",
                        help="sweep the faulty-fabric grid instead: each "
                             "scenario schedules one fault class (link "
                             "flaps, degraded links, corruption drops, "
                             "node pause/resume — the loss classes only "
                             "where legal) with recovery oracles armed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes via the campaign runner "
                             "(default 1 = the deterministic serial loop; "
                             "0 = one per core)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="campaign store directory: results are "
                             "content-addressed there and a killed sweep "
                             "resumes from it (implies the campaign path "
                             "even with --jobs 1)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--repro-out", default="repro_failure.json",
                        help="where to write the shrunk repro on violation")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking on violation")
    parser.add_argument("--repro", default=None, metavar="FILE",
                        help="replay a repro file instead of sweeping")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.repro is not None:
        from repro.testing.shrink import replay

        reproduced, scenario, outcome = replay(args.repro)
        print(f"repro: {scenario.label()}")
        print(f"  expected -> observed: {outcome.violation_type} "
              f"({outcome.violation_message})")
        print("REPRODUCED" if reproduced else "DID NOT REPRODUCE")
        return 0 if reproduced else 1

    seeds = range(
        args.seed_base,
        args.seed_base + (SMOKE_SEEDS if args.smoke else args.seeds),
    )
    protocols = tuple(p for p in args.protocols.split(",") if p)
    workloads = tuple(w for w in args.workloads.split(",") if w)
    if args.faults:
        scenarios = fault_scenario_grid(seeds, protocols)
    else:
        scenarios = scenario_grid(seeds, protocols, workloads)
    if args.smoke:
        scenarios = smoke_scenarios(scenarios)

    def progress(index, scenario, outcome):
        if args.quiet:
            return
        if outcome is None:  # campaign completion tick (outcome on disk)
            status = "done"
        else:
            status = "ok" if outcome.ok else f"VIOLATION({outcome.violation_type})"
        print(f"[{index + 1:>4}/{len(scenarios)}] {scenario.label()}: {status}",
              flush=True)

    if args.jobs != 1 or args.store is not None:
        jobs = None if args.jobs == 0 else args.jobs
        report = explore_campaign(
            scenarios, jobs=jobs, store_dir=args.store, progress=progress
        )
        if not args.quiet and report.get("campaign"):
            info = report["campaign"]
            print(f"campaign: {info['executed']} executed, "
                  f"{info['cached']} cached"
                  + (f" -> {info['store']}" if info["store"] else ""))
    else:
        report = explore(scenarios, progress=progress)
    print(
        f"\n{report['scenarios']} scenarios, "
        f"{report['violation_count']} violations, "
        f"{report['elapsed_s']}s "
        f"({report['totals']['events_fired']:,} events; "
        f"{report['totals']['persistent_requests']} persistent, "
        f"{report['totals']['dropped_requests']} dropped, "
        f"{report['totals']['duplicated_requests']} duplicated requests)"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report -> {args.out}")

    if report["violation_count"]:
        first = report["violations"][0]
        scenario = Scenario.from_dict(first["scenario"])
        print(f"\nfirst violation: {scenario.label()}\n"
              f"  {first['violation_type']}: {first['violation_message']}")
        if not args.no_shrink:
            from repro.testing.shrink import shrink, write_repro

            shrunk, outcome = shrink(scenario)
            write_repro(args.repro_out, shrunk, outcome)
            print(f"shrunk to: {shrunk.label()}\nrepro -> {args.repro_out}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
