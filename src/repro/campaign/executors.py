"""Executors: how each campaign ``kind`` turns params into a result.

Every executor is a pure function of its params document — simulations
are seeded and bit-deterministic — returning a JSON-serializable result
payload.  That purity is what makes the content-addressed store sound:
a record is exactly reproducible from its params, so serving it from
disk is indistinguishable from recomputing it.

Registered kinds:

``simulate``
    One full-system simulation (the figure benches' unit of work).
    Params: ``{"workload": asdict(WorkloadSpec), "ops_per_proc": N,
    "config": {SystemConfig kwargs}}``, or ``{"program":
    WorkloadProgram.to_dict(), "config": {...}}`` for a
    phase-structured program (phase lengths live inside the program
    document).  Result: the
    :class:`~repro.system.simulator.SimulationResult` payload.
``explore``
    One adversarial schedule-explorer scenario with every oracle armed.
    Params: :meth:`repro.testing.explore.Scenario.to_dict`.  Result:
    ``asdict(ScenarioOutcome)`` — oracle violations are *data* here, not
    exceptions, so a violating scenario still produces a cacheable
    record.
``fork_family``
    One warmup-once/fork-many scenario family
    (:mod:`repro.snapshot.fork`).  Params: ``{"family":
    ProgramFamily.to_dict(), "config": {SystemConfig kwargs}}``.
    Result: per-tail :class:`SimulationResult` payloads plus the
    deterministic fork stats (warmup event count and time, tail count)
    — but *not* the snapshot byte size, which depends on pickle details
    rather than on the params and would break the executor-purity
    contract.  Each family runs its own warmup once; the store
    memoizes the whole family.

Protocol imports happen inside the executors so this module stays cheap
to import from worker bootstrap.
"""

from __future__ import annotations

import dataclasses

from repro.campaign.spec import ScenarioCase


# ----------------------------------------------------------------------
# SimulationResult <-> JSON payload
# ----------------------------------------------------------------------


def result_to_payload(result) -> dict:
    """Flatten a :class:`SimulationResult` into a JSON-safe document:
    every dataclass field, the config as its own field document."""
    return dataclasses.asdict(result)


def result_from_payload(payload: dict):
    """Rebuild a :class:`SimulationResult` from its stored payload."""
    from repro.config import SystemConfig
    from repro.system.simulator import SimulationResult

    fields = dict(payload)
    fields["config"] = SystemConfig(**fields["config"])
    return SimulationResult(**fields)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


def _run_simulate(params: dict) -> dict:
    from repro.config import SystemConfig

    config = SystemConfig(**params["config"])
    if "program" in params:
        from repro.system.builder import simulate_program
        from repro.workloads.programs import WorkloadProgram

        program = WorkloadProgram.from_dict(params["program"])
        result = simulate_program(config, program)
    else:
        from repro.system.builder import simulate
        from repro.workloads.synthetic import WorkloadSpec

        workload = WorkloadSpec(**params["workload"])
        result = simulate(config, workload.scaled(params["ops_per_proc"]))
    return result_to_payload(result)


def _run_explore(params: dict) -> dict:
    from repro.testing.explore import Scenario, run_scenario

    outcome = run_scenario(Scenario.from_dict(params))
    return dataclasses.asdict(outcome)


def _run_fork_family(params: dict) -> dict:
    from repro.config import SystemConfig
    from repro.snapshot.fork import ProgramFamily, fork_family

    config = SystemConfig(**params["config"])
    family = ProgramFamily.from_dict(params["family"])
    results, stats = fork_family(config, family)
    return {
        "family": family.name,
        "tails": {
            name: result_to_payload(result)
            for name, result in results.items()
        },
        # Deterministic subset of the fork stats only (see module doc).
        "warmup_events": stats["warmup_events"],
        "warmup_t": stats["warmup_t"],
        "n_tails": stats["tails"],
    }


#: kind -> executor.  Tests may register additional kinds.
EXECUTORS = {
    "simulate": _run_simulate,
    "explore": _run_explore,
    "fork_family": _run_fork_family,
}


def execute_case(case: ScenarioCase):
    """Run one case through its registered executor."""
    try:
        executor = EXECUTORS[case.kind]
    except KeyError:
        raise ValueError(f"unknown campaign kind {case.kind!r}") from None
    return executor(case.params)
