"""Failure shrinking and deterministic repro files.

When the explorer finds a violating scenario, the raw form is noisy: a
few hundred operations, several perturbations, more processors than the
bug needs.  :func:`shrink` greedily minimizes the scenario — fewer
operations, fewer processors, fewer perturbations, fewer fault windows,
fewer config overrides — while requiring every accepted reduction to
reproduce the *same violation type*.  Because a
:class:`~repro.testing.explore.Scenario`
is a pure function of its fields (workloads and perturbations are all
seeded), the minimized scenario is a complete, replayable witness.
Every candidate runs cold from t=0: explorer scenarios are 4
processors × at most 40 ops, so a whole shrink, bounded by
``max_runs``, takes under a second.

``python -m repro.campaign run`` shrinks the first violation an explore
spec records and writes its repro to ``<store>/repro_failure.json``.
The repro file is a small JSON document::

    {
      "format": "repro.testing/repro-v1",
      "scenario": { ... Scenario.to_dict() ... },
      "violation": {"type": "CoherenceViolation", "message": "..."}
    }

Replay it with ``python -m repro.testing.explore --repro FILE``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterator

from repro.campaign.store import write_atomic
from repro.interconnect import NETWORKS
from repro.testing.explore import (
    Scenario,
    ScenarioOutcome,
    _armed_system,
    _finish_scenario,
    run_scenario,
)

REPRO_FORMAT = "repro.testing/repro-v1"


def _faults_fit(scenario: Scenario, n_procs: int) -> bool:
    """Whether every link and node the fault plan targets exists on an
    ``n_procs`` machine (fault installation rejects the plan otherwise)."""
    plan = scenario.faults
    n_links = NETWORKS[scenario.interconnect].link_count(n_procs)
    return all(event.target < n_links for event in plan.link_events()) and all(
        event.target < n_procs for event in plan.events_of("node_pause")
    )


def _candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Single-step reductions, most aggressive first."""
    if scenario.ops_per_proc > 1:
        yield dataclasses.replace(
            scenario, ops_per_proc=max(1, scenario.ops_per_proc // 2)
        )
        yield dataclasses.replace(
            scenario, ops_per_proc=scenario.ops_per_proc - 1
        )
    if scenario.n_procs > 2:
        for n_procs in (max(2, scenario.n_procs // 2), scenario.n_procs - 1):
            if _faults_fit(scenario, n_procs):
                yield dataclasses.replace(scenario, n_procs=n_procs)
    for field in scenario.perturb.active_fields():
        yield dataclasses.replace(
            scenario,
            perturb=dataclasses.replace(scenario.perturb, **{field: 0.0}),
        )
    events = scenario.faults.events
    for index in range(len(events)):
        yield dataclasses.replace(
            scenario,
            faults=dataclasses.replace(
                scenario.faults, events=events[:index] + events[index + 1 :]
            ),
        )
    for key in scenario.config_overrides:
        remaining = {
            k: v for k, v in scenario.config_overrides.items() if k != key
        }
        yield dataclasses.replace(scenario, config_overrides=remaining)


def shrink(
    scenario: Scenario, max_runs: int = 200
) -> tuple[Scenario, ScenarioOutcome]:
    """Minimize a violating scenario; returns (scenario, its outcome).

    Greedy descent: each accepted candidate must fail with the same
    violation type as the original.  ``max_runs`` bounds the total
    number of simulations.
    """
    outcome = run_scenario(scenario)
    if outcome.ok:
        raise ValueError("cannot shrink a scenario that does not fail")
    expected = outcome.violation_type
    current, current_outcome = scenario, outcome
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(current):
            runs += 1
            candidate_outcome = run_scenario(candidate)
            if (
                not candidate_outcome.ok
                and candidate_outcome.violation_type == expected
            ):
                current, current_outcome = candidate, candidate_outcome
                improved = True
                break
            if runs >= max_runs:
                break
    return current, current_outcome


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------


def write_repro(path, scenario: Scenario, outcome: ScenarioOutcome) -> None:
    """Serialize a violating scenario and its observed violation.

    The file is replaced atomically
    (:func:`~repro.campaign.store.write_atomic`), so several campaign
    runs sharing one store never leave a torn repro behind.
    """
    payload = {
        "format": REPRO_FORMAT,
        "scenario": scenario.to_dict(),
        "violation": {
            "type": outcome.violation_type,
            "message": outcome.violation_message,
        },
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


class ReproFileError(ValueError):
    """A repro file that cannot be replayed: unreadable, not a repro, or
    holding a scenario that cannot be built."""


def load_repro(path) -> tuple[Scenario, dict]:
    """Read a repro file; returns (scenario, expected-violation dict).

    Raises :class:`ReproFileError` naming the file when it cannot be
    read, is not JSON, is not a repro file, lacks its violation type, or
    its scenario has missing or unknown fields.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ReproFileError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ReproFileError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != REPRO_FORMAT:
        raise ReproFileError(f"{path}: not a {REPRO_FORMAT} file")
    violation = payload.get("violation")
    if not isinstance(violation, dict) or "type" not in violation:
        raise ReproFileError(f"{path}: malformed repro: no violation type")
    try:
        return Scenario.from_dict(payload["scenario"]), violation
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproFileError(f"{path}: malformed repro: {exc!r}") from None


def replay(path) -> tuple[bool, Scenario, ScenarioOutcome]:
    """Re-run a repro file's scenario.

    Returns ``(reproduced, scenario, outcome)`` where ``reproduced``
    means the run failed with the recorded violation type.  Raises
    :class:`ReproFileError` as :func:`load_repro` does, and when the
    scenario cannot be built (an unknown protocol, workload or mutant,
    or an illegal config); an error while it runs propagates.
    """
    scenario, expected = load_repro(path)
    try:
        system = _armed_system(scenario)
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproFileError(
            f"{path}: scenario cannot be built: {exc}"
        ) from None
    system.start()
    outcome = _finish_scenario(scenario, system)
    reproduced = (
        not outcome.ok and outcome.violation_type == expected["type"]
    )
    return reproduced, scenario, outcome
