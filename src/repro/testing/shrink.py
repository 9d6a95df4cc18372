"""Failure shrinking and deterministic repro files.

When the explorer finds a violating scenario, the raw form is noisy: a
few hundred operations, several perturbations, more processors than the
bug needs.  :func:`shrink` greedily minimizes the scenario — fewer
operations, fewer processors, fewer perturbations, fewer config
overrides — while requiring every accepted reduction to reproduce the
*same violation type*.  Because a :class:`~repro.testing.explore.Scenario`
is a pure function of its fields (workloads and perturbations are all
seeded), the minimized scenario is a complete, replayable witness.

Most of a shrink's cost is re-simulating the same warmup prefix: the
dominant reduction direction is ``ops_per_proc``, and every candidate
shares the original scenario's issue prefix (the adversarial workload
generators are prefix-stable — truncating ``ops_per_proc`` truncates
the stream without reshuffling it).  When the scenario is
snapshot-compatible (see :func:`checkpointable`), :func:`shrink`
therefore runs the first violating simulation *stepped*, capturing
:class:`~repro.snapshot.SimulatorSnapshot` checkpoints between events,
and re-runs each ops-reduction candidate from the latest checkpoint
whose processors have not yet looked past the candidate's shorter
streams — instead of from t=0.  Restored continuations are
bit-identical to cold replays, so the minimized scenario and its
outcome are byte-identical either way; only the number of simulated
events drops.

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

from repro.sim.kernel import SimulationError
from repro.snapshot import SimulatorSnapshot, SnapshotUnsupportedError
from repro.testing.explore import (
    Scenario,
    ScenarioOutcome,
    _armed_system,
    _build_config,
    _finish_scenario,
    _generate_streams,
    run_scenario,
)
from repro.testing.mutants import PICKLABLE_MUTANTS
from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS

REPRO_FORMAT = "repro.testing/repro-v1"

#: Workloads whose streams are prefix-stable in ``ops_per_proc``:
#: ``generate(seed, n, k)[proc]`` is a prefix of
#: ``generate(seed, n, K)[proc]`` for every ``k <= K``.  All the flat
#: adversarial generators qualify (each draws ops sequentially from one
#: derived RNG and stops); phase-structured programs do not — phase
#: boundaries move when the op budget changes.
_PREFIX_STABLE_WORKLOADS = frozenset(ADVERSARIAL_WORKLOADS)


def checkpointable(scenario: Scenario) -> bool:
    """Whether :func:`shrink` may reuse snapshots for this scenario.

    Three independent gates, all required:

    * the armed system must be picklable — every overlay is (jitter,
      drop/dup, escalation, faults, lineage, tracing), so only
      closure-based mutants outside :data:`PICKLABLE_MUTANTS` rule it
      out;
    * the workload must be prefix-stable (flat adversarial generators
      only), or a checkpoint's consumed prefix would not match the
      reduced candidate's stream;
    * implicitly, candidates must reduce *only* ``ops_per_proc`` —
      enforced per-candidate, since any other change (fewer procs, a
      zeroed perturbation) alters the simulation from t=0.
    """
    if scenario.mutant is not None and scenario.mutant not in PICKLABLE_MUTANTS:
        return False
    return scenario.workload in _PREFIX_STABLE_WORKLOADS


class _PrefixCheckpoints:
    """Issue-prefix checkpoints of the original violating run.

    ``baseline_run`` executes the scenario one kernel event at a time
    (:meth:`EventKernel.step` has byte-identical per-event semantics to
    ``run``), capturing a snapshot every ``stride`` events along with
    each sequencer's *fetched* count — ops pulled from its stream,
    including a fetched-but-unissued ``_current_op``.  A checkpoint can
    seed a candidate with ``ops_per_proc = cap`` iff no sequencer has
    fetched past ``cap``: every op observed so far then exists
    identically in the candidate's (prefix-stable) streams, so the
    checkpoint state is exactly what the candidate's own run would have
    reached.  Resuming swaps each sequencer's stream for the candidate
    remainder and drains to completion through the same oracle path as
    a cold run.
    """

    def __init__(
        self,
        scenario: Scenario,
        stride: int = 256,
        max_checkpoints: int = 12,
    ):
        self.scenario = scenario
        self.stride = stride
        self.max_checkpoints = max_checkpoints
        #: (snapshot, fetched-per-proc, any-proc-done-issuing), time order.
        self.entries: list[tuple] = []
        self.tally = {
            "checkpoints": 0,
            "resumed_runs": 0,
            "cold_runs": 0,
            "events_simulated": 0,
            "events_saved": 0,
        }

    def baseline_run(self) -> ScenarioOutcome:
        """Run the original scenario, capturing checkpoints en route."""
        scenario = self.scenario
        system, expected_ops, perturber, injector = _armed_system(scenario)
        # Captured alongside the system in one pickle, so the restored
        # overlays alias the restored stats dicts (_finish_scenario
        # reads both off the resumed run).
        extras = {"perturber": perturber, "injector": injector}

        def run():
            system.start()
            sim = system.sim
            next_capture = sim.events_fired + self.stride
            capturing = True
            while sim.step():
                if sim.events_fired > scenario.max_events:
                    raise SimulationError(
                        f"exceeded max_events={scenario.max_events} "
                        f"at t={sim.now}"
                    )
                if capturing and sim.events_fired >= next_capture:
                    next_capture = sim.events_fired + self.stride
                    try:
                        snap = SimulatorSnapshot.capture(
                            system, extras=extras
                        )
                    except SnapshotUnsupportedError:
                        # Pre-gated by checkpointable(); if an overlay
                        # still sneaks in unpicklable state, degrade to
                        # cold candidate runs rather than fail.
                        capturing = False
                        continue
                    fetched = tuple(
                        s.issued_ops
                        + (1 if s._current_op is not None else 0)
                        for s in system.sequencers
                    )
                    issuing_done = any(
                        s._done_issuing for s in system.sequencers
                    )
                    self.entries.append((snap, fetched, issuing_done))
                    if len(self.entries) > self.max_checkpoints:
                        self.entries = self.entries[::2]
                        self.stride *= 2
            return system.finish()

        outcome, _ = _finish_scenario(
            scenario, system, expected_ops, perturber, injector, run
        )
        self.tally["checkpoints"] = len(self.entries)
        self.tally["events_simulated"] += outcome.events_fired
        return outcome

    def _best_entry(self, candidate: Scenario):
        """Latest checkpoint usable for ``candidate``, or None.

        Only pure ``ops_per_proc`` reductions of the *original*
        scenario qualify; any other delta changes the simulation from
        t=0 and must run cold.
        """
        base = self.scenario
        if candidate.ops_per_proc >= base.ops_per_proc:
            return None
        if (
            dataclasses.replace(candidate, ops_per_proc=base.ops_per_proc)
            != base
        ):
            return None
        cap = candidate.ops_per_proc
        best = None
        for snap, fetched, issuing_done in self.entries:
            if issuing_done or max(fetched) > cap:
                break  # fetched counts only grow; later entries fail too
            best = (snap, fetched)
        return best

    def run_candidate(self, candidate: Scenario) -> ScenarioOutcome:
        """Run one candidate, resuming from a checkpoint when possible."""
        entry = self._best_entry(candidate)
        if entry is None:
            self.tally["cold_runs"] += 1
            outcome = run_scenario(candidate)
            self.tally["events_simulated"] += outcome.events_fired
            return outcome
        snap, fetched = entry
        system, extras = snap.restore(with_extras=True)
        streams = _generate_streams(candidate, _build_config(candidate))
        expected_ops = sum(len(ops) for ops in streams.values())
        for proc, sequencer in enumerate(system.sequencers):
            # The checkpoint consumed candidate_stream[:fetched] (prefix
            # stability); hand the sequencer the remainder.
            sequencer._stream = iter(streams[proc][fetched[proc] :])

        def run():
            system.drain(max_events=candidate.max_events)
            return system.finish()

        outcome, _ = _finish_scenario(
            candidate, system, expected_ops,
            extras["perturber"], extras["injector"], run,
        )
        warm = snap.meta["events_fired"]
        self.tally["resumed_runs"] += 1
        self.tally["events_simulated"] += outcome.events_fired - warm
        self.tally["events_saved"] += warm
        return outcome


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
        yield dataclasses.replace(
            scenario, n_procs=max(2, scenario.n_procs // 2)
        )
        yield dataclasses.replace(scenario, n_procs=scenario.n_procs - 1)
    for field in scenario.perturb.active_fields():
        yield dataclasses.replace(
            scenario,
            perturb=dataclasses.replace(scenario.perturb, **{field: 0.0}),
        )
    for key in scenario.config_overrides:
        remaining = {
            k: v for k, v in scenario.config_overrides.items() if k != key
        }
        yield dataclasses.replace(scenario, config_overrides=remaining)


def shrink(
    scenario: Scenario,
    max_runs: int = 200,
    checkpoints: bool = True,
    stats: dict | None = None,
) -> tuple[Scenario, ScenarioOutcome]:
    """Minimize a violating scenario; returns (scenario, its outcome).

    Greedy descent: each accepted candidate must fail with the same
    violation type as the original.  ``max_runs`` bounds the total
    number of simulations.

    With ``checkpoints=True`` (the default) and a
    :func:`checkpointable` scenario, ``ops_per_proc``-reduction
    candidates resume from the latest usable snapshot of the original
    violating run instead of replaying its warmup — the minimized
    scenario and outcome are byte-identical to the cold path, just
    cheaper.  Pass a dict as ``stats`` to receive the accounting:
    ``checkpoints`` captured, ``resumed_runs`` vs ``cold_runs``,
    ``events_simulated`` in total, and ``events_saved`` (warmup events
    served from snapshots instead of re-simulated).
    """
    ledger = (
        _PrefixCheckpoints(scenario)
        if checkpoints and checkpointable(scenario)
        else None
    )
    if ledger is not None:
        outcome = ledger.baseline_run()
        tally = ledger.tally
    else:
        outcome = run_scenario(scenario)
        tally = {
            "checkpoints": 0,
            "resumed_runs": 0,
            "cold_runs": 0,
            "events_simulated": outcome.events_fired,
            "events_saved": 0,
        }
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
            if ledger is not None:
                candidate_outcome = ledger.run_candidate(candidate)
            else:
                candidate_outcome = run_scenario(candidate)
                tally["cold_runs"] += 1
                tally["events_simulated"] += candidate_outcome.events_fired
            if (
                not candidate_outcome.ok
                and candidate_outcome.violation_type == expected
            ):
                current, current_outcome = candidate, candidate_outcome
                improved = True
                break
            if runs >= max_runs:
                break
    if stats is not None:
        stats.update(tally)
    return current, current_outcome


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------


def write_repro(path, scenario: Scenario, outcome: ScenarioOutcome) -> None:
    """Serialize a violating scenario and its observed violation."""
    payload = {
        "format": REPRO_FORMAT,
        "scenario": scenario.to_dict(),
        "violation": {
            "type": outcome.violation_type,
            "message": outcome.violation_message,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_repro(path) -> tuple[Scenario, dict]:
    """Read a repro file; returns (scenario, expected-violation dict)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path}: not a {REPRO_FORMAT} file")
    return Scenario.from_dict(payload["scenario"]), payload["violation"]


def replay(path) -> tuple[bool, Scenario, ScenarioOutcome]:
    """Re-run a repro file's scenario.

    Returns ``(reproduced, scenario, outcome)`` where ``reproduced``
    means the run failed with the recorded violation type.
    """
    scenario, expected = load_repro(path)
    outcome = run_scenario(scenario)
    reproduced = (
        not outcome.ok and outcome.violation_type == expected["type"]
    )
    return reproduced, scenario, outcome
