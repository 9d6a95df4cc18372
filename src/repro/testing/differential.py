"""Differential conformance: one workload, every protocol, same answers.

The grid's protocols make wildly different timing decisions, so most
per-run quantities (latencies, message counts, even the order in which
racing stores land) legitimately differ.  What must *not* differ is
anything determined by the input streams alone:

* **Final memory image** — the authoritative version of every touched
  block.  Store counts are stream-determined, so after all operations
  complete every protocol must leave every block at the same version.
* **Operation accounting** — per-processor, per-block load and store
  counts as observed at completion.
* **Private-block store trajectories** — for blocks only one processor
  ever touches there are no races, so the exact sequence of versions its
  stores produce (1, 2, …, k) is protocol-independent and is compared
  op-for-op.  (Shared-block observation sequences are timing-dependent
  — two legal protocols may order racing stores differently — so those
  are validated by the live checker's ordering rules instead.)

Each protocol's run is an explorer scenario over the same streams,
recorded by :class:`RecordingChecker` — the production checker plus an
observation log — and judged by :meth:`System.finish` like any run.
"""

from __future__ import annotations

import dataclasses

from repro.coherence.checker import CoherenceChecker
from repro.system.grid import ALL_PROTOCOLS, interconnect_for
from repro.testing.explore import Scenario, _armed_system


class RecordingChecker(CoherenceChecker):
    """The safety oracle, additionally logging every checked operation.

    :func:`observe` moves a built system's checker onto this class.
    """

    #: (proc, block) -> [observed version per completed load].
    load_log: dict[tuple[int, int], list[int]]
    #: (proc, block) -> [version produced per completed store].
    store_log: dict[tuple[int, int], list[int]]

    def record_store(self, block, proc, now, based_on_version):
        version = super().record_store(block, proc, now, based_on_version)
        self.store_log.setdefault((proc, block), []).append(version)
        return version

    def check_load(self, block, proc, observed_version, issue_version, now):
        super().check_load(block, proc, observed_version, issue_version, now)
        self.load_log.setdefault((proc, block), []).append(observed_version)


@dataclasses.dataclass
class Observation:
    """Protocol-independent digest of one recorded run."""

    protocol: str
    interconnect: str
    final_versions: dict[int, int]
    op_counts: dict[tuple[int, int], tuple[int, int]]
    private_store_sequences: dict[tuple[int, int], tuple[int, ...]]


def observe(scenario: Scenario) -> Observation:
    """Run ``scenario`` and digest its protocol-independent observations."""
    system = _armed_system(scenario)
    checker = system.checker
    checker.__class__ = RecordingChecker
    checker.load_log, checker.store_log = {}, {}
    system.run(max_events=scenario.max_events)
    # The run finished, so every op of every stream was logged once.
    touched: dict[int, set[int]] = {}
    for proc, block in (*checker.load_log, *checker.store_log):
        touched.setdefault(block, set()).add(proc)
    final_versions = {
        block: checker.current_version(block) for block in sorted(touched)
    }
    op_counts = {}
    for key in set(checker.load_log) | set(checker.store_log):
        op_counts[key] = (
            len(checker.load_log.get(key, ())),
            len(checker.store_log.get(key, ())),
        )
    private = {
        block for block, procs in touched.items() if len(procs) == 1
    }
    private_store_sequences = {
        key: tuple(versions)
        for key, versions in checker.store_log.items()
        if key[1] in private
    }
    return Observation(
        protocol=scenario.protocol,
        interconnect=scenario.interconnect,
        final_versions=final_versions,
        op_counts=op_counts,
        private_store_sequences=private_store_sequences,
    )


def compare(reference: Observation, candidate: Observation) -> list[str]:
    """Mismatch descriptions between two observations (empty = conform)."""
    mismatches = []
    if candidate.final_versions != reference.final_versions:
        diffs = [
            f"block {block:#x}: "
            f"{reference.final_versions.get(block)} vs "
            f"{candidate.final_versions.get(block)}"
            for block in sorted(
                set(reference.final_versions) | set(candidate.final_versions)
            )
            if reference.final_versions.get(block)
            != candidate.final_versions.get(block)
        ]
        mismatches.append(
            f"final memory image differs ({'; '.join(diffs[:5])})"
        )
    if candidate.op_counts != reference.op_counts:
        mismatches.append("per-processor operation accounting differs")
    if candidate.private_store_sequences != reference.private_store_sequences:
        mismatches.append("private-block store version sequences differ")
    return mismatches


def run_differential(
    workload: str,
    seed: int,
    n_procs: int = 4,
    ops_per_proc: int = 40,
    protocols=ALL_PROTOCOLS,
    config_overrides: dict | None = None,
) -> dict:
    """Run one adversarial workload through every protocol and compare.

    ``workload`` may name a flat adversarial generator or a phased
    adversarial program — both are pure stream functions, so the
    conformance contract is identical.  Each protocol runs as one
    un-perturbed explorer scenario on its canonical interconnect.
    Returns a report dict with ``agreed`` plus per-protocol mismatch
    lists keyed by ``protocol/interconnect``.
    """
    observations = [
        observe(Scenario(
            seed, protocol, interconnect_for(protocol), workload,
            n_procs=n_procs, ops_per_proc=ops_per_proc,
            config_overrides=dict(config_overrides or {}),
        ))
        for protocol in protocols
    ]
    reference = observations[0]
    mismatches = {
        f"{obs.protocol}/{obs.interconnect}": compare(reference, obs)
        for obs in observations[1:]
    }
    return {
        "workload": workload,
        "seed": seed,
        "reference": f"{reference.protocol}/{reference.interconnect}",
        "final_versions": {
            hex(block): version
            for block, version in reference.final_versions.items()
        },
        "mismatches": mismatches,
        "agreed": all(not diffs for diffs in mismatches.values()),
    }
