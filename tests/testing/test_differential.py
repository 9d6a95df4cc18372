"""Differential conformance tests: the full protocol grid (including
the promoted TokenD/TokenM extensions), one workload, same
protocol-independent observables."""

import pytest

from repro.system.grid import ALL_PROTOCOLS
from repro.system.invariants import OracleError
from repro.testing.differential import (
    Observation,
    compare,
    observe,
    run_differential,
)
from repro.testing.explore import Scenario
from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS


@pytest.mark.parametrize(
    "workload", sorted(ADVERSARIAL_WORKLOADS) + ["phase_shift"]
)
def test_all_protocols_agree_on_adversarial_workloads(workload):
    report = run_differential(workload, seed=0, ops_per_proc=24)
    assert report["agreed"], report["mismatches"]
    # The comparison covered every non-reference protocol.
    assert len(report["mismatches"]) == len(ALL_PROTOCOLS) - 1
    # And the runs actually wrote something comparable.
    assert any(v > 0 for v in report["final_versions"].values())


def test_agreement_holds_across_seeds():
    for seed in range(3):
        report = run_differential("false_sharing", seed=seed,
                                  ops_per_proc=20)
        assert report["agreed"], (seed, report["mismatches"])


@pytest.mark.parametrize("protocol", ["directory", "hammer"])
def test_blocking_homes_complete_the_eviction_storm(protocol):
    """Directory and Hammer share one blocking home and one requester.

    A PUT does not occupy the home, so the home must keep draining its
    queue past one, or a request queued behind the PUT is stranded with
    the home idle and the run ends in a DeadlockError.  Hammer's memory
    data can arrive after its miss finished on cache data; a newer miss
    on the block must drop it, or it completes on stale data and the
    checker raises a CoherenceViolation (Hammer, seed 8).
    """
    for seed in range(32):
        # Raises if any processor's stream is left incomplete, or on
        # any coherence violation.
        run_differential("eviction_storm", seed=seed, protocols=(protocol,))


def test_compare_flags_final_image_divergence():
    base = Observation(
        protocol="tokenb", interconnect="torus",
        final_versions={0x200: 5, 0x201: 3},
        op_counts={(0, 0x200): (2, 1)},
        private_store_sequences={},
    )
    diverged = Observation(
        protocol="directory", interconnect="torus",
        final_versions={0x200: 4, 0x201: 3},
        op_counts={(0, 0x200): (2, 1)},
        private_store_sequences={},
    )
    mismatches = compare(base, diverged)
    assert len(mismatches) == 1
    assert "final memory image" in mismatches[0]
    assert "0x200" in mismatches[0]


def test_compare_flags_accounting_and_private_sequence_divergence():
    base = Observation(
        protocol="tokenb", interconnect="torus",
        final_versions={0x200: 1},
        op_counts={(0, 0x200): (1, 1)},
        private_store_sequences={(0, 0x200): (1,)},
    )
    diverged = Observation(
        protocol="hammer", interconnect="torus",
        final_versions={0x200: 1},
        op_counts={(0, 0x200): (2, 1)},
        private_store_sequences={(0, 0x200): (1, 2)},
    )
    mismatches = compare(base, diverged)
    assert "per-processor operation accounting differs" in mismatches
    assert "private-block store version sequences differ" in mismatches


def test_compare_is_clean_on_identical_observations():
    obs = Observation(
        protocol="tokenb", interconnect="torus",
        final_versions={0x200: 2},
        op_counts={(1, 0x200): (3, 2)},
        private_store_sequences={(1, 0x200): (1, 2)},
    )
    assert compare(obs, obs) == []


def test_recording_checker_logs_observed_versions():
    """The recorder is the production checker plus a log: private-block
    store sequences come out dense (1..k) and loads observe real
    versions."""
    report = run_differential("writeback_churn", seed=1, ops_per_proc=16,
                              protocols=("tokenb",))
    # writeback_churn touches only private blocks, so the reference
    # observation's store trajectories are fully protocol-independent.
    assert report["agreed"]  # trivially: single protocol
    assert report["final_versions"]


def test_a_differential_case_is_judged_for_drainage():
    """Each case is an explorer scenario finished by ``System.finish``,
    so a leaked writeback fails the case itself."""
    scenario = Scenario(
        seed=0, protocol="directory", interconnect="torus",
        workload="writeback_churn", mutant="writeback-leak",
    )
    with pytest.raises(OracleError, match="writeback buffer still holds"):
        observe(scenario)
