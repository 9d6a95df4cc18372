"""The ``differential`` preset: every protocol on the same streams.

Each case is one un-perturbed explorer scenario, judged by
``System.finish`` like any run; its accounting check pins every
stream-determined result (final memory image, per-processor operation
counts) to the run's own dispatches.  These tests also compare the final
image with the streams themselves, so the claim does not rest on the
check alone.
"""

import collections

import pytest

from repro.campaign.presets import differential_spec
from repro.system.grid import ALL_PROTOCOLS, interconnect_for
from repro.testing.explore import (
    EXPLORER_WORKLOADS,
    Scenario,
    _armed_system,
    _build_config,
    _generate_streams,
    run_scenario,
)


def _plain(protocol, workload, seed, **fields):
    """One differential case: un-perturbed, on the canonical interconnect."""
    return Scenario(seed, protocol, interconnect_for(protocol), workload,
                    **fields)


def _stored_versions(scenario):
    """Each touched block's final version as the streams fix it: the
    number of stores to it."""
    config = _build_config(scenario)
    stores = collections.Counter()
    for ops in _generate_streams(scenario, config).values():
        for op in ops:
            stores[op.address // config.block_bytes] += op.is_write
    return dict(stores)


@pytest.mark.parametrize("workload", list(EXPLORER_WORKLOADS))
def test_all_protocols_agree_on_adversarial_workloads(workload):
    for protocol in ALL_PROTOCOLS:
        scenario = _plain(protocol, workload, 0, ops_per_proc=24)
        system = _armed_system(scenario)
        result = system.run(max_events=scenario.max_events)
        assert result.total_ops == 4 * 24
        expected = _stored_versions(scenario)
        image = {block: system.checker.current_version(block)
                 for block in expected}
        assert image == expected, protocol
        # The runs actually wrote something comparable.
        assert any(image.values())


def test_agreement_holds_across_seeds():
    for seed in range(3):
        for protocol in ALL_PROTOCOLS:
            outcome = run_scenario(
                _plain(protocol, "false_sharing", seed, ops_per_proc=20)
            )
            assert outcome.ok, (seed, protocol, outcome.violation_message)


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
        outcome = run_scenario(_plain(protocol, "eviction_storm", seed))
        assert outcome.ok, (seed, outcome.violation_type,
                            outcome.violation_message)


def test_preset_holds_one_plain_scenario_per_protocol():
    spec = differential_spec(seeds=1, seed_base=5)
    scenarios = [Scenario.from_dict(params) for params in spec.grid]
    assert [(s.workload, s.protocol) for s in scenarios] == [
        (workload, protocol)
        for workload in EXPLORER_WORKLOADS
        for protocol in ALL_PROTOCOLS
    ]
    for scenario in scenarios:
        assert scenario == _plain(scenario.protocol, scenario.workload, 5)
        assert not scenario.perturb.active_fields()
        assert not scenario.faults.any_active()


def test_a_differential_case_is_judged_for_drainage():
    """Each case is an explorer scenario finished by ``System.finish``,
    so a leaked writeback fails the case itself."""
    scenario = Scenario(
        seed=0, protocol="directory", interconnect="torus",
        workload="writeback_churn", mutant="writeback-leak",
    )
    outcome = run_scenario(scenario)
    assert outcome.violation_type == "OracleError"
    assert "writeback buffer still holds" in outcome.violation_message
