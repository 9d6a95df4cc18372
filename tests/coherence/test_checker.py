"""Tests for the data-value coherence checker (the safety oracle)."""

import pytest

from repro.coherence.checker import CoherenceChecker, CoherenceViolation


def test_versions_start_at_zero():
    checker = CoherenceChecker()
    assert checker.current_version(5) == 0


def test_store_increments_version():
    checker = CoherenceChecker()
    assert checker.record_store(5, proc=0, now=1.0, based_on_version=0) == 1
    assert checker.record_store(5, proc=1, now=2.0, based_on_version=1) == 2
    assert checker.current_version(5) == 2


def test_lost_update_detected():
    checker = CoherenceChecker()
    checker.record_store(5, 0, 1.0, 0)
    with pytest.raises(CoherenceViolation, match="lost update"):
        checker.record_store(5, 1, 2.0, 0)


def test_load_of_current_version_passes():
    checker = CoherenceChecker()
    checker.record_store(5, 0, 1.0, 0)
    checker.check_load(5, proc=1, observed_version=1, issue_version=1, now=2.0)


def test_future_version_rejected():
    checker = CoherenceChecker()
    with pytest.raises(CoherenceViolation, match="future"):
        checker.check_load(5, 0, observed_version=1, issue_version=0, now=1.0)


def test_stale_read_after_completed_store_rejected():
    checker = CoherenceChecker()
    checker.record_store(5, 0, 1.0, 0)
    with pytest.raises(CoherenceViolation, match="stale"):
        checker.check_load(5, 1, observed_version=0, issue_version=1, now=2.0)


def test_inflight_invalidation_mode_allows_ordered_stale_read():
    checker = CoherenceChecker(allow_inflight_invalidation=True)
    checker.record_store(5, 0, 1.0, 0)
    # Legal in split-transaction snooping: the reader has not yet
    # processed the invalidation, so its load orders before the store.
    checker.check_load(5, 1, observed_version=0, issue_version=1, now=2.0)


def test_per_processor_monotonicity_enforced_even_when_relaxed():
    checker = CoherenceChecker(allow_inflight_invalidation=True)
    checker.record_store(5, 0, 1.0, 0)
    checker.check_load(5, 1, observed_version=1, issue_version=0, now=2.0)
    with pytest.raises(CoherenceViolation, match="coherence order"):
        checker.check_load(5, 1, observed_version=0, issue_version=0, now=3.0)


def test_strict_mode_requires_exact_version():
    checker = CoherenceChecker(strict=True)
    checker.record_store(5, 0, 1.0, 0)
    checker.record_store(5, 0, 2.0, 1)
    with pytest.raises(CoherenceViolation, match="strict"):
        checker.check_load(5, 1, observed_version=1, issue_version=1, now=3.0)


def test_observation_counts():
    checker = CoherenceChecker()
    checker.record_store(1, 0, 1.0, 0)
    checker.check_load(1, 0, 1, 0, 2.0)
    assert checker.stores_checked == 1
    assert checker.loads_checked == 1


def test_blocks_are_independent():
    checker = CoherenceChecker()
    checker.record_store(1, 0, 1.0, 0)
    assert checker.current_version(2) == 0
    checker.check_load(2, 1, observed_version=0, issue_version=0, now=2.0)


def test_pending_operations_settle_on_validation():
    """Each dispatched operation stays pending until the checker
    validates it; a settled (proc, block) leaves no entry behind."""
    checker = CoherenceChecker()
    assert checker.issue(1, 0, True) == 0
    assert checker.issue(1, 2, False) == 0
    assert checker.pending_stores == {(0, 1): 1}
    assert checker.pending_loads == {(2, 1): 1}
    checker.record_store(1, 0, 1.0, 0)
    checker.check_load(1, 2, 1, 0, 2.0)
    assert not checker.pending_stores and not checker.pending_loads
    checker.record_store(1, 0, 3.0, 1)  # never dispatched
    assert checker.pending_stores == {(0, 1): -1}
