"""The one definition of "same behaviour", and its record path.

Every golden pin and equivalence check reads
:mod:`repro.testing.signature`; ``--record-golden`` re-records every
golden through :class:`GoldenFile`.  These tests drive a GoldenFile on
a temporary file, the way one pytest session does.
"""

import dataclasses

import pytest

from repro.system.simulator import SimulationResult
from repro.testing.explore import ScenarioOutcome
from repro.testing.signature import (
    RESULT_FIELDS,
    GoldenFile,
    digest,
    outcome_signature,
    pin,
)

A = {"events_fired": 10, "digest": "aaaaaaaaaaaaaaaa"}
B = {"events_fired": 20, "digest": "bbbbbbbbbbbbbbbb"}
A_MOVED = {"events_fired": 11, "digest": "cccccccccccccccc"}


def test_result_signature_covers_every_output_field():
    inputs = {"config", "workload_name", "ops_per_transaction"}
    outputs = {field.name for field in dataclasses.fields(SimulationResult)}
    assert set(RESULT_FIELDS) == outputs - inputs


def test_outcome_signature_drops_only_queue_depth():
    outcome = ScenarioOutcome(
        ok=True, events_fired=7,
        telemetry={"delivers": 3, "queue_depth": {"p50": 2.0}},
    )
    expected = dataclasses.asdict(outcome)
    expected["telemetry"] = {"delivers": 3}
    assert outcome_signature(outcome) == expected
    assert pin(expected) == {"events_fired": 7, "digest": digest(expected)}
    assert len(digest(expected)) == 16


def _recorded(path, entries: dict) -> bytes:
    """Record ``entries`` as one session would and return the bytes."""
    golden = GoldenFile(path, entries, record=True)
    for label, entry in entries.items():
        golden.check(label, entry)
    golden.write()
    return path.read_bytes()


def test_unchanged_observation_leaves_the_bytes_and_reports_nothing(tmp_path):
    path = tmp_path / "golden.json"
    before = _recorded(path, {"a": A, "b": B})
    golden = GoldenFile(path, ["a", "b"], record=True)
    golden.check("a", A)
    golden.check("b", B)
    assert golden.write() == []
    assert path.read_bytes() == before


def test_changed_observation_is_rewritten_and_reported(tmp_path):
    path = tmp_path / "golden.json"
    _recorded(path, {"a": A, "b": B})
    golden = GoldenFile(path, ["a", "b"], record=True)
    golden.check("a", A_MOVED)
    golden.check("b", B)
    assert golden.write() == [
        "golden.json a: digest aaaaaaaaaaaaaaaa -> cccccccccccccccc, "
        "events_fired 10 -> 11"
    ]
    GoldenFile(path, ["a", "b"]).check("a", A_MOVED)


def test_unobserved_label_keeps_its_pin(tmp_path):
    """Recording a ``-k`` subset drops no pin of the cases it skipped."""
    path = tmp_path / "golden.json"
    _recorded(path, {"a": A, "b": B})
    golden = GoldenFile(path, ["a", "b"], record=True)
    golden.check("a", A_MOVED)
    golden.write()
    checked = GoldenFile(path, ["a", "b"])
    checked.check("a", A_MOVED)
    checked.check("b", B)


def test_two_observations_of_one_label_that_disagree_raise(tmp_path):
    """E.g. a restored run against the uninterrupted one: the label
    keeps its old pin."""
    path = tmp_path / "golden.json"
    before = _recorded(path, {"a": A})
    golden = GoldenFile(path, ["a"], record=True)
    golden.check("a", A)
    golden.check("a", A)
    with pytest.raises(AssertionError, match="disagree"):
        golden.check("a", A_MOVED)
    assert golden.write() == []
    assert path.read_bytes() == before


def test_check_fails_a_moved_pin_and_a_file_out_of_step(tmp_path):
    """Checking compares with the pin, and every case needs a pin and
    every pin a case."""
    path = tmp_path / "golden.json"
    _recorded(path, {"a": A, "b": B})
    golden = GoldenFile(path, ["a", "b"])
    golden.check("a", A)
    with pytest.raises(AssertionError, match="pinned"):
        golden.check("a", A_MOVED)
    with pytest.raises(KeyError):
        golden.check("c", A)
    with pytest.raises(AssertionError, match=r"without a pin \['c'\]"):
        GoldenFile(path, ["a", "b", "c"]).check("a", A)
    with pytest.raises(AssertionError, match=r"without a case \['b'\]"):
        GoldenFile(path, ["a"]).check("a", A)


def test_recording_adds_new_cases_and_drops_pins_of_none(tmp_path):
    path = tmp_path / "golden.json"
    _recorded(path, {"a": A, "b": B})
    golden = GoldenFile(path, ["a", "c"], record=True)
    golden.check("c", B)
    assert golden.write() == [
        "golden.json b: digest bbbbbbbbbbbbbbbb -> -, events_fired 20 -> -",
        "golden.json c: digest - -> bbbbbbbbbbbbbbbb, events_fired - -> 20",
    ]
