"""The ``workloads`` campaign preset: program scenarios are first-class
campaign citizens — content-addressed, executed, resumable with
byte-identical results."""

import pytest

from repro.campaign.executors import execute_case, result_from_payload
from repro.campaign.presets import (
    program_case_params,
    workloads_spec,
)
from repro.campaign.runner import run_campaign
from repro.campaign.spec import ScenarioCase
from repro.campaign.store import CampaignStore
from repro.workloads.programs import CAMPAIGN_PROGRAMS, WorkloadProgram


@pytest.fixture(autouse=True)
def pinned_fingerprint(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", "workloads-test")


def tiny_cases() -> list[ScenarioCase]:
    """Two scaled-down program scenarios (fast enough for tier-1)."""
    program = CAMPAIGN_PROGRAMS["scan_vs_contend"].scaled(30)
    return [
        ScenarioCase(
            "simulate",
            program_case_params(program, protocol, "torus", n_procs=2),
        )
        for protocol in ("tokenb", "directory")
    ]


def test_preset_declares_programs_and_phase_isolations():
    spec = workloads_spec()
    program_names = {params["program"]["name"] for params in spec.grid}
    for name in CAMPAIGN_PROGRAMS:
        assert name in program_names
    # Per-phase isolation cases ride along for the ranking comparison.
    assert any("@" in name for name in program_names)
    assert len(spec.cases()) == len(spec.grid)  # no dup keys


def test_smoke_slice_is_small_and_scaled():
    smoke = workloads_spec(smoke=True)
    cases = smoke.cases()
    assert 0 < len(cases) <= 20
    for case in cases:
        program = WorkloadProgram.from_dict(case.params["program"])
        assert program.ops_per_proc <= 90
        assert case.params["config"]["n_procs"] == 8


def test_program_case_executes_and_round_trips_payload():
    case = tiny_cases()[0]
    payload = execute_case(case)
    result = result_from_payload(payload)
    assert result.workload_name == "scan_vs_contend"
    program = WorkloadProgram.from_dict(case.params["program"])
    assert result.total_ops == 2 * program.ops_per_proc
    # Re-execution is bit-identical (what makes the store sound).
    assert execute_case(case) == payload


def test_program_campaign_resumes_byte_identically(tmp_path):
    """Kill a program campaign halfway; the resumed store's records
    match an uninterrupted run's exactly."""
    cases = tiny_cases()

    full_store = CampaignStore(tmp_path / "full")
    run_campaign(cases, full_store, jobs=1)
    full_store.close()

    killed_store = CampaignStore(tmp_path / "killed")
    run_campaign(cases[:1], killed_store, jobs=1)  # "killed" after one
    report = run_campaign(cases, killed_store, jobs=1)
    killed_store.close()
    assert report.cached == 1 and report.executed == 1

    for case in cases:
        assert (
            killed_store.get(case.key)["result"]
            == full_store.get(case.key)["result"]
        )
