"""Schedule-explorer tests: scenario serialization, the sweep's oracle
coverage, and the repro-replay entry point.  Sweeps run through the
campaign CLI (tests/campaign/test_cli.py)."""

import json

import pytest

from repro.system.grid import protocol_grid
from repro.testing.explore import (
    EXPLORER_WORKLOADS,
    Scenario,
    main,
    make_scenario,
    run_scenario,
    scenario_grid,
    summarize,
)
from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS
from repro.workloads.programs import ADVERSARIAL_PROGRAMS


def test_scenario_roundtrips_through_dict():
    scenario = make_scenario(5, "tokenb", "tree", "arbiter_contention")
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_scenario_label_names_the_grid_point():
    scenario = make_scenario(5, "tokenb", "tree", "false_sharing")
    label = scenario.label()
    assert "seed=5" in label
    assert "tokenb/tree" in label
    assert "false_sharing" in label
    assert "perturb[" in label


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        run_scenario(
            Scenario(seed=0, protocol="tokenb", interconnect="torus",
                     workload="nope")
        )


def test_grid_covers_all_protocols_topologies_and_workloads():
    scenarios = scenario_grid(seeds=range(2))
    # 13 legal (protocol, interconnect) pairs x 6 workloads (4 flat
    # generators + 2 phased adversarial programs) x 2 seeds.
    assert len(scenarios) == 2 * 13 * 6
    seen = {(s.protocol, s.interconnect) for s in scenarios}
    assert seen == set(protocol_grid())
    assert {s.workload for s in scenarios} == set(EXPLORER_WORKLOADS)
    assert set(EXPLORER_WORKLOADS) == (
        set(ADVERSARIAL_WORKLOADS) | set(ADVERSARIAL_PROGRAMS)
    )


def test_phased_program_scenarios_run_with_all_oracles_armed():
    """Adversarial programs face the same perturbed sweep as the flat
    generators: perturbations live, every oracle clean."""
    scenarios = scenario_grid(
        seeds=[0], protocols=("tokenb",),
        workloads=("phase_shift", "barrier_storm"),
    )
    assert all(s.perturb.drop_request_prob > 0 for s in scenarios)
    report = summarize(scenarios, [run_scenario(s) for s in scenarios])
    assert report["scenarios"] == 4  # 2 programs x torus + tree
    assert report["violation_count"] == 0
    assert report["totals"]["events_fired"] > 0


def test_program_scenario_round_trips_through_repro_dict():
    scenario = make_scenario(3, "tokenm", "torus", "phase_shift")
    restored = Scenario.from_dict(scenario.to_dict())
    assert restored == scenario
    first = run_scenario(scenario)
    second = run_scenario(restored)
    assert first == second


def test_token_scenarios_get_full_adversarial_treatment():
    scenario = make_scenario(0, "tokenb", "torus", "false_sharing")
    assert scenario.perturb.drop_request_prob > 0
    assert scenario.perturb.dup_request_prob > 0
    baseline = make_scenario(0, "directory", "torus", "false_sharing")
    assert baseline.perturb.active_fields() == ["link_jitter_ns"]


def test_small_sweep_is_clean_and_reports_totals():
    """One seed over a protocol subset: zero violations, and the report
    proves the perturbations were live (drops observed)."""
    scenarios = scenario_grid(
        seeds=[0], protocols=("tokenb", "snooping"),
        workloads=("false_sharing", "arbiter_contention"),
    )
    report = summarize(scenarios, [run_scenario(s) for s in scenarios])
    assert report["scenarios"] == len(scenarios) == 6
    assert report["violation_count"] == 0
    assert report["totals"]["events_fired"] > 0
    assert report["totals"]["dropped_requests"] > 0
    assert report["by_protocol"]["tokenb/tree"] == 2


def test_explore_lists_violations_with_their_scenarios():
    bad = Scenario(seed=0, protocol="null-token", interconnect="torus",
                   workload="false_sharing", ops_per_proc=8,
                   mutant="no-escalation")
    report = summarize([bad], [run_scenario(bad)])
    assert report["violation_count"] == 1
    violation = report["violations"][0]
    assert violation["violation_type"] == "DeadlockError"
    assert Scenario.from_dict(violation["scenario"]) == bad


def test_summarize_is_pure_and_order_stable():
    scenarios = scenario_grid(
        seeds=[0], protocols=("null-token",), workloads=("false_sharing",)
    )
    outcomes = [run_scenario(s) for s in scenarios]
    assert summarize(scenarios, outcomes) == summarize(scenarios, outcomes)
    report = summarize(scenarios, outcomes)
    assert "elapsed_s" not in report
    assert report["scenarios"] == len(scenarios)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [[], ["--seeds", "1"], ["--smoke"]])
def test_cli_accepts_only_repro(argv):
    """Sweeps run through ``python -m repro.campaign run``; the explorer
    entry point only replays, so sweep flags are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_repro_replay(tmp_path):
    from repro.testing.shrink import write_repro

    bad = Scenario(seed=0, protocol="null-token", interconnect="torus",
                   workload="false_sharing", ops_per_proc=8,
                   mutant="no-escalation")
    outcome = run_scenario(bad)
    path = tmp_path / "repro.json"
    write_repro(path, bad, outcome)
    assert main(["--repro", str(path)]) == 0


def test_cli_repro_replay_detects_non_reproduction(tmp_path):
    from repro.testing.shrink import write_repro

    good = Scenario(seed=0, protocol="tokenb", interconnect="torus",
                    workload="false_sharing", ops_per_proc=8)
    outcome = run_scenario(good)
    assert outcome.ok
    # Forge a repro claiming this clean scenario deadlocks.
    path = tmp_path / "repro.json"
    write_repro(path, good, outcome)
    payload = json.loads(path.read_text())
    payload["violation"] = {"type": "DeadlockError", "message": "forged"}
    path.write_text(json.dumps(payload))
    assert main(["--repro", str(path)]) == 1


_REPRO = {"format": "repro.testing/repro-v1",
          "violation": {"type": "DeadlockError", "message": ""}}
_SCENARIO = {"seed": 0, "protocol": "tokenb", "interconnect": "torus",
             "workload": "false_sharing", "ops_per_proc": 8}


@pytest.mark.parametrize("text, reason", [
    pytest.param(None, "No such file", id="missing"),
    pytest.param("{not json", "not JSON", id="not-json"),
    pytest.param(json.dumps({**_REPRO, "format": "other",
                             "scenario": _SCENARIO}),
                 "not a repro", id="wrong-format"),
    pytest.param(json.dumps({**_REPRO, "scenario": {**_SCENARIO,
                                                    "protocol": "bogus"}}),
                 "cannot be built: protocol must be one of",
                 id="unknown-protocol"),
    pytest.param(json.dumps({**_REPRO, "scenario": {"seed": 0}}),
                 "malformed repro", id="missing-fields"),
    pytest.param(json.dumps({**_REPRO, "violation": {},
                             "scenario": _SCENARIO}),
                 "no violation type", id="no-violation-type"),
])
def test_cli_repro_rejects_a_bad_file(tmp_path, capsys, text, reason):
    """A file that cannot be replayed is a usage error (exit 2), not a
    non-reproduction (exit 1)."""
    path = tmp_path / "repro.json"
    if text is not None:
        path.write_text(text)
    assert main(["--repro", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_cli_repro_lets_an_error_in_the_run_escape(tmp_path, monkeypatch):
    """Only a file that cannot be loaded or built exits 2: a ValueError
    raised while the scenario runs is a simulator bug and propagates."""
    from repro.processor.sequencer import Sequencer

    path = tmp_path / "repro.json"
    path.write_text(json.dumps({**_REPRO, "scenario": _SCENARIO}))

    def dispatch(sequencer):
        raise ValueError("simulator bug")

    monkeypatch.setattr(Sequencer, "_dispatch", dispatch)
    with pytest.raises(ValueError, match="simulator bug"):
        main(["--repro", str(path)])
