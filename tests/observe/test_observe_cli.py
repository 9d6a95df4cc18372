"""``python -m repro.observe`` subcommands end to end."""

import json

import pytest

from repro.observe.__main__ import main


def test_export_writes_valid_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["export", "--protocol", "tokenb", "--seed", "3",
                 "--ops", "30", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trace ->" in stdout
    assert "miss latency p50=" in stdout
    payload = json.loads(out.read_text())
    from repro.observe import validate_chrome_trace

    assert validate_chrome_trace(payload) > 0
    assert payload["otherData"]["protocol"] == "tokenb"


def test_export_with_faults_renders_windows(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["export", "--protocol", "tokenb", "--faults", "link_flap",
                 "--ops", "30", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert any(e.get("cat") == "fault" for e in payload["traceEvents"])


def test_timeline_prints_merged_rows(capsys):
    assert main(["timeline", "--protocol", "tokenb", "--seed", "1",
                 "--ops", "25", "--limit", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("timeline: tokenb/")
    assert sum(1 for line in lines if line.startswith("t=")) <= 15


def test_diff_contrasts_protocols(capsys):
    assert main(["diff", "tokenb", "directory", "--seed", "2",
                 "--ops", "25"]) == 0
    out = capsys.readouterr().out
    assert "tokenb" in out and "directory" in out
    assert "miss latency p50 (ns)" in out
    assert "sends" in out


def test_profile_prints_kernel_table(capsys):
    assert main(["profile", "--protocol", "tokenb", "--seed", "0",
                 "--ops", "30"]) == 0
    out = capsys.readouterr().out
    assert "wall" in out
    # Categories name the pristine classes (profile runs un-traced).
    assert "Traced" not in out
    assert "events" in out


@pytest.mark.parametrize("argv,message", [
    (["--faults", "bogus"], "invalid choice: 'bogus'"),
    (["--protocol", "directory", "--faults", "corrupt"],
     "error: fault kinds ['corrupt'] are only legal on token protocols"),
], ids=["unknown-kind", "loss-kind-on-baseline"])
def test_bad_fault_kind_exits_2_with_an_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["timeline", *argv])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["export"], ["timeline"], ["diff", "tokenb", "directory"], ["profile"],
])
def test_faults_refuse_a_processor_count_they_do_not_run(
    command, tmp_path, capsys
):
    """A fault scenario runs at its own geometry; asking for another
    processor count is refused, not silently ignored."""
    if command == ["export"]:
        command = ["export", "--out", str(tmp_path / "trace.json")]
    with pytest.raises(SystemExit) as exited:
        main([*command, "--faults", "link_flap", "--n-procs", "8"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "error: --faults runs the fault scenario's 4 processors" in err
    assert "--n-procs 8" in err


@pytest.mark.parametrize("argv,message", [
    (["timeline", "--protocol", "bogus"],
     "argument --protocol: invalid choice: 'bogus'"),
    (["timeline", "--workload", "bogus"],
     "argument --workload: invalid choice: 'bogus'"),
    (["timeline", "--interconnect", "bogus"],
     "argument --interconnect: invalid choice: 'bogus'"),
    (["timeline", "--protocol", "snooping", "--interconnect", "torus"],
     "error: snooping cannot run on the torus interconnect"),
    (["diff", "tokenb", "bogus"],
     "argument protocol_b: invalid choice: 'bogus'"),
], ids=["protocol", "workload", "interconnect", "illegal-pair", "diff"])
def test_bad_scenario_arguments_exit_2_with_an_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert message in capsys.readouterr().err
