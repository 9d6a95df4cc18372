"""Chrome-trace export schema, text timeline, and protocol diff."""

import json

import pytest

from repro.observe import (
    chrome_trace,
    protocol_diff,
    text_timeline,
    validate_chrome_trace,
)
from repro.observe import TimelineRecorder, install_tracing
from repro.system.builder import build_system
from repro.testing.explore import Scenario, _build_config, _generate_streams


def _recorded(protocol="tokenb", interconnect="torus", seed=4, epoch_ns=None):
    scenario = Scenario(seed=seed, protocol=protocol,
                        interconnect=interconnect, workload="false_sharing",
                        n_procs=4, ops_per_proc=40)
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    system = build_system(config, streams, workload_name=scenario.workload)
    recorder = install_tracing(
        system, recorder=TimelineRecorder(epoch_ns=epoch_ns)
    )
    system.run(max_events=scenario.max_events)
    return recorder


def test_chrome_trace_is_schema_valid_and_json_serializable():
    recorder = _recorded()
    payload = chrome_trace(recorder)
    count = validate_chrome_trace(payload)
    assert count == len(payload["traceEvents"]) > 0
    # Round-trips through JSON (what the CLI writes and CI validates).
    rebuilt = json.loads(json.dumps(payload))
    assert validate_chrome_trace(rebuilt) == count
    assert payload["otherData"]["protocol"] == "tokenb"


def test_chrome_trace_event_accounting():
    recorder = _recorded()
    payload = chrome_trace(recorder)
    events = payload["traceEvents"]
    by_phase = {}
    for event in events:
        by_phase.setdefault(event["ph"], []).append(event)
    # One complete span per miss span and per link hop.
    x_names = [e for e in by_phase["X"]]
    assert len(x_names) == len(recorder.miss_spans) + len(recorder.hops)
    # Flow events pair up: one "s" per send, one "f" per delivery.
    assert len(by_phase["s"]) == len(recorder.sends)
    assert len(by_phase["f"]) == len(recorder.delivers)
    # Flow ids on the "f" side all originate from some send.
    send_ids = {e["id"] for e in by_phase["s"]}
    assert {e["id"] for e in by_phase["f"]} <= send_ids
    # ns -> us scaling.
    first_hop = recorder.hops[0]
    hop_events = [e for e in by_phase["X"] if e.get("cat") == "link"]
    assert hop_events[0]["ts"] == pytest.approx(first_hop[0] * 1e-3)


def test_validator_rejects_malformed_events():
    good = {"name": "x", "ph": "i", "s": "t", "pid": 1, "tid": 0, "ts": 1.0}
    cases = [
        ({}, "traceEvents"),
        ({"traceEvents": "nope"}, "list"),
        ({"traceEvents": [{**good, "ph": "Z"}]}, "phase"),
        ({"traceEvents": [{k: v for k, v in good.items() if k != "pid"}]},
         "pid"),
        ({"traceEvents": [{**good, "ts": -1.0}]}, "ts"),
        ({"traceEvents": [{**good, "ph": "X"}]}, "dur"),
        ({"traceEvents": [{**good, "ph": "s"}]}, "id"),
        ({"traceEvents": [{**good, "ph": "M"}]}, "args.name"),
    ]
    for payload, fragment in cases:
        with pytest.raises(ValueError) as excinfo:
            validate_chrome_trace(payload)
        assert fragment in str(excinfo.value)


def test_fault_windows_export_as_complete_spans():
    recorder = _recorded()
    recorder.fault_windows.append((100.0, 400.0, "link_flap", 3))
    payload = chrome_trace(recorder)
    validate_chrome_trace(payload)
    fault_events = [e for e in payload["traceEvents"]
                    if e.get("cat") == "fault"]
    assert len(fault_events) == 1
    assert fault_events[0]["ph"] == "X"
    assert fault_events[0]["dur"] == pytest.approx(300.0 * 1e-3)
    # An empty recorder exports a valid (metadata-only) trace too.
    empty = TimelineRecorder()
    assert validate_chrome_trace(chrome_trace(empty)) >= 0


def test_text_timeline_renders_and_truncates():
    recorder = _recorded()
    full = text_timeline(recorder)
    lines = full.splitlines()
    assert lines[0].startswith("timeline: tokenb/torus false_sharing")
    assert any("miss" in line for line in lines)
    assert any("send" in line for line in lines)
    # Rows are time-ordered.
    times = [float(line.split("ns")[0].split("t=")[1])
             for line in lines[1:] if line.startswith("t=")]
    assert times == sorted(times)

    limited = text_timeline(recorder, limit=10)
    limited_lines = limited.splitlines()
    assert len(limited_lines) == 12  # header + 10 rows + footer
    assert "more events" in limited_lines[-1]


def test_protocol_diff_contrasts_two_runs():
    rec_a = _recorded("tokenb")
    rec_b = _recorded("directory")
    table = protocol_diff(rec_a, rec_b, "tokenb", "directory")
    lines = table.splitlines()
    assert "tokenb" in lines[0] and "directory" in lines[0]
    assert any(line.startswith("sends") for line in lines)
    assert any(line.startswith("miss latency p50") for line in lines)
    # The message mixes differ: token broadcasts vs directory forwards.
    assert any("send" in line and "GETS" in line for line in lines)
