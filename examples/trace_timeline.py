#!/usr/bin/env python3
"""Trace a TokenB run and read its timeline three ways.

Arms the observability layer on a small adversarial run, then shows
what it captured: the opening of the merged text timeline (misses,
messages, link crossings, persistent-request escalations in simulated-
time order), the telemetry digest with miss-latency percentiles from
the exact per-miss histogram, and a Chrome trace-event export you can
drop into https://ui.perfetto.dev or chrome://tracing to see per-node
tracks, link occupancy spans, and send→delivery flow arrows.

Run:  python examples/trace_timeline.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.observe import (  # noqa: E402
    TimelineRecorder,
    chrome_trace,
    install_tracing,
    text_timeline,
    validate_chrome_trace,
)
from repro.system.builder import build_system  # noqa: E402
from repro.testing.explore import (  # noqa: E402
    Scenario,
    _build_config,
    _generate_streams,
)


def main() -> None:
    # A contended scenario on the tiny explorer geometry: four
    # processors fighting over falsely shared blocks makes the protocol
    # machinery (reissues, escalations) show up in a short trace.
    scenario = Scenario(
        seed=7, protocol="tokenb", interconnect="torus",
        workload="false_sharing", n_procs=4, ops_per_proc=60,
    )
    config = _build_config(scenario)
    streams = _generate_streams(scenario, config)
    system = build_system(config, streams, workload_name=scenario.workload)

    # Tracing is opt-in and installs last; an un-armed run would execute
    # completely pristine classes.  The timeline recorder keeps every
    # event for rendering; the default recorder would keep counts only.
    recorder = install_tracing(
        system, recorder=TimelineRecorder(epoch_ns=200.0)
    )
    result = system.run()

    print(f"run finished: {result.runtime_ns:,.0f} ns, "
          f"{result.events_fired:,} kernel events")
    print()
    print("--- first 25 timeline rows " + "-" * 33)
    print(text_timeline(recorder, limit=25))
    print()

    summary = recorder.summary()
    lat = summary["miss_latency"]
    print("--- telemetry digest " + "-" * 39)
    print(f"{summary['sends']} sends, {summary['delivers']} deliveries, "
          f"{summary['hops']} link crossings, "
          f"{summary['miss_spans']} miss spans")
    print(f"miss latency: p50={lat['p50']:.0f} p90={lat['p90']:.0f} "
          f"p99={lat['p99']:.0f} max={lat['max']:.0f} ns "
          f"({lat['count']} misses)")
    print(f"escalation marks: {summary['marks']}")
    print(f"time-series samples (every 200 ns): "
          f"{summary['timeseries_samples']}")
    print()

    out = Path("trace_timeline.json")
    payload = chrome_trace(recorder)
    n_events = validate_chrome_trace(payload)
    out.write_text(json.dumps(payload))
    print(f"{n_events} trace events -> {out}")
    print("open it in https://ui.perfetto.dev or chrome://tracing")


if __name__ == "__main__":
    main()
