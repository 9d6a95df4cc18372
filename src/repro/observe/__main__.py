"""Timeline CLI: export a trace, print it, diff two runs, or profile.

::

    python -m repro.observe export --protocol tokenb --seed 3 \
        --workload false_sharing --out trace.json
    python -m repro.observe timeline --protocol tokenb --limit 40
    python -m repro.observe diff tokenb directory --workload false_sharing
    python -m repro.observe profile --protocol tokenb --ops 200

``export``/``timeline``/``diff`` run the named adversarial scenario
with tracing armed (perturbations off, so the timeline shows the
protocol, not the test harness); ``--faults KIND`` schedules one fault
class so the windows render on the trace.  ``profile`` runs the same
scenario un-traced under the kernel self-profiler and prints the
per-callback wall-time table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.config import INTERCONNECTS
from repro.faults import FAULT_KINDS
from repro.observe.export import (
    chrome_trace,
    protocol_diff,
    text_timeline,
    validate_chrome_trace,
)
from repro.observe.hooks import install_tracing
from repro.observe.trace import TimelineRecorder
from repro.system.grid import ALL_PROTOCOLS, interconnect_for, interconnects_for
from repro.testing.explore import (
    EXPLORER_WORKLOADS,
    Scenario,
    _armed_system,
    make_fault_scenario,
)


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _scenario(args, protocol: str):
    interconnect = args.interconnect or interconnect_for(protocol)
    legal = interconnects_for(protocol)
    if interconnect not in legal:
        _usage_error(f"{protocol} cannot run on the {interconnect} "
                     f"interconnect (legal: {', '.join(legal)})")
    if args.faults:
        # The generated plan's link/node targets assume the fault
        # scenario's own geometry, so only the stream length is adjustable.
        try:
            scenario = make_fault_scenario(
                args.seed, protocol, interconnect, args.faults,
                workload=args.workload,
            )
        except ValueError as exc:  # a fault kind illegal on the protocol
            _usage_error(str(exc))
        if args.n_procs != scenario.n_procs:
            _usage_error(f"--faults runs the fault scenario's "
                         f"{scenario.n_procs} processors; --n-procs "
                         f"{args.n_procs} is not supported with it")
        return dataclasses.replace(
            scenario, ops_per_proc=args.ops, lineage=False
        )
    return Scenario(
        seed=args.seed,
        protocol=protocol,
        interconnect=interconnect,
        workload=args.workload,
        n_procs=args.n_procs,
        ops_per_proc=args.ops,
    )


def _armed(scenario):
    """The scenario's system with every overlay but tracing installed."""
    return _armed_system(dataclasses.replace(scenario, observe=False))


def _traced_run(scenario, epoch_ns=None):
    """Build, arm, and run; returns (result, timeline recorder)."""
    system = _armed(scenario)
    recorder = install_tracing(
        system, recorder=TimelineRecorder(epoch_ns=epoch_ns)
    )
    result = system.run(max_events=scenario.max_events)
    return result, recorder


def cmd_export(args) -> int:
    scenario = _scenario(args, args.protocol)
    result, recorder = _traced_run(scenario, epoch_ns=args.epoch_ns)
    payload = chrome_trace(recorder)
    n_events = validate_chrome_trace(payload)
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    summary = recorder.summary()
    print(f"{scenario.label()}: runtime {result.runtime_ns:.0f} ns, "
          f"{result.events_fired} kernel events")
    print(f"trace -> {args.out} ({n_events} trace events: "
          f"{summary['sends']} sends, {summary['delivers']} deliveries, "
          f"{summary['hops']} link crossings, "
          f"{summary['miss_spans']} miss spans)")
    lat = summary["miss_latency"]
    print(f"miss latency p50={lat['p50']:.1f} p99={lat['p99']:.1f} "
          f"max={lat['max']:.1f} ns over {lat['count']} misses")
    return 0


def cmd_timeline(args) -> int:
    scenario = _scenario(args, args.protocol)
    _result, recorder = _traced_run(scenario, epoch_ns=args.epoch_ns)
    print(text_timeline(recorder, limit=args.limit))
    return 0


def cmd_diff(args) -> int:
    recorders = []
    for protocol in (args.protocol_a, args.protocol_b):
        scenario = _scenario(args, protocol)
        _result, recorder = _traced_run(scenario)
        recorders.append(recorder)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.n_procs} procs x {args.ops} ops")
    print(protocol_diff(
        recorders[0], recorders[1], args.protocol_a, args.protocol_b
    ))
    return 0


def cmd_profile(args) -> int:
    from repro.sim.kernel import install_profiler

    scenario = _scenario(args, args.protocol)
    system = _armed(scenario)
    profile = install_profiler(system.sim)
    result = system.run(max_events=scenario.max_events)
    print(f"{scenario.label()}: runtime {result.runtime_ns:.0f} ns")
    print(profile.table())
    return 0


def _add_scenario_args(parser, with_protocol: bool = True) -> None:
    if with_protocol:
        parser.add_argument("--protocol", default="tokenb",
                            choices=ALL_PROTOCOLS)
    parser.add_argument("--interconnect", default=None, choices=INTERCONNECTS,
                        help="default: the protocol's canonical topology")
    parser.add_argument("--workload", default="false_sharing",
                        choices=EXPLORER_WORKLOADS, metavar="WORKLOAD",
                        help="an adversarial workload or phased program")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=40,
                        help="operations per processor")
    parser.add_argument("--n-procs", type=int, default=4,
                        help="processors (with --faults: the fault "
                             "scenario's count only)")
    parser.add_argument("--faults", default=None, choices=FAULT_KINDS,
                        help="schedule one fault class so its windows "
                             "render on the trace")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="Record, export, and compare simulation timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_export = sub.add_parser("export", help="record a run, write Chrome "
                                             "trace-event JSON")
    _add_scenario_args(p_export)
    p_export.add_argument("--out", default="trace.json")
    p_export.add_argument("--epoch-ns", type=float, default=100.0,
                          help="time-series sampling epoch (0 disables)")
    p_export.set_defaults(func=cmd_export)

    p_timeline = sub.add_parser("timeline", help="record a run, print a "
                                                 "text timeline")
    _add_scenario_args(p_timeline)
    p_timeline.add_argument("--limit", type=int, default=60)
    p_timeline.add_argument("--epoch-ns", type=float, default=None)
    p_timeline.set_defaults(func=cmd_timeline)

    p_diff = sub.add_parser("diff", help="trace two protocols on the same "
                                         "workload and compare")
    p_diff.add_argument("protocol_a", choices=ALL_PROTOCOLS)
    p_diff.add_argument("protocol_b", choices=ALL_PROTOCOLS)
    _add_scenario_args(p_diff, with_protocol=False)
    p_diff.set_defaults(func=cmd_diff)

    p_profile = sub.add_parser("profile", help="run under the kernel "
                                               "self-profiler, print the "
                                               "wall-time table")
    _add_scenario_args(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    args = parser.parse_args(argv)
    if getattr(args, "epoch_ns", None) == 0:
        args.epoch_ns = None
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
