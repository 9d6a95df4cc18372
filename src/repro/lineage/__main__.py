"""Custody query CLI.

Record a store, then ask it questions::

    python -m repro.lineage record --protocol tokenb --seed 3 \
        --store .lineage_store
    python -m repro.lineage "where was block 0x40's owner token at t=4200?"

A bare question is a query against the default store
(``.lineage_store``); the ``record`` subcommand runs one explorer
scenario with the recorder armed and writes the indexed store.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import INTERCONNECTS
from repro.faults import FAULT_KINDS
from repro.system.grid import interconnect_for, is_token_protocol
from repro.testing.explore import (
    EXPLORER_WORKLOADS,
    _armed_system,
    _finish_scenario,
    make_fault_scenario,
    make_scenario,
)

DEFAULT_STORE = ".lineage_store"


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.lineage",
        description="Token custody store: record runs, query chains.",
    )
    sub = parser.add_subparsers(dest="command")

    rec = sub.add_parser("record", help="run one scenario, write a store")
    rec.add_argument("--protocol", default="tokenb")
    rec.add_argument("--interconnect", default=None, choices=INTERCONNECTS,
                     help="default: the protocol's canonical topology")
    rec.add_argument("--workload", default="false_sharing",
                     choices=EXPLORER_WORKLOADS, metavar="WORKLOAD",
                     help="an adversarial workload or phased program")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--fault-class", default=None, choices=FAULT_KINDS,
                     help="schedule fault windows of this class")
    rec.add_argument("--store", default=DEFAULT_STORE)

    qry = sub.add_parser("query", help="ask a recorded store")
    qry.add_argument("question")
    qry.add_argument("--store", default=DEFAULT_STORE)

    # Bare `python -m repro.lineage "where was ..."` is a query.
    if argv and argv[0] not in ("record", "query", "-h", "--help"):
        argv = ["query", *argv]
    return parser.parse_args(argv)


def _cmd_record(args) -> int:
    from repro.lineage.store import LineageStore

    if not is_token_protocol(args.protocol):
        print(f"error: {args.protocol!r} is not a token protocol — "
              "custody chains only exist for token coherence",
              file=sys.stderr)
        return 2
    interconnect = args.interconnect or interconnect_for(args.protocol)
    if args.fault_class is not None:
        scenario = make_fault_scenario(
            args.seed, args.protocol, interconnect, args.fault_class,
            workload=args.workload,
        )
    else:
        scenario = make_scenario(
            args.seed, args.protocol, interconnect, args.workload
        )
    system = _armed_system(scenario)
    system.start()
    outcome = _finish_scenario(scenario, system)
    recorder = system.lineage
    store = LineageStore.write(recorder, args.store)
    stats = recorder.stats()
    print(f"recorded: {scenario.label()}")
    print(f"  {stats['lineage_events']} events, "
          f"{stats['lineage_transfers']} transfers, "
          f"{stats['lineage_blocks']} blocks, "
          f"{stats['lineage_terminals']} terminal outcomes "
          f"({stats['lineage_absorbed_reissues']} absorbed-by-reissue)")
    print(f"  store -> {store.root}")
    if not outcome.ok:
        print(f"  VIOLATION {outcome.violation_type}: "
              f"{outcome.violation_message}")
        return 1
    return 0


def _cmd_query(args) -> int:
    from repro.lineage.query import answer
    from repro.lineage.store import LineageStore

    try:
        store = LineageStore(args.store)
    except FileNotFoundError:
        print(f"error: no custody store at {args.store!r} — record one "
              "with `python -m repro.lineage record`", file=sys.stderr)
        return 2
    try:
        print(answer(store, args.question))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "query":
        return _cmd_query(args)
    print("usage: python -m repro.lineage [record|query] ... "
          "(or a bare question)", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
