"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

One workload, one run (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/suite/run.py --workload figure-grid --seed 7 \\
        --seconds 20 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced (``--trace 0``), the per-layer metrics from
a traced run (``--trace 1``).  ``--detail PATH`` also writes the full
record (quartiles, samples, counts, digests, environment).

The whole suite, each workload untraced then traced, each in a fresh
interpreter, one after another::

    python3 benchmarks/suite/run.py --out results.json [--seed 42] \\
        [--workloads figure-grid,cache-hot] [--smoke] [--seconds 0]

Compare two suite results, and re-record the seed-42 digests::

    python3 benchmarks/suite/run.py compare BASE.json HEAD.json
    python3 benchmarks/suite/run.py record-reference

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
#: Stores and records the runs write; removed when a run ends.
WORK_ROOT = ROOT / ".bench_work"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    # Campaign keys must embed the real source fingerprint.
    os.environ.pop("REPRO_CAMPAIGN_FINGERPRINT", None)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"benchmark: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


class _WorkDir:
    """A private directory under ``.bench_work`` for one run."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        tempfile.tempdir = str(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _workload_names(value: str | None) -> list[str]:
    from workloads import WORKLOADS

    if value is None:
        return list(WORKLOADS)
    names = value.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; known: {list(WORKLOADS)}")
    return names


def run_one(args) -> int:
    import harness

    _workload_names(args.workload)
    with _WorkDir() as work_dir:
        record = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, work_dir,
        )
    for error in record["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(harness.contract_line(record)))
    return 0


def run_suite(args) -> int:
    names = _workload_names(args.workloads)
    results: dict = {"workloads": {}}
    with _WorkDir() as work_dir:
        for name in names:
            for trace in (0, 1):
                detail = work_dir / f"{name}-{trace}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--detail", str(detail),
                ] + (["--smoke"] if args.smoke else [])
                print(f"[suite] {name} {'traced' if trace else 'untraced'}",
                      file=sys.stderr, flush=True)
                subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
                record = json.loads(detail.read_text())
                results["workloads"].setdefault(name, {})[
                    "trace" if trace else "run"
                ] = record
    first = results["workloads"][names[0]]["run"]
    results = {"schema": first["schema"], "environment": first["environment"],
               **results}
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    _print_results(results)
    return 0 if all(
        record["failed"] == 0
        for runs in results["workloads"].values()
        for record in runs.values()
    ) else 1


def _print_results(results: dict) -> None:
    for name, runs in results["workloads"].items():
        for kind, record in runs.items():
            print(f"== {name} ({'traced' if kind == 'trace' else 'untraced'}): "
                  f"{record['failed']} of {record['attempted']} operations "
                  f"failed (failed_frac {record['failed_frac']:g})")
            for metric, summary in record["metrics"].items():
                spread = (
                    f" [{summary['q1']:.6g}, {summary['q3']:.6g}] "
                    f"n={summary['n']}" if "n" in summary else ""
                )
                print(f"  {metric:<34} {summary['value']:>14.6g} "
                      f"{summary['unit']:<5}{spread}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("head")
        args = parser.parse_args(argv[1:])
        return compare.main(args.base, args.head, BENCHMARK)

    _import_program()
    if argv[:1] == ["record-reference"]:
        import harness

        with _WorkDir() as work_dir:
            reference = harness.record_reference(work_dir)
        harness.REFERENCE.write_text(json.dumps(reference, indent=1,
                                                sort_keys=True) + "\n")
        print(f"wrote {harness.REFERENCE}")
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--out", help="run the suite; write all records here")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"],
                        help="measure at least this long, after the "
                        "workload's minimum pass count (default: "
                        "BENCHMARK.json's run_seconds; 0 for the minimum only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads, for tests")
    parser.add_argument("--detail", help="also write the full record here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
