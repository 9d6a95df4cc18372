"""The one measurement loop of the benchmark, and its JSON schema.

A run measures one workload at one seed, untraced or traced:

* **untraced**: one warm-up pass, then timed passes until the
  workload's minimum count is reached and ``seconds`` are spent; every
  end-to-end metric is reported as the median, quartiles and ``n`` of
  its per-pass values, each pass's times scaled to the host's nominal
  speed as ``hostspeed.py`` gauges it during that pass;
* **traced**: one warm-up pass, then pairs of one untraced and one
  traced pass (alternating which goes first, so drift cancels), each
  followed by a calibration pair on a smaller instance of the workload,
  until the workload's minimum pair count is reached and ``seconds``
  are spent.  Per-layer self times come from the fastest traced pass;
  ``trace.overhead_x`` and ``trace.reconcile_err`` compare it with the
  fastest untraced pass of the same run.

Every pass, warm-up included, is checked: a scenario whose digest
differs from ``reference.json`` (at the reference seed) or from the
run's first pass (at any other seed), an exception, a deadlock, an
oracle violation or a replay below a 100% hit counts as one failed
operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import spans
from workloads import WORKLOADS, PassResult

SCHEMA = "repro-bench/1"
SUITE_DIR = Path(__file__).resolve().parent
REFERENCE = SUITE_DIR / "reference.json"
#: reference.json holds the digests of this seed.
REFERENCE_SEED = 42

#: name -> unit of every end-to-end metric (reported untraced).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (reported by a traced run).
PER_LAYER = {
    "sim.events": "count",
    "sim.scheduled": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "interconnect.crossings": "count",
    "interconnect.bytes": "B",
    "interconnect.calls": "count",
    "interconnect.self_s": "s",
    "coherence.messages": "count",
    "coherence.misses": "count",
    "coherence.self_s": "s",
    "core.reissues": "count",
    "core.persistent": "count",
    "core.self_s": "s",
    "processor.ops": "count",
    "processor.self_s": "s",
    "cache.l1_hits": "count",
    "cache.l1_hit_ratio": "ratio",
    "workloads.gen_s": "s",
    "workloads.ops": "count",
    "system.build_s": "s",
    "system.finish_s": "s",
    "snapshot.capture_s": "s",
    "snapshot.restore_s": "s",
    "snapshot.restores": "count",
    "snapshot.bytes": "B",
    "snapshot.warmup_events": "count",
    "campaign.cases_s": "s",
    "campaign.missing_s": "s",
    "campaign.load_s": "s",
    "campaign.append_s": "s",
    "campaign.compact_s": "s",
    "campaign.execute_s": "s",
    "campaign.schedule_s": "s",
    "campaign.records": "count",
    "campaign.store_bytes": "B",
    "campaign.hit_ratio": "ratio",
    "campaign.replay_scenarios_per_s": "1/s",
    "testing.scenario_s": "s",
    "testing.violations": "count",
    "harness.self_s": "s",
    "trace.spans": "count",
    "trace.span_ns": "ns",
    "trace.overhead_x": "x",
    "trace.reconcile_err": "ratio",
}

#: Per-layer counts of simulated work: a change that keeps every
#: simulated result must keep these exactly.  (Span counts, snapshot and
#: store sizes and scheduled events may move with a refactor.)
DETERMINISTIC = (
    "sim.events",
    "interconnect.crossings",
    "interconnect.bytes",
    "coherence.messages",
    "coherence.misses",
    "core.reissues",
    "core.persistent",
    "processor.ops",
    "cache.l1_hits",
    "workloads.ops",
    "snapshot.restores",
    "snapshot.warmup_events",
    "campaign.records",
    "testing.violations",
)

clock = time.perf_counter


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def campaign_jobs() -> int:
    """Workers for the one parallel workload: at most 2, at most nproc."""
    return min(2, usable_cpus())


def bench_fingerprint() -> str:
    """Digest of the benchmark's own files (this directory)."""
    hasher = hashlib.sha256()
    for path in sorted(SUITE_DIR.rglob("*")):
        relative = path.relative_to(SUITE_DIR)
        if not path.is_file() or any(
            part.startswith(".") or part == "__pycache__"
            for part in relative.parts
        ):
            continue
        hasher.update(str(relative).encode() + b"\0" + path.read_bytes() + b"\0")
    return hasher.hexdigest()[:16]


def environment(seed: int, jobs: int, smoke: bool) -> dict:
    from repro.campaign.spec import code_fingerprint

    cpus = usable_cpus()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "usable_cpus": cpus,
        "code_fingerprint": code_fingerprint(),
        "bench_fingerprint": bench_fingerprint(),
        "seed": seed,
        "jobs": jobs,
        "smoke": smoke,
        # A scaling claim needs at least one usable CPU per worker.
        "oversubscribed": jobs > cpus,
    }


def summarize(values: list[float], unit: str) -> dict:
    """Median (the reported value), quartiles and count.

    The quartiles are the ones ``statistics.quantiles(values, n=4)``
    gives.
    """
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "unit": unit,
        "value": median,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


class _Checker:
    """Counts operations and failures across every pass of a run."""

    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.baseline: dict[str, str] | None = None
        self.attempted = 0
        self.errors: list[str] = []

    def __call__(self, result: PassResult, label: str) -> None:
        self.attempted += result.attempted
        self.errors.extend(f"{label}: {error}" for error in result.errors)
        if self.baseline is None:
            self.baseline = result.digests
        if self.reference is not None:
            expected, against = self.reference, "reference.json"
        else:
            expected, against = self.baseline, "the first pass"
        # A scenario without a digest failed, and its workload said so.
        for scenario, value in sorted(result.digests.items()):
            if expected.get(scenario) != value:
                self.errors.append(
                    f"{label}: {scenario}: digest {value} differs from "
                    f"{against} ({expected.get(scenario)})"
                )


def _pass(workload, checker: _Checker, label: str, tracer=None, gauge=None):
    """Run, time and check one pass; returns (wall seconds, PassResult).

    With a ``gauge`` the pass runs it between its units, and the wall
    time leaves out the time spent in it.
    """
    gc.collect()
    if tracer is None:
        t0 = clock()
        raw = workload.execute(gauge or hostspeed.no_gauge)
        wall = clock() - t0 - (gauge.spent if gauge else 0.0)
    else:
        tracer.reset()
        tracer.install()
        try:
            # The pass is the root span: what no layer covers is glue.
            execute = tracer.wrap("pass", spans.HARNESS, workload.execute)
            t0 = clock()
            raw = execute()
            wall = clock() - t0
        finally:
            tracer.uninstall()
    result = workload.check(raw)
    checker(result, label)
    return wall, result


def _repeat(run_one, minimum: int, seconds: float) -> None:
    """Call ``run_one`` at least ``minimum`` times and for ``seconds``.

    A further call starts only if the median call so far still fits in
    the budget, so a run ends close to ``seconds`` after it started.
    """
    durations: list[float] = []
    start = clock()
    while len(durations) < minimum or (
        clock() - start + statistics.median(durations) <= seconds
    ):
        t0 = clock()
        run_one()
        durations.append(clock() - t0)


def _record(workload, checker: _Checker, trace: bool, metrics: dict,
            counts: dict) -> dict:
    failed = len(checker.errors)
    return {
        "schema": SCHEMA,
        "workload": workload.name,
        "trace": trace,
        "environment": environment(workload.seed, workload.jobs,
                                   workload.smoke),
        "attempted": checker.attempted,
        "failed": failed,
        "failed_frac": failed / max(checker.attempted, 1),
        "errors": checker.errors[:50],
        "metrics": metrics,
        "counts": counts,
        "digests": checker.baseline or {},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float) -> dict:
    """An untraced run: the end-to-end metrics of ``workload``."""
    checker = _Checker(_reference_for(workload))
    _pass(workload, checker, "warm-up", gauge=hostspeed.Gauge())
    walls: list[float] = []
    results: list[PassResult] = []
    #: Per pass: the host's slowdown, by which its times are divided.
    slowdowns: list[float] = []

    def run_one():
        gauge = hostspeed.Gauge()
        wall, result = _pass(workload, checker, f"pass {len(walls) + 1}",
                             gauge=gauge)
        walls.append(wall)
        results.append(result)
        slowdowns.append(gauge.slowdown())

    _repeat(run_one, workload.passes, seconds)
    passes = list(zip(walls, results, slowdowns))
    metrics = {
        "wall_s": summarize([w / x for w, _, x in passes], "s"),
        "setup_s": summarize([r.setup_s / x for _, r, x in passes], "s"),
        "events_per_s": summarize(
            [r.events * x / r.busy_s for _, r, x in passes], "1/s"
        ),
        "scenarios_per_s": summarize(
            [r.scenarios * x / r.busy_s for _, r, x in passes], "1/s"
        ),
        "peak_rss_mb": summarize([peak_rss_mb()], "MB"),
        # Not scaled, and not end-to-end metrics: the raw wall time and
        # the slowdown it was scaled by, for the record.
        "host.wall_s": summarize(walls, "s"),
        "host.slowdown_x": summarize(slowdowns, "x"),
    }
    counts = {"events": results[-1].events, "scenarios": results[-1].scenarios}
    return _record(workload, checker, False, metrics, counts)


def _calibration_pairs(small, checker: _Checker, tracer, pairs: int,
                       walls: dict[bool, list[float]]) -> None:
    """Add ``pairs`` untraced/traced pairs of ``small`` to ``walls``."""
    for index in range(pairs):
        for traced in ((False, True) if index % 2 else (True, False)):
            label = f"calibration {'traced' if traced else 'untraced'} pass"
            wall, _ = _pass(small, checker, label, tracer if traced else None)
            walls[traced].append(wall)


def measure_traced(workload, seconds: float) -> dict:
    """A traced run: the per-layer metrics of ``workload``."""
    tracer = spans.Tracer()
    checker = _Checker(_reference_for(workload))
    # The warm-up also creates the overlay classes the explorer derives
    # at run time, so the tracer's subclass walk finds them.
    _pass(workload, checker, "warm-up")
    # What a span costs: a wrapped no-op underestimates it (wrapped call
    # sites lose CPython's call specialization, and the wrappers compete
    # for caches), and it depends on which entry points a workload calls
    # most.  So it is measured on a smaller instance of the same workload,
    # in pairs all through the run.
    small = type(workload)(seed=workload.seed, smoke=True, jobs=workload.jobs,
                           work_dir=workload.work_dir)
    small_checker = _Checker(None)
    _pass(small, small_checker, "calibration warm-up")
    small_walls: dict[bool, list[float]] = {False: [], True: []}
    _calibration_pairs(small, small_checker, tracer, 3, small_walls)
    small_spans = sum(cell[0] for cell in tracer.cells.values())
    untraced: list[tuple[float, PassResult]] = []
    traced: list[tuple[float, dict, dict]] = []

    def traced_pass():
        label = f"traced pass {len(traced) + 1}"
        wall, _ = _pass(workload, checker, label, tracer)
        traced.append((wall, tracer.snapshot(), dict(tracer.counts)))

    def untraced_pass():
        untraced.append(
            _pass(workload, checker, f"untraced pass {len(untraced) + 1}")
        )

    def pair():
        first, second = (
            (untraced_pass, traced_pass) if len(traced) % 2 == 0
            else (traced_pass, untraced_pass)
        )
        first()
        second()
        _calibration_pairs(small, small_checker, tracer, 1, small_walls)

    try:
        _repeat(pair, workload.trace_pairs, seconds)
    finally:
        small.close()
    checker.attempted += small_checker.attempted
    checker.errors.extend(small_checker.errors)

    _, cells, counts = traced[-1]
    calls = {name: cell[0] for name, cell in cells.items()}
    for index, (_, other_cells, other_counts) in enumerate(traced[:-1]):
        other_calls = {name: cell[0] for name, cell in other_cells.items()}
        if other_counts != counts or other_calls != calls:
            checker.errors.append(
                f"traced pass {index + 1}: span or program counts differ "
                "from the last traced pass"
            )
    # Host noise only ever adds time, and a run makes few pairs, too few
    # for a median to reject a disturbed pass: every comparison here is
    # between the fastest pass of each kind.
    span_s = (min(small_walls[True]) - min(small_walls[False])) / small_spans
    inner = span_s * spans.inner_share()
    traced_wall, cells, _ = min(traced, key=lambda item: item[0])
    self_s = spans.self_times(cells, inner, span_s - inner)
    untraced_wall = min(wall for wall, _ in untraced)
    corrected = sum(self_s.values())
    per_layer = _per_layer(
        self_s, counts, calls,
        last=untraced[-1][1],
        replay=[s for _, r in untraced for s in r.extra.get("replay_s", ())],
    )
    per_layer["trace.span_ns"] = span_s * 1e9
    per_layer["trace.overhead_x"] = traced_wall / untraced_wall
    per_layer["trace.reconcile_err"] = abs(corrected - untraced_wall) / untraced_wall
    metrics = {
        name: {"unit": PER_LAYER[name], "value": value}
        for name, value in per_layer.items()
    }
    metrics["trace.untraced_wall_s"] = summarize(
        [wall for wall, _ in untraced], "s"
    )
    metrics["trace.traced_wall_s"] = summarize(
        [wall for wall, _, _ in traced], "s"
    )
    return _record(workload, checker, True, metrics,
                   {name: per_layer[name] for name in DETERMINISTIC})


def _calls(calls: dict[str, int], *methods: str) -> int:
    """Spans opened by entry points with one of these method names."""
    return sum(
        count for name, count in calls.items()
        if name.rpartition(".")[2] in methods
    )


def _per_layer(self_s, counts, calls, last: PassResult, replay) -> dict:
    events = counts.get("events", 0)
    ops = counts.get("ops", 0)
    extra = last.extra
    values = {
        "sim.events": events,
        "sim.scheduled": counts.get("scheduled", 0),
        "sim.ns_per_event": self_s["sim.self_s"] / events * 1e9 if events else 0.0,
        "interconnect.crossings": counts.get("crossings", 0),
        "interconnect.bytes": counts.get("bytes", 0),
        "interconnect.calls": _calls(calls, "send", "broadcast"),
        "coherence.messages": _calls(calls, "handle_message"),
        "coherence.misses": counts.get("misses", 0),
        "core.reissues": counts.get("reissues", 0),
        "core.persistent": counts.get("persistent", 0),
        "processor.ops": ops,
        "cache.l1_hits": counts.get("l1_hits", 0),
        "cache.l1_hit_ratio": counts.get("l1_hits", 0) / ops if ops else 0.0,
        "workloads.ops": counts.get("generated_ops", 0),
        "snapshot.restores": counts.get("restores", 0),
        "snapshot.bytes": counts.get("snapshot_bytes", 0),
        "snapshot.warmup_events": counts.get("warmup_events", 0),
        "campaign.records": extra.get("records", 0),
        "campaign.store_bytes": extra.get("store_bytes", 0),
        "campaign.hit_ratio": extra.get("hit_ratio", 0.0),
        "campaign.replay_scenarios_per_s": (
            last.scenarios / statistics.median(replay) if replay else 0.0
        ),
        "testing.violations": extra.get("violations", 0),
        "trace.spans": sum(calls.values()),
    }
    values.update(self_s)
    return {name: values[name] for name in PER_LAYER if name in values}


def _reference_for(workload) -> dict[str, str] | None:
    """The digests this run must reproduce, if reference.json has them."""
    if workload.smoke or workload.seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload.name)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        work_dir: Path) -> dict:
    """Measure one workload; the record the run writes and prints."""
    # Spans live in this process only, so a traced campaign runs serially.
    jobs = 1 if trace else campaign_jobs()
    workload = WORKLOADS[name](seed=seed, smoke=smoke, jobs=jobs,
                               work_dir=work_dir)
    try:
        if trace:
            return measure_traced(workload, seconds)
        return measure(workload, seconds)
    finally:
        workload.close()


def contract_line(record: dict) -> dict:
    """The one-line result: correct, attempted, failed and the metrics."""
    names = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {
                "value": record["metrics"][name]["value"],
                "unit": record["metrics"][name]["unit"],
            }
            for name in names
        },
    }


def record_reference(work_dir: Path) -> dict:
    """One pass of every workload at the reference seed: its digests."""
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls(seed=REFERENCE_SEED, smoke=False, jobs=campaign_jobs(),
                       work_dir=work_dir)
        try:
            result = workload.check(workload.execute())
        finally:
            workload.close()
        if result.errors:
            raise RuntimeError(f"{name}: {result.errors[:3]}")
        digests[name] = result.digests
        print(f"{name}: {len(result.digests)} digests", file=sys.stderr)
    return {"seed": REFERENCE_SEED, "workloads": digests}
