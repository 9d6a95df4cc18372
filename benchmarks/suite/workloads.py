"""The benchmark's four workloads.

Each workload is one closed loop from one client: a pass is issued only
after the previous one has finished.  A workload object is built for one
seed and exposes

* ``execute(gauge)``: one pass, the part the harness times.  It returns
  the raw outputs plus the timings it took inside the pass (set-up, and
  the busy time that rates are computed over), and calls ``gauge``
  before each unit of the pass and once after the last, outside every
  timing (see ``hostspeed.py``);
* ``check(raw)``: everything that turns the raw outputs into a
  :class:`PassResult` — digests, oracle verdicts, replay hit ratios —
  kept out of the timed region.

The program is only ever called through its public entry points
(``generate_streams``, ``build_system``, ``fork_family``,
``run_campaign``); every number is taken from outside.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.campaign import presets
from repro.campaign.runner import run_campaign
from repro.campaign.store import CampaignStore
from repro.config import SystemConfig
from repro.snapshot.fork import ProgramFamily, demo_family, fork_family
from repro.system import builder
from repro.workloads import COMMERCIAL_WORKLOADS, synthetic

import spans
from hostspeed import no_gauge

clock = time.perf_counter

#: The fields of a SimulationResult that the correctness digest covers.
RESULT_FIELDS = (
    "events_fired",
    "runtime_ns",
    "counters",
    "traffic_bytes",
    "per_proc_finish_ns",
)

#: The fields of an explorer ScenarioOutcome that its digest covers.
OUTCOME_FIELDS = (
    "ok",
    "violation_type",
    "total_ops",
    "events_fired",
    "persistent_requests",
    "reissued_requests",
    "runtime_ns",
    "traffic_bytes",
)


def digest(document) -> str:
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    return digest({name: getattr(result, name) for name in RESULT_FIELDS})


@dataclasses.dataclass
class PassResult:
    """One checked pass."""

    setup_s: float
    #: The time ``events`` and ``scenarios`` are rated over.
    busy_s: float
    events: int
    scenarios: int
    #: scenario label -> digest of its simulated outputs
    digests: dict[str, str]
    #: One entry per failed operation.
    errors: list[str]
    #: Operations checked: scenarios, plus replays where there are any.
    attempted: int
    #: Workload-specific figures (replay times, store size, ...).
    extra: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    #: Timed passes at least, after one warm-up pass (more if the run's
    #: ``--seconds`` allow).
    passes = 3
    #: Traced/untraced pass pairs at least, in a traced run.
    trace_pairs = 2

    def __init__(self, seed: int, smoke: bool, jobs: int, work_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.jobs = jobs
        self.work_dir = work_dir

    def execute(self, gauge=no_gauge):
        raise NotImplementedError

    def check(self, raw) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds between passes."""


# ----------------------------------------------------------------------
# Simulate-only workloads
# ----------------------------------------------------------------------


class _SimulateWorkload(Workload):
    """A serial list of (label, WorkloadSpec, SystemConfig kwargs) runs.

    The config's seed is the workload's unless the kwargs name one.
    """

    def configs(self) -> list[tuple[str, synthetic.WorkloadSpec, dict]]:
        raise NotImplementedError

    def execute(self, gauge=no_gauge):
        outputs = []
        setup = busy = 0.0
        for label, spec, config_kwargs in self.configs():
            gauge()
            config = SystemConfig(n_procs=16, **{"seed": self.seed,
                                                 **config_kwargs})
            t0 = clock()
            try:
                streams = synthetic.generate_streams(
                    spec, config.n_procs, config.seed, config.block_bytes
                )
                system = builder.build_system(
                    config,
                    streams,
                    workload_name=spec.name,
                    ops_per_transaction=spec.ops_per_transaction,
                )
                t1 = clock()
                result = system.run()
                t2 = clock()
            except Exception as exc:  # noqa: BLE001 — counted as a failed run
                outputs.append((label, f"{type(exc).__name__}: {exc}"))
                continue
            setup += t1 - t0
            busy += t2 - t1
            outputs.append((label, result))
        gauge()
        return setup, busy, outputs

    def check(self, raw) -> PassResult:
        setup, busy, outputs = raw
        digests, errors, events = {}, [], 0
        for label, result in outputs:
            if isinstance(result, str):
                errors.append(f"{label}: {result}")
                continue
            digests[label] = result_digest(result)
            events += result.events_fired
        return PassResult(
            setup_s=setup,
            busy_s=busy,
            events=events,
            scenarios=len(outputs),
            digests=digests,
            errors=errors,
            attempted=len(outputs),
        )


def _on_default_interconnect(protocol: str, **extra) -> dict:
    from repro.system.grid import interconnect_for

    return dict(protocol=protocol, interconnect=interconnect_for(protocol), **extra)


class FigureGrid(_SimulateWorkload):
    """The six engine configs of the figure grid, 16 procs each."""

    name = "figure-grid"
    trace_pairs = 2

    def configs(self):
        ops = 60 if self.smoke else 400
        apache = COMMERCIAL_WORKLOADS["apache"].scaled(ops)
        oltp = COMMERCIAL_WORKLOADS["oltp"].scaled(ops)
        return [
            ("tokenb/torus", apache, _on_default_interconnect("tokenb")),
            (
                "tokenb/torus-unlim",
                apache,
                _on_default_interconnect(
                    "tokenb", link_bandwidth_bytes_per_ns=None
                ),
            ),
            ("tokenb/tree", apache, dict(protocol="tokenb", interconnect="tree")),
            ("snooping/tree", apache, _on_default_interconnect("snooping")),
            ("directory/torus", apache, _on_default_interconnect("directory")),
            ("hammer/oltp-torus", oltp, _on_default_interconnect("hammer")),
        ]


class CacheHot(_SimulateWorkload):
    """A high-locality spec: ~87% of ops hit in the L1.

    Each protocol runs at three seeds derived from the workload's: how
    much work one seed makes varies by 6.5% from seed to seed (the
    interquartile range over ten), the sum of three by 2%.
    """

    name = "cache-hot"
    passes = 5
    trace_pairs = 3
    subseeds = 3

    def configs(self):
        spec = synthetic.WorkloadSpec(
            "cache_hot",
            ops_per_proc=200 if self.smoke else 1000,
            migratory_weight=0.0,
            producer_consumer_weight=0.0,
            read_mostly_weight=0.2,
            private_weight=0.8,
            streaming_weight=0.0,
            n_private_blocks=24,
            n_read_mostly_blocks=32,
        )
        return [
            (f"{protocol}/torus/seed{seed}", spec,
             _on_default_interconnect(protocol, seed=seed))
            for seed in range(self.subseeds * self.seed,
                              self.subseeds * (self.seed + 1))
            for protocol in ("tokenb", "directory")
        ]


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------


class CampaignExplore(Workload):
    """The explorer campaign into a fresh store, then warm replays.

    The cold run goes one explorer seed at a time (78 scenarios each,
    the store compacted once, after the last), so that the host can be
    gauged between them.
    """

    name = "campaign-explore"
    trace_pairs = 1
    replays = 4

    def explorer_seeds(self) -> int:
        return 1 if self.smoke else 8

    def execute(self, gauge=no_gauge):
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.work_dir))
        try:
            gauge()
            t0 = clock()
            spec = presets.explorer_spec(
                seeds=self.explorer_seeds(), seed_base=self.seed
            )
            cases = spec.cases()
            store = CampaignStore(root)
            store.load()
            setup = clock() - t0
            by_seed: dict[int, list] = {}
            for case in cases:
                by_seed.setdefault(case.params["seed"], []).append(case)
            cold, failures = 0.0, []
            for index, group in enumerate(by_seed.values()):
                if index:
                    gauge()
                t1 = clock()
                report = run_campaign(group, store, jobs=self.jobs,
                                      compact=index == len(by_seed) - 1)
                cold += clock() - t1
                failures += report.failures
            records = store.records()
            store_bytes = sum(path.stat().st_size for path in root.iterdir())
            gauge()
            replays = []
            for _ in range(self.replays):
                t3 = clock()
                replay = run_campaign(cases, CampaignStore(root), jobs=self.jobs)
                replays.append((clock() - t3, replay))
            gauge()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return setup, cold, cases, failures, records, store_bytes, replays

    def check(self, raw) -> PassResult:
        setup, cold, cases, failures, records, store_bytes, replays = raw
        errors = [f"{f['key'][:12]}: {f['error']}" for f in failures]
        digests, events, violations = {}, 0, 0
        for record in records:
            outcome = record["result"]
            params = record["params"]
            label = "/".join(
                str(params[k])
                for k in ("seed", "protocol", "interconnect", "workload")
            )
            digests[label] = digest({k: outcome[k] for k in OUTCOME_FIELDS})
            events += outcome["events_fired"]
            if not outcome["ok"]:
                violations += 1
                errors.append(
                    f"{label}: {outcome['violation_type']}: "
                    f"{outcome['violation_message']}"
                )
        if len(records) != len(cases):
            errors.append(f"store holds {len(records)} of {len(cases)} records")
        hits = 0
        for index, (_seconds, replay) in enumerate(replays):
            hits += replay.cached
            if replay.cached != len(cases) or replay.failures:
                errors.append(
                    f"replay {index}: {replay.cached} of {len(cases)} cached"
                )
        return PassResult(
            setup_s=setup,
            busy_s=cold,
            events=events,
            scenarios=len(cases),
            digests=digests,
            errors=errors,
            attempted=len(cases) + len(replays),
            extra={
                "replay_s": [seconds for seconds, _ in replays],
                "records": len(records),
                "store_bytes": store_bytes,
                "hit_ratio": hits / (len(cases) * len(replays)),
                "violations": violations,
            },
        )


# ----------------------------------------------------------------------
# Snapshot / fork
# ----------------------------------------------------------------------


class ForkFamily(Workload):
    """Warm up once per protocol, fork eight tails from the snapshot."""

    name = "fork-family"
    trace_pairs = 2
    protocols = ("tokenb", "directory", "tokenm")

    def __init__(self, seed, smoke, jobs, work_dir):
        super().__init__(seed, smoke, jobs, work_dir)
        warmup_ops, tail_ops = (200, 20) if smoke else (1600, 40)
        # demo_family offers four tails; the same four at twice the
        # length make the eight.
        short = demo_family(warmup_ops=warmup_ops, tail_ops=tail_ops, n_tails=4)
        long = demo_family(
            warmup_ops=warmup_ops, tail_ops=2 * tail_ops, n_tails=4,
            name="demo2x",
        )
        self.family = ProgramFamily(
            name="bench",
            warmup=short.warmup,
            tails={
                **short.tails,
                **{f"{name}-2x": tail for name, tail in long.tails.items()},
            },
        )
        # System builds happen inside fork_family: a probe on
        # System.__init__ is the only way to time set-up from outside.
        self.probe = spans.Tracer()
        self.probe.install(only=("system.build_s",))

    def execute(self, gauge=no_gauge):
        self.probe.reset()
        outputs = []
        total = 0.0
        for protocol in self.protocols:
            gauge()
            config = SystemConfig(
                protocol=protocol, interconnect="torus", n_procs=8,
                seed=self.seed,
            )
            t0 = clock()
            try:
                results, stats = fork_family(config, self.family)
            except Exception as exc:  # noqa: BLE001 — counted as a failed run
                outputs.append((protocol, f"{type(exc).__name__}: {exc}"))
                continue
            total += clock() - t0
            outputs.append((protocol, (results, stats)))
        gauge()
        setup = spans.self_times(self.probe.snapshot())["system.build_s"]
        return setup, total - setup, outputs

    def check(self, raw) -> PassResult:
        setup, busy, outputs = raw
        digests, errors, events, tails = {}, [], 0, 0
        for protocol, output in outputs:
            if isinstance(output, str):
                # A family that fails takes its warmup and tails with it.
                errors.extend(
                    f"{protocol}/torus/{part}: {output}"
                    for part in ("warmup", *self.family.tails)
                )
                continue
            results, stats = output
            warmup = stats["warmup_events"]
            digests[f"{protocol}/torus/warmup"] = digest(
                {"events": warmup, "t": stats["warmup_t"]}
            )
            events += warmup
            for tail, result in results.items():
                digests[f"{protocol}/torus/{tail}"] = result_digest(result)
                events += result.events_fired - warmup
                tails += 1
        return PassResult(
            setup_s=setup,
            busy_s=busy,
            events=events,
            scenarios=tails,
            digests=digests,
            errors=errors,
            attempted=len(outputs) * (1 + len(self.family.tails)),
        )

    def close(self) -> None:
        self.probe.uninstall()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FigureGrid, CacheHot, CampaignExplore, ForkFamily)
}
