"""Layer spans for the traced benchmark pass.

The traced pass wraps each layer's entry points *on their classes* (and
a few module-level functions), so the program under test is unchanged:
nothing in ``src/`` knows it is being traced.  Wrapping must happen
before a system is built, because ``ProtocolNode.__init__`` binds
``handle_message`` into the interconnect and ``TokenNodeBase`` hoists a
bound-method dispatch table.

Self time.  Every span pushes a child-time accumulator onto a stack; on
exit it charges ``duration - children`` to its own entry, adds its
duration to the parent's accumulator and counts itself as one of the
parent's child spans.  A layer's self time is the sum over its entries,
so the self times of all layers add up to the duration of the outermost
span (the benchmark pass).

Overhead.  A span costs time in two places: *inside* its measured
interval (the clock reads and the forwarded call) and *outside* it (the
wrapper's prologue and epilogue, which the parent measures).  The
harness measures the total per span on the workload itself;
:func:`inner_share` splits it, and :func:`self_times` takes each span's
inside cost off its own layer and each child span's outside cost off
the parent's.  What remains estimates what the layers cost untraced,
which the benchmark checks against untraced passes of the same run.

Calls that are too frequent and too cheap to span (cache lookups,
MSHRs, stats, the checker and the token ledger) are not wrapped: their
time stays with the layer that calls them, and the benchmark reads
their counts from the program's own state.  Heap pushes
(``Simulator.post``) are not wrapped either, so a push is charged to the
layer that posts; ``sim.self_s`` is pop and dispatch only.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

#: metric -> entry points that open a span of that layer.  An entry is
#: ``("package.module:Class", methods)`` or ``("package.module", functions)``.
#: Class entries also wrap every subclass that defines one of the methods
#: itself (walked at install time, so the overlay classes the explorer
#: derives at run time are covered once they exist); abstract methods are
#: skipped.  Module entries replace the module attribute, which reaches
#: every caller that looks the name up in that module at call time.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "sim.self_s": (("repro.sim.kernel:Simulator", ("run",)),),
    "interconnect.self_s": (
        (
            "repro.interconnect.topology:Interconnect",
            (
                "send",
                "broadcast",
                "_deliver",
                "_forward_unicast",
                "_multicast_arrive",
                "_unicast_at_in_switch",
                "_unicast_at_root",
                "_unicast_at_out_switch",
                "_broadcast_at_in_switch",
                "_broadcast_at_root",
                "_broadcast_at_out_switch",
                "_arrive_at_node",
            ),
        ),
    ),
    "coherence.self_s": (
        (
            "repro.coherence.controller:ProtocolNode",
            (
                "handle_message",
                "start_miss",
                # Callbacks the protocols post on the kernel heap.
                "_cache_respond",
                "_memory_respond",
                "_reissue_timer_fired",
                "_escalate",
                "_forward_respond",
                "_home_ack_count",
                "_home_forward",
                "_home_invalidate",
                "_home_memory_data",
                "_home_process_if_free",
                "_probe_respond",
                "_memory_send_data",
                "_send_data_now",
            ),
        ),
    ),
    "core.self_s": (
        (
            "repro.core.substrate:TokenNodeBase",
            (
                "send_tokens",
                "invoke_persistent_request",
                "_handle_tokens",
                "_handle_activation",
                "_handle_deactivation",
            ),
        ),
        (
            "repro.core.persistent:PersistentArbiter",
            (
                "handle_request",
                "handle_activation_ack",
                "handle_deactivate_request",
                "handle_deactivation_ack",
            ),
        ),
    ),
    "processor.self_s": (
        (
            "repro.processor.sequencer:Sequencer",
            ("_dispatch", "_after_l1", "_after_l2", "_miss_complete"),
        ),
    ),
    "workloads.gen_s": (
        ("repro.workloads.synthetic", ("generate_streams",)),
        ("repro.system.builder", ("generate_streams",)),
        ("repro.testing.explore", ("_generate_streams",)),
    ),
    "system.build_s": (("repro.system.builder:System", ("__init__",)),),
    "system.finish_s": (("repro.system.builder:System", ("finish",)),),
    "snapshot.capture_s": (
        ("repro.snapshot.capture:SimulatorSnapshot", ("capture",)),
    ),
    "snapshot.restore_s": (
        ("repro.snapshot.capture:SimulatorSnapshot", ("restore",)),
    ),
    "campaign.cases_s": (
        ("repro.campaign.presets", ("explorer_spec",)),
        ("repro.campaign.spec:CampaignSpec", ("cases",)),
    ),
    "campaign.missing_s": (("repro.campaign.store:CampaignStore", ("missing",)),),
    "campaign.load_s": (("repro.campaign.store:CampaignStore", ("load",)),),
    "campaign.append_s": (("repro.campaign.store:CampaignStore", ("append",)),),
    "campaign.compact_s": (("repro.campaign.store:CampaignStore", ("compact",)),),
    "campaign.execute_s": (("repro.campaign.transports", ("execute_case",)),),
    "campaign.schedule_s": (
        ("repro.campaign.scheduler:CampaignScheduler", ("run",)),
    ),
    "testing.scenario_s": (("repro.testing.explore", ("run_scenario",)),),
}

#: The pass itself: whatever no layer span covers is harness glue.
HARNESS = "harness.self_s"

#: Every self-time metric, in report order.  They add up to the pass.
SELF_METRICS = (*LAYERS, HARNESS)

#: Modules that define further subclasses of the layer classes; imported
#: before the subclass walk so every protocol and overlay is covered.
_SUBCLASS_MODULES = (
    "repro.core.null_protocol",
    "repro.core.tokenb",
    "repro.predict.tokend",
    "repro.predict.tokenm",
    "repro.protocols.directory",
    "repro.protocols.hammer",
    "repro.protocols.snooping",
    "repro.faults.inject",
    "repro.testing.perturb",
)

#: Program counts harvested around every ``Simulator.run`` (differences,
#: so a restored fork tail counts only its own work).
COUNT_NAMES = (
    "events",
    "scheduled",
    "crossings",
    "bytes",
    "ops",
    "l1_hits",
    "misses",
    "reissues",
    "persistent",
)


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


def _system_counts(sim, system) -> tuple:
    """The :data:`COUNT_NAMES` values of one system, right now."""
    if system is None:
        return (sim._events_fired, sim._seq, 0, 0, 0, 0, 0, 0, 0)
    traffic = system.traffic
    counters = system.counters
    sequencers = system.sequencers
    return (
        sim._events_fired,
        sim._seq,
        sum(traffic.crossings_by_category().values()),
        traffic.total_bytes(),
        sum(s.completed_ops for s in sequencers),
        sum(s.l1_hits for s in sequencers),
        counters.get("l2_miss"),
        counters.get("reissued_request"),
        counters.get("persistent_request"),
    )


class Tracer:
    """A span stack, the wrapped entry points, and the harvested counts."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: span name -> [calls, self seconds, metric, child spans]
        self.cells: dict[str, list] = {}
        #: Per open span: the time its children took, and its cell.  The
        #: bottom entries stand for whatever runs outside every span.
        self._times = [0.0]
        self._owners = [[0, 0.0, HARNESS, 0]]
        #: COUNT_NAMES -> total, plus generated ops and snapshot figures.
        self.counts: dict[str, int] = {}
        #: Simulator -> System, filled by the build and restore hooks.
        self._systems: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span arithmetic
    # ------------------------------------------------------------------

    def wrap(self, name: str, metric: str, fn, before=None, after=None):
        """``fn`` wrapped in a span charged to ``metric``.

        ``before(args)`` and ``after(args, result, token)`` (``token`` is
        what ``before`` returned) run outside the timed interval, so
        their cost lands in the parent's self time.  Without hooks the
        wrapper is the hot path, millions of calls a pass, and carries
        no hook checks.
        """
        cell = self.cells.setdefault(name, [0, 0.0, metric, 0])
        times = self._times
        owners = self._owners
        push, pop = times.append, times.pop
        enter, leave = owners.append, owners.pop
        clock = self.clock

        if before is None and after is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                push(0.0)
                enter(cell)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    leave()
                    cell[0] += 1
                    cell[1] += d - pop()
                    times[-1] += d
                    owners[-1][3] += 1

            return span

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            token = before(args) if before is not None else None
            push(0.0)
            enter(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                leave()
                cell[0] += 1
                cell[1] += d - pop()
                times[-1] += d
                owners[-1][3] += 1
            if after is not None:
                after(args, result, token)
            return result

        return hooked

    def snapshot(self) -> dict[str, tuple]:
        """The cells as they stand: name -> (calls, self s, metric, children)."""
        return {name: tuple(cell) for name, cell in self.cells.items()}

    def reset(self) -> None:
        """Zero every cell and count; keeps the installed wrappers."""
        for cell in self.cells.values():
            cell[0], cell[1], cell[3] = 0, 0.0, 0
        self.counts.clear()
        self._systems.clear()
        self._times[:] = [0.0]
        del self._owners[1:]

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap the entry points of :data:`LAYERS` (``only`` these metrics)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name in _SUBCLASS_MODULES:
            importlib.import_module(module_name)
        # The count hooks need the whole layer set; a partial install
        # (a timing probe) only times.
        hooks = self._hooks() if only is None else {}
        for metric, entries in LAYERS.items():
            if only is not None and metric not in only:
                continue
            for target, names in entries:
                owner = _resolve(target)
                if isinstance(owner, type):
                    for cls in _subclasses(owner):
                        for name in names:
                            self._patch_method(cls, name, metric, hooks)
                else:
                    for name in names:
                        fn = getattr(owner, name)
                        qualname = f"{owner.__name__}.{name}"
                        before, after = hooks.get(name, (None, None))
                        self._patch(
                            owner, name,
                            self.wrap(qualname, metric, fn, before, after),
                        )

    def _patch_method(self, cls: type, name: str, metric: str, hooks) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if getattr(fn, "__isabstractmethod__", False):
            return
        before, after = hooks.get(f"{cls.__name__}.{name}", (None, None))
        wrapped = self.wrap(f"{cls.__qualname__}.{name}", metric, fn,
                            before, after)
        self._patch(cls, name, kind(wrapped) if kind is not None else wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Count harvest
    # ------------------------------------------------------------------

    def _add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _hooks(self) -> dict:
        systems = self._systems

        def run_before(args):
            sim = args[0]
            return _system_counts(sim, systems.get(sim))

        def run_after(args, _result, before):
            sim = args[0]
            after = _system_counts(sim, systems.get(sim))
            for name, old, new in zip(COUNT_NAMES, before, after):
                self._add(name, new - old)

        # A system is registered from build (or restore) until it is
        # finished (or captured), so a traced pass keeps no more systems
        # alive than an untraced one.
        def built(args, _result, _token):
            system = args[0]
            systems[system.sim] = system

        def finished(args, _result, _token):
            systems.pop(args[0].sim, None)

        def restored(_args, result, _token):
            system = result[0] if isinstance(result, tuple) else result
            systems[system.sim] = system
            self._add("restores", 1)

        def captured(args, snapshot, _token):
            systems.pop(args[1].sim, None)
            self._add("snapshot_bytes", snapshot.size_bytes)
            self._add("warmup_events", snapshot.meta["events_fired"])

        def generated(_args, streams, _token):
            self._add("generated_ops", sum(len(ops) for ops in streams.values()))

        return {
            "Simulator.run": (run_before, run_after),
            "System.__init__": (None, built),
            "System.finish": (None, finished),
            "SimulatorSnapshot.restore": (None, restored),
            "SimulatorSnapshot.capture": (None, captured),
            "generate_streams": (None, generated),
            "_generate_streams": (None, generated),
        }


def self_times(snapshot: dict[str, tuple], inner_s: float = 0.0,
               outer_s: float = 0.0) -> dict[str, float]:
    """Self seconds per metric of :data:`SELF_METRICS`, tracing removed.

    Each span's ``inner_s`` comes off its own layer, and the ``outer_s``
    of each child span off its parent's layer.
    """
    totals = dict.fromkeys(SELF_METRICS, 0.0)
    for calls, self_s, metric, children in snapshot.values():
        totals[metric] += self_s - calls * inner_s - children * outer_s
    return totals


def inner_share(repeats: int = 5, n: int = 20_000) -> float:
    """The share of a span's cost that falls inside its own interval.

    Measured on a wrapped no-op: what the span records beyond the bare
    call, over everything the wrapper adds.
    """
    def noop(a, b):
        return None

    probe = Tracer()
    wrapped = probe.wrap("noop", HARNESS, noop)
    cell = probe.cells["noop"]
    loop = range(n)
    clock = time.perf_counter
    shares = []
    for _ in range(repeats):
        t0 = clock()
        for _ in loop:
            pass
        t_loop = clock() - t0
        t0 = clock()
        for _ in loop:
            noop(1, 2)
        t_bare = clock() - t0
        cell[1] = 0.0
        t0 = clock()
        for _ in loop:
            wrapped(1, 2)
        t_wrapped = clock() - t0
        inside = cell[1] - (t_bare - t_loop)
        shares.append(inside / (t_wrapped - t_bare))
    return min(max(statistics.median(shares), 0.0), 1.0)
