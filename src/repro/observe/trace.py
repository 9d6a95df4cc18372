"""The trace recorders: what an armed run writes down.

:class:`TraceRecorder`, the default, keeps online only what its
:meth:`~TraceRecorder.summary` reports, so its memory does not grow with
the run:

* send, delivery, closed-miss-span and per-name mark counts;
* link crossings, read off the system's traffic meter (its crossings
  since install), so summary tracing arms no link hook and the network
  keeps its stock fast paths;
* exact per-miss latency (recorded by the sequencer hook) in a
  mergeable :class:`~repro.sim.stats.Histogram`;
* kernel queue depth at each delivery, as a count per depth;
  :attr:`~TraceRecorder.queue_depth` bins it into a ``Histogram`` when
  read (depths are integers, so the buckets, sum and max equal those of
  recording every sample);
* ``fault_windows``: ``(t_start, t_end, kind, target)``, copied from the
  scenario's :class:`~repro.faults.FaultPlan` at install time;
* ``timeseries``: epoch-aligned samples of the cumulative counters, so
  reports can plot traffic and misses over *simulated* time.  Samples
  are taken inside the delivery hook at the first delivery at-or-after
  each epoch boundary — never via kernel events, so arming the sampler
  cannot change ``events_fired``.

:class:`TimelineRecorder` also keeps the raw timeline the exporters
render (:mod:`repro.observe.export`), as flat tuples in per-kind lists
— the cheapest thing a hook can append — interpreted only at export
time:

* ``sends``:         ``(t, node, msg_id, label, dst, size_bytes)``
* ``delivers``:      ``(t, node, msg_id, label)``
* ``hops``:          ``(t_start, t_end, link_name, category, size_bytes)``
  — one serialization-slot occupancy per link crossing (``t_end`` is
  when the slot frees; propagation latency is not part of the span),
  recorded by an ``on_hop`` hook on every link.
* ``miss_spans``:    ``(t_start, t_end, node, block, kind)`` with
  ``kind`` in ``{"load", "store"}`` — MSHR allocate to release.
* ``marks``:         ``(t, node, name, block)`` — protocol instants
  (persistent-request escalation/activation, reissue broadcasts).

Its counts, and so its summary, are the default recorder's.
"""

from __future__ import annotations

from collections import defaultdict

from repro.sim.stats import Histogram

#: Keys of one ``timeseries`` sample, in tuple order.
TIMESERIES_FIELDS = (
    "t_ns",
    "traffic_bytes",
    "l2_misses",
    "persistent_requests",
    "reissued_requests",
    "deliveries",
)


class TraceRecorder:
    """Counts one run's telemetry; see the module docstring."""

    def __init__(self, epoch_ns: float | None = None) -> None:
        if epoch_ns is not None and epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive, got {epoch_ns}")
        self.send_count = 0
        self.delivery_count = 0
        self.miss_span_count = 0
        self._mark_counts: dict[str, int] = {}
        self._depth_counts: defaultdict[int, int] = defaultdict(int)
        self.fault_windows: list[tuple] = []
        self.miss_latency = Histogram()
        self.timeseries: list[tuple] = []
        self.epoch_ns = epoch_ns
        self._next_epoch = epoch_ns if epoch_ns is not None else None
        self._open_misses: dict[tuple[int, int], tuple[float, str]] = {}
        self.n_nodes = 0
        self.meta: dict = {}
        self._system = None
        self._crossings_at_bind = 0

    # ------------------------------------------------------------------
    # Installation plumbing
    # ------------------------------------------------------------------

    def bind(self, system) -> None:
        """Attach run metadata; called once by ``install_tracing``."""
        self._system = system
        self._crossings_at_bind = self._crossings()
        self.n_nodes = system.config.n_procs
        self.meta = {
            "protocol": system.config.protocol,
            "interconnect": system.config.interconnect,
            "n_procs": system.config.n_procs,
            "workload": system.workload_name,
        }

    def note_fault_windows(self, plan) -> None:
        for event in plan.events:
            self.fault_windows.append(
                (event.start_ns, event.start_ns + event.duration_ns,
                 event.kind, event.target)
            )

    # ------------------------------------------------------------------
    # Hook entry points (hot path: counts only)
    # ------------------------------------------------------------------

    def sent(self, t: float, node: int, msg) -> None:
        self.send_count += 1

    def delivered(self, t: float, node: int, msg, depth: int) -> None:
        """One delivery, with the kernel queue depth it saw."""
        self.delivery_count += 1
        self._depth_counts[depth] += 1

    def miss_started(
        self, t: float, node: int, block: int, for_write: bool
    ) -> None:
        self._open_misses[(node, block)] = (t, "store" if for_write else "load")

    def miss_finished(self, t: float, node: int, block: int):
        """Close ``node``'s miss on ``block``; returns its ``(start, kind)``
        if one was open."""
        opened = self._open_misses.pop((node, block), None)
        if opened is not None:
            self.miss_span_count += 1
        return opened

    def mark(self, t: float, node: int, name: str, block: int) -> None:
        counts = self._mark_counts
        counts[name] = counts.get(name, 0) + 1

    def sample_clock(self, now: float) -> None:
        """Epoch time series: one sample per elapsed epoch boundary.

        Called from the delivery hook, so samples land at the first
        delivery at-or-after each boundary; a quiet stretch spanning
        several epochs yields one (cumulative) sample per boundary, all
        carrying the state observed at that first delivery.
        """
        boundary = self._next_epoch
        if boundary is None or now < boundary:
            return
        system = self._system
        traffic = system.traffic.total_bytes()
        counters = system.counters
        misses = counters.get("l2_miss")
        persistent = counters.get("persistent_request")
        reissued = counters.get("reissued_request")
        deliveries = self.delivery_count
        epoch = self.epoch_ns
        while boundary <= now:
            self.timeseries.append(
                (boundary, traffic, misses, persistent, reissued, deliveries)
            )
            boundary += epoch
        self._next_epoch = boundary

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _crossings(self) -> int:
        if self._system is None:
            return 0
        return sum(self._system.traffic.crossings_by_category().values())

    def hop_count(self) -> int:
        """Link crossings since install, off the system's traffic meter."""
        return self._crossings() - self._crossings_at_bind

    @property
    def queue_depth(self) -> Histogram:
        """Kernel queue depth at each delivery, binned when read."""
        hist = Histogram()
        for depth, count in sorted(self._depth_counts.items()):
            hist.record(depth, count)
        return hist

    def open_miss_count(self) -> int:
        """Miss spans opened but never closed (0 after a clean run)."""
        return len(self._open_misses)

    def mark_counts(self) -> dict[str, int]:
        return dict(sorted(self._mark_counts.items()))

    def timeseries_dicts(self) -> list[dict]:
        return [dict(zip(TIMESERIES_FIELDS, row)) for row in self.timeseries]

    def summary(self) -> dict:
        """JSON-safe telemetry digest attached to scenario outcomes.

        ``miss_latency_hist`` carries the full bucket state so campaign
        shards can :meth:`~repro.sim.stats.Histogram.merge` per-scenario
        distributions into one.
        """
        return {
            "sends": self.send_count,
            "delivers": self.delivery_count,
            "hops": self.hop_count(),
            "miss_spans": self.miss_span_count,
            "open_misses": self.open_miss_count(),
            "marks": self.mark_counts(),
            "fault_windows": len(self.fault_windows),
            "miss_latency": self.miss_latency.percentiles(),
            "miss_latency_hist": self.miss_latency.to_dict(),
            "queue_depth": self.queue_depth.percentiles(),
            "timeseries_samples": len(self.timeseries),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(sends={self.send_count}, "
            f"delivers={self.delivery_count}, hops={self.hop_count()}, "
            f"miss_spans={self.miss_span_count})"
        )


class TimelineRecorder(TraceRecorder):
    """Also keeps the raw timeline; see the module docstring.

    Arming it hooks every link (``on_hop``), which moves the torus onto
    its per-hop fan-out, and its lists grow with the run: it is for
    rendering one run, not for campaigns.
    """

    def __init__(self, epoch_ns: float | None = None) -> None:
        super().__init__(epoch_ns)
        self.sends: list[tuple] = []
        self.delivers: list[tuple] = []
        self.hops: list[tuple] = []
        self.miss_spans: list[tuple] = []
        self.marks: list[tuple] = []

    @staticmethod
    def _label(msg) -> str:
        """Coherence messages show their mtype; raw messages the category."""
        return getattr(msg, "mtype", None) or msg.category

    def sent(self, t: float, node: int, msg) -> None:
        super().sent(t, node, msg)
        self.sends.append(
            (t, node, msg.msg_id, self._label(msg), msg.dst, msg.size_bytes)
        )

    def delivered(self, t: float, node: int, msg, depth: int) -> None:
        super().delivered(t, node, msg, depth)
        self.delivers.append((t, node, msg.msg_id, self._label(msg)))

    def hop(
        self, start: float, end: float, link: str, category: str, size: int
    ) -> None:
        self.hops.append((start, end, link, category, size))

    def miss_finished(self, t: float, node: int, block: int):
        opened = super().miss_finished(t, node, block)
        if opened is not None:
            start, kind = opened
            self.miss_spans.append((start, t, node, block, kind))
        return opened

    def mark(self, t: float, node: int, name: str, block: int) -> None:
        super().mark(t, node, name, block)
        self.marks.append((t, node, name, block))
