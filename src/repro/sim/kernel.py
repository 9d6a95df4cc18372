"""Deterministic discrete-event simulation kernel.

Every timed behaviour in the simulator — link traversal, cache lookup,
DRAM access, protocol timeout — is an entry on a single binary heap.  The
kernel is intentionally minimal: components schedule plain callbacks, and
determinism comes from the ``(time, seq)`` ordering contract rather than
from any framework machinery.

Two scheduling paths share one heap and one ``seq`` counter:

* :meth:`Simulator.post` / :meth:`Simulator.post_at` — the fire-and-forget
  fast path.  The heap holds a raw ``(time, seq, callback, args)`` tuple,
  so ordering is a C-level float/int comparison (``seq`` is unique, so the
  comparison never reaches the callback) and no handle object is built.
  This is what the interconnect and protocol hot paths use.
* :meth:`Simulator.schedule` — the cancellable path.  It returns an
  :class:`~repro.sim.events.Event` handle (used for protocol timeout
  timers) carried as ``(time, seq, event, None)``.

Cancelled events stay in the heap until popped; when the cancelled
fraction grows large the kernel compacts the heap in place.  Compaction
re-heapifies on the same ``(time, seq)`` keys, so pop order — and thus
the simulation — is unchanged.

Example:
    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable

from repro.sim.events import Event

#: Compact the heap only once at least this many cancellations are pending
#: (avoids churn on tiny heaps) …
_COMPACT_MIN_CANCELLED = 64
#: … and only when cancelled entries outnumber this fraction of the heap.
_COMPACT_FRACTION = 0.5


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """A single-clock discrete-event simulator.

    Time is a float in nanoseconds (the target machine runs at 1 GHz, so
    1 ns is also 1 processor cycle).  The kernel guarantees:

    * events fire in nondecreasing time order;
    * events scheduled for the same instant fire in scheduling order;
    * ``now`` never moves backwards.
    """

    __slots__ = (
        "_heap",
        "_now",
        "_seq",
        "_events_fired",
        "_running",
        "_cancelled_pending",
        # Reserved for the adversarial-testing perturbation layer
        # (repro.testing.perturb).  The base class never reads or writes
        # it, so the hot path is unchanged; having the slot here lets a
        # perturbing subclass with ``__slots__ = ()`` be installed by
        # ``__class__`` reassignment on a live simulator.
        "_perturb",
        # The self-profiler (install_profiler below): None, or the
        # KernelProfile that the bounded run loop times dispatches into.
        "_profile",
    )

    def __init__(self) -> None:
        # Heap entries are (time, seq, callback, args) tuples (fast path)
        # or (time, seq, event, None) tuples (cancellable path, marked by
        # the None sentinel in the args slot); seq uniqueness keeps tuple
        # comparison from ever reaching the payload.
        self._heap: list[tuple] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._events_fired: int = 0
        self._running = False
        self._cancelled_pending = 0
        self._profile = None

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for reporting)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued.

        Cancelled events linger in the heap until popped or compacted;
        they will never fire, so they are excluded here — the count is
        the same whether or not a compaction has happened to run.
        """
        return len(self._heap) - self._cancelled_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` ns from now; no handle.

        The fast path for the simulation's hot loops: nothing is allocated
        beyond the heap tuple, and the entry cannot be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, seq, callback, args))

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``; no handle."""
        now = self._now
        delay = time - now
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        # ``now + delay`` (not ``time``): the float every relative post
        # lands on, so absolute and relative posts agree bit for bit.
        heappush(self._heap, (now + delay, seq, callback, args))

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        Returns the :class:`Event`, whose ``cancel()`` method may be used
        to retract it (used for protocol timeout timers).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now + delay, seq, callback, args, False, self)
        heappush(self._heap, (event.time, seq, event, None))
        return event

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when worthwhile."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= _COMPACT_MIN_CANCELLED
            and self._cancelled_pending > len(self._heap) * _COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify in place.

        Safe mid-run: the heap list object is mutated in place (``run``
        holds an alias) and heapify re-orders on the same ``(time, seq)``
        keys, so subsequent pops are identical to the uncompacted heap's.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [
            entry
            for entry in heap
            if entry[3] is not None or not entry[2].cancelled
        ]
        heapify(heap)
        self._cancelled_pending = 0
        profile = self._profile
        if profile is not None:
            profile.compactions += 1
            profile.compacted_entries += before - len(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, max_events: int | None = None) -> None:
        """Execute events until the queue drains.

        Args:
            max_events: Safety valve for tests; raise if exceeded.

        An installed profiler (:func:`install_profiler`) runs on the
        bounded loop, which times each dispatch; the unbounded hot loop
        carries no profiling checks.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        fired = self._events_fired
        profile = self._profile
        run_started = perf_counter() if profile is not None else 0.0
        try:
            if max_events is None and profile is None:
                # Hot loop: no bound checks, locals only.
                while heap:
                    time, _seq, callback, args = heappop(heap)
                    if args is None:
                        event = callback
                        if event.cancelled:
                            self._cancelled_pending -= 1
                            continue
                        # Fired: detach so a late cancel() (e.g. a timer
                        # cancelled by the very callback it raced) cannot
                        # count a heap entry that is no longer there.
                        event._sim = None
                        callback = event.callback
                        args = event.args
                    self._now = time
                    fired += 1
                    callback(*args)
                return
            if profile is not None:
                categories = profile.categories
                sample_depth = profile.heap_depth.record
            while heap:
                entry = heappop(heap)
                args = entry[3]
                if args is not None:
                    callback = entry[2]
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    event._sim = None  # fired: late cancels don't count
                    callback, args = event.callback, event.args
                self._now = entry[0]
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now}"
                    )
                if profile is None:
                    callback(*args)
                    continue
                if not fired % _PROFILE_SAMPLE_EVERY:
                    sample_depth(len(heap))
                category = _callback_category(callback)
                cell = categories.get(category)
                if cell is None:
                    cell = categories[category] = [0, 0.0]
                started = perf_counter()
                callback(*args)
                cell[1] += perf_counter() - started
                cell[0] += 1
        finally:
            self._events_fired = fired
            self._running = False
            if profile is not None:
                profile.wall_s += perf_counter() - run_started

    def step(self) -> bool:
        """Fire exactly one (non-cancelled) event.

        Returns True if an event fired, False if the queue is empty.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            args = entry[3]
            if args is not None:
                callback = entry[2]
            else:
                event = entry[2]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                event._sim = None  # fired: late cancels don't count
                callback, args = event.callback, event.args
            self._now = entry[0]
            self._events_fired += 1
            callback(*args)
            return True
        return False


# ----------------------------------------------------------------------
# Self-profiling (opt-in: install_profiler)
# ----------------------------------------------------------------------

#: Heap depth is sampled once per this many fired events.
_PROFILE_SAMPLE_EVERY = 256


def _callback_category(callback) -> str:
    """Attribution label for a scheduled callback.

    Bound methods — the overwhelming majority of kernel traffic — are
    labelled ``Class.method`` of the *receiver's* class, so a swapped-in
    instrumentation subclass shows up under its own name.  Bare
    functions and closures fall back to their qualified name.
    """
    receiver = getattr(callback, "__self__", None)
    if receiver is not None:
        return f"{type(receiver).__name__}.{callback.__name__}"
    return getattr(callback, "__qualname__", repr(callback))


class KernelProfile:
    """Where the kernel's time goes, by callback category.

    ``categories`` maps the :func:`_callback_category` label to
    ``[events, wall_seconds]``.  Heap depth is sampled every
    :data:`_PROFILE_SAMPLE_EVERY` events into a :class:`Histogram`
    (imported lazily — :mod:`repro.sim.stats` has no kernel
    dependency), and every compaction records how many entries it
    dropped: which callbacks dominate, and how deep the shared heap
    actually runs.
    """

    __slots__ = (
        "categories",
        "heap_depth",
        "compactions",
        "compacted_entries",
        "wall_s",
    )

    def __init__(self) -> None:
        from repro.sim.stats import Histogram

        self.categories: dict[str, list] = {}
        self.heap_depth = Histogram()
        self.compactions = 0
        self.compacted_entries = 0
        self.wall_s = 0.0

    @property
    def events(self) -> int:
        return sum(entry[0] for entry in self.categories.values())

    def table(self) -> str:
        """The profile, one row per category, hottest wall time first."""
        total_wall = sum(entry[1] for entry in self.categories.values())
        lines = [
            f"{'callback':<42} {'events':>10} {'wall ms':>9} {'share':>6}"
        ]
        ranked = sorted(
            self.categories.items(), key=lambda item: (-item[1][1], item[0])
        )
        for category, (events, wall) in ranked:
            share = wall / total_wall if total_wall else 0.0
            lines.append(
                f"{category:<42} {events:>10} {wall * 1e3:>9.2f} "
                f"{share:>6.1%}"
            )
        depth = self.heap_depth.percentiles()
        lines.append(
            f"{self.events} events in {total_wall * 1e3:.2f} ms of callback "
            f"wall time ({self.wall_s * 1e3:.2f} ms total); heap depth "
            f"p50={depth['p50']:.0f} p99={depth['p99']:.0f} "
            f"max={depth['max']:.0f}; {self.compactions} compactions "
            f"dropped {self.compacted_entries} cancelled entries"
        )
        return "\n".join(lines)


def install_profiler(sim: Simulator) -> KernelProfile:
    """Arm ``sim`` with per-callback timing; returns the profile.

    Profiling is a slot the run loop reads, not a class, so it composes
    with any other overlay (kernel jitter included).  Outputs are
    untouched — events fire in the same order at the same times, and
    the profiler adds no kernel events — so a profiled run's results are
    bit-identical to an unprofiled one.  Every dispatch pays two
    ``perf_counter`` reads and a category lookup, which is the overhead
    ``bench_observe_overhead.py`` measures.
    """
    if sim._profile is not None:
        raise ValueError("a profiler is already installed on this simulator")
    profile = KernelProfile()
    sim._profile = profile
    return profile
