"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_starts_at_zero_and_advances():
    sim = Simulator()
    assert sim.now == 0.0
    times = []
    sim.schedule(7.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [7.5]


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(5.0, second)

    def second():
        fired.append(("second", sim.now))

    sim.schedule(10.0, first)
    sim.run()
    assert fired == [("first", 10.0), ("second", 15.0)]


def test_schedule_zero_delay_fires_at_now():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, fired.append, sim.now))
    sim.run()
    assert fired == [1.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5.0, fired.append, "x")
    sim.schedule(1.0, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_step_fires_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_max_events_safety_valve():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_fired == 5


# ----------------------------------------------------------------------
# Fast-path posting and cancelled-event compaction
# ----------------------------------------------------------------------


def test_post_interleaves_with_schedule_in_seq_order():
    """post() and schedule() share one (time, seq) ordering domain."""
    sim = Simulator()
    fired = []
    sim.post(5.0, fired.append, "p1")
    sim.schedule(5.0, fired.append, "s1")
    sim.post(5.0, fired.append, "p2")
    sim.schedule(5.0, fired.append, "s2")
    sim.run()
    assert fired == ["p1", "s1", "p2", "s2"]


def test_post_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: sim.post_at(25.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [25.0]


def test_post_negative_delay_rejected():
    import pytest as _pytest

    sim = Simulator()
    with _pytest.raises(SimulationError):
        sim.post(-1.0, lambda: None)
    with _pytest.raises(SimulationError):
        sim.post_at(-5.0, lambda: None)


def test_post_has_no_handle_and_step_fires_it():
    sim = Simulator()
    fired = []
    assert sim.post(1.0, fired.append, "x") is None
    assert sim.step()
    assert fired == ["x"]


def test_compaction_preserves_firing_order():
    """Cancelling most of a large heap triggers in-place compaction;
    the surviving events must still fire in exact (time, seq) order."""
    from repro.sim import kernel as kernel_mod

    sim = Simulator()
    fired = []
    handles = []
    survivors = []
    # Interleave doomed and surviving events at clashing times so any
    # ordering disturbance from the rebuild would be visible.
    for i in range(200):
        time = float(100 + (i % 7))
        if i % 3 == 0:
            survivors.append((time, i))
            sim.schedule(time, fired.append, (time, i))
        else:
            handles.append(sim.schedule(time, fired.append, ("DOOMED", i)))
    assert sim.pending_events == 200
    for handle in handles:
        handle.cancel()
    # Enough cancellations to cross the compaction thresholds: the heap
    # must have been compacted in place (survivors plus at most the
    # post-compaction cancellations that have not re-crossed it).
    assert len(handles) >= kernel_mod._COMPACT_MIN_CANCELLED
    assert len(survivors) <= sim.pending_events < 200
    sim.run()
    assert fired == sorted(survivors, key=lambda pair: (pair[0], pair[1]))


def test_post_at_ties_with_post_in_insertion_order():
    """post_at(T), post(T - now) and schedule(T - now) land in the same
    (time, seq) domain: ties fire in exact insertion order regardless of
    which entry point scheduled them."""
    sim = Simulator()
    fired = []

    def submit():
        sim.post_at(25.0, fired.append, "at1")
        sim.post(15.0, fired.append, "rel1")
        sim.post_at(25.0, fired.append, "at2")
        sim.post(15.0, fired.append, "rel2")
        sim.schedule(15.0, fired.append, "sched")

    sim.schedule(10.0, submit)
    sim.run()
    assert fired == ["at1", "rel1", "at2", "rel2", "sched"]
    assert sim.now == 25.0


def test_compaction_threshold_boundary():
    """Compaction needs BOTH thresholds: at least _COMPACT_MIN_CANCELLED
    cancellations AND cancelled > half the heap.  One short of the
    minimum leaves the heap untouched; the next qualifying cancel
    compacts."""
    from repro.sim import kernel as kernel_mod

    minimum = kernel_mod._COMPACT_MIN_CANCELLED
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None) for _ in range(minimum + 10)]
    for handle in handles[: minimum - 1]:
        handle.cancel()
    # Below the count floor: nothing compacted even though the cancelled
    # fraction is far above _COMPACT_FRACTION — the cancelled entries
    # stay physically queued, but pending_events reports live ones only.
    assert sim._cancelled_pending == minimum - 1
    assert len(sim._heap) == minimum + 10
    assert sim.pending_events == 11
    handles[minimum - 1].cancel()
    # Count floor reached and fraction exceeded: compacted in place.
    assert sim._cancelled_pending == 0
    assert len(sim._heap) == 10


def test_no_compaction_while_cancelled_fraction_is_small():
    """Plenty of cancellations, but a large live heap keeps the
    cancelled fraction under _COMPACT_FRACTION: no compaction."""
    from repro.sim import kernel as kernel_mod

    minimum = kernel_mod._COMPACT_MIN_CANCELLED
    sim = Simulator()
    for _ in range(4 * minimum):
        sim.schedule(1.0, lambda: None)
    doomed = [sim.schedule(2.0, lambda: None) for _ in range(minimum + 5)]
    for handle in doomed:
        handle.cancel()
    assert sim._cancelled_pending == minimum + 5
    assert len(sim._heap) == 5 * minimum + 5


def test_cancel_is_idempotent_and_tracked():
    sim = Simulator()
    handle = sim.schedule(5.0, lambda: None)
    handle.cancel()
    handle.cancel()  # double-cancel must not corrupt bookkeeping
    assert sim._cancelled_pending == 1
    sim.run()
    assert sim._cancelled_pending == 0
    assert sim.events_fired == 0


def test_cancel_after_fire_does_not_corrupt_pending_count():
    """Cancelling a handle whose event already fired must be a no-op:
    before the fix it incremented ``_cancelled_pending`` with no
    matching heap entry, driving ``pending_events`` negative."""
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    live = sim.schedule(2.0, lambda: None)
    assert sim.step()  # fires `handle`'s event
    handle.cancel()
    assert sim._cancelled_pending == 0
    assert sim.pending_events == 1
    # The classic protocol shape: a timer cancelled from within its own
    # firing (e.g. a completion racing its timeout).
    sim2 = Simulator()
    timer = []
    timer.append(sim2.schedule(5.0, lambda: timer[0].cancel()))
    sim2.run()
    assert sim2._cancelled_pending == 0
    assert sim2.pending_events == 0


def test_pending_events_stays_non_negative_under_cancel_storm():
    sim = Simulator()
    handles = [sim.schedule(float(i), lambda: None) for i in range(20)]
    for _ in range(7):
        sim.step()
    for handle in handles:
        handle.cancel()  # 7 already fired, 13 still queued
    assert sim._cancelled_pending == 13
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_fired == 7
    assert sim.pending_events == 0


def test_compaction_mid_run_from_callback():
    """A callback cancelling en masse (forcing compaction while run()
    iterates the heap) must not disturb later events."""
    from repro.sim import kernel as kernel_mod

    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50.0, fired.append, "DOOMED") for _ in range(100)]
    sim.schedule(60.0, fired.append, "tail-a")
    sim.schedule(60.0, fired.append, "tail-b")

    def cancel_all():
        for handle in doomed:
            handle.cancel()

    sim.schedule(10.0, cancel_all)
    sim.run()
    assert fired == ["tail-a", "tail-b"]
    assert sim._cancelled_pending == 0
    assert kernel_mod._COMPACT_MIN_CANCELLED <= 100

# ----------------------------------------------------------------------
# Kernel self-profiling
# ----------------------------------------------------------------------


class _Ticker:
    def __init__(self, sim):
        self.sim = sim
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        if self.ticks < 5:
            self.sim.schedule(1.0, self.tick)


def test_profiler_attributes_events_per_category():
    from repro.sim.kernel import install_profiler

    sim = Simulator()
    ticker = _Ticker(sim)
    sim.schedule(1.0, ticker.tick)
    sim.schedule(0.5, lambda: None)
    profile = install_profiler(sim)
    sim.run()
    assert ticker.ticks == 5
    assert profile.categories["_Ticker.tick"][0] == 5
    assert profile.categories["_Ticker.tick"][1] >= 0.0
    assert profile.events == sim.events_fired == 6
    assert profile.wall_s > 0.0


def test_profiled_run_fires_identically():
    """The profiling loop is the general loop plus timers: same firing
    order, same clock, same event count."""
    from repro.sim.kernel import install_profiler

    def run(profiled):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(float(100 - i % 7), fired.append, i)
        doomed = [sim.schedule(50.0, fired.append, "DOOMED")
                  for _ in range(10)]
        if profiled:
            install_profiler(sim)
        for handle in doomed:
            handle.cancel()
        sim.run(max_events=1000)
        return fired, sim.now, sim.events_fired

    assert run(False) == run(True)


def test_profiler_composes_with_kernel_jitter():
    """Profiling is a slot the run loop reads, not a class: it arms a
    jittered simulator too, and changes nothing the run produces."""
    import pytest as _pytest

    from repro.sim.kernel import install_profiler
    from repro.testing.perturb import PerturbedSimulator, Perturber, PerturbSpec
    from repro.testing.explore import Scenario, _build_config, _generate_streams
    from repro.system.builder import build_system

    scenario = Scenario(seed=2, protocol="tokenb", interconnect="torus",
                        workload="false_sharing", ops_per_proc=20)

    def run(profiled):
        config = _build_config(scenario)
        system = build_system(config, _generate_streams(scenario, config))
        Perturber(PerturbSpec(seed=2, kernel_jitter_ns=12.0)).install(system)
        assert type(system.sim) is PerturbedSimulator
        profile = install_profiler(system.sim) if profiled else None
        if profiled:
            with _pytest.raises(ValueError, match="already installed"):
                install_profiler(system.sim)
        result = system.run()
        return profile, (result.events_fired, result.runtime_ns,
                         result.traffic_bytes)

    profile, profiled = run(True)
    assert profiled == run(False)[1]
    assert profile.events == profiled[0]
    assert any(name.startswith("TokenBNode.") for name in profile.categories)


def test_profiler_table_renders():
    from repro.sim.kernel import _PROFILE_SAMPLE_EVERY, install_profiler

    sim = Simulator()
    for _ in range(2 * _PROFILE_SAMPLE_EVERY):
        sim.schedule(1.0, lambda: None)
    profile = install_profiler(sim)
    sim.run()
    table = profile.table()
    assert "callback" in table and "wall ms" in table
    assert "heap depth" in table
    assert profile.heap_depth.count == 2  # one sample per 256 events


def test_profiler_counts_compactions():
    from repro.sim import kernel as kernel_mod
    from repro.sim.kernel import install_profiler

    sim = Simulator()
    profile = install_profiler(sim)
    doomed = [
        sim.schedule(1.0, lambda: None)
        for _ in range(kernel_mod._COMPACT_MIN_CANCELLED + 10)
    ]
    for handle in doomed:
        handle.cancel()
    assert profile.compactions == 1
    assert profile.compacted_entries > 0


def test_callback_category_labels():
    from repro.sim.kernel import _callback_category

    sim = Simulator()
    ticker = _Ticker(sim)
    assert _callback_category(ticker.tick) == "_Ticker.tick"

    def plain():
        pass

    assert "plain" in _callback_category(plain)
