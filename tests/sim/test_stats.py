"""Tests for counters, traffic meters, and latency trackers."""

from repro.sim.stats import Counter, LatencyTracker, TrafficMeter


def test_counter_accumulates():
    counter = Counter()
    counter.add("miss")
    counter.add("miss", 2)
    counter.add("hit")
    assert counter.get("miss") == 3
    assert counter.get("hit") == 1
    assert counter.get("absent") == 0
    assert counter.total() == 4
    assert counter.as_dict() == {"miss": 3, "hit": 1}


def test_traffic_meter_records_bytes_and_crossings():
    meter = TrafficMeter()
    meter.record_crossings("request", 8, 2)
    meter.record_crossings("data", 72, 1)
    assert meter.bytes_by_category() == {"request": 16, "data": 72}
    assert meter.crossings_by_category() == {"request": 2, "data": 1}
    assert meter.total_bytes() == 88


def test_latency_tracker_mean_and_max():
    tracker = LatencyTracker(initial=100.0)
    for value in (50.0, 150.0, 100.0):
        tracker.record(value)
    assert tracker.count == 3
    assert tracker.mean == 100.0
    assert tracker.max == 150.0


def test_latency_tracker_ewma_converges():
    tracker = LatencyTracker(initial=1000.0, alpha=0.5)
    for _ in range(20):
        tracker.record(100.0)
    assert abs(tracker.ewma - 100.0) < 1.0


def test_latency_tracker_initial_ewma_used_before_samples():
    tracker = LatencyTracker(initial=200.0)
    assert tracker.ewma == 200.0
    assert tracker.mean == 0.0


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_histogram_percentiles_bracket_exact_order_statistics():
    from repro.sim.stats import Histogram

    hist = Histogram()
    values = [float(v) for v in range(1, 1001)]
    for value in values:
        hist.record(value)
    assert hist.count == 1000
    assert hist.max == 1000.0
    # Log-bucketed: within one bucket width (~19%) of the exact value.
    for p, exact in ((50, 500.0), (90, 900.0), (99, 990.0)):
        reported = hist.percentile(p)
        assert exact / 1.25 <= reported <= exact * 1.25
    summary = hist.percentiles()
    assert set(summary) == {"count", "mean", "p50", "p90", "p99", "max"}
    assert summary["mean"] == sum(values) / len(values)


def test_histogram_zero_and_negative_handling():
    import pytest

    from repro.sim.stats import Histogram

    hist = Histogram()
    hist.record(0.0)
    hist.record(0.0)
    hist.record(8.0)
    assert hist.count == 3
    assert hist.percentile(0) == 0.0
    assert hist.percentile(50) == 0.0
    assert hist.percentile(100) == 8.0
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_histogram_empty_is_all_zero():
    from repro.sim.stats import Histogram

    hist = Histogram()
    assert hist.count == 0
    assert hist.percentiles() == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        "max": 0.0,
    }


def test_histogram_merge_adds_bucket_counts():
    from repro.sim.stats import Histogram

    a, b, both = Histogram(), Histogram(), Histogram()
    for value in (1.0, 10.0, 100.0):
        a.record(value)
        both.record(value)
    for value in (5.0, 50.0, 0.0):
        b.record(value)
        both.record(value)
    a.merge(b)
    assert a.count == both.count == 6
    assert a.percentiles() == both.percentiles()
    assert a.to_dict() == both.to_dict()


def test_histogram_round_trips_through_dict():
    import json

    from repro.sim.stats import Histogram

    hist = Histogram()
    for value in (0.0, 1.5, 3.0, 700.25):
        hist.record(value)
    payload = json.loads(json.dumps(hist.to_dict()))
    rebuilt = Histogram.from_dict(payload)
    assert rebuilt.count == hist.count
    assert rebuilt.percentiles() == hist.percentiles()
    assert rebuilt.to_dict() == hist.to_dict()
