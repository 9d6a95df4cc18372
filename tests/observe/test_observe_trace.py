"""Unit tests for the trace recorders themselves (no simulation needed)."""

import pytest

from repro.observe import TimelineRecorder, TraceRecorder
from repro.observe.trace import TIMESERIES_FIELDS
from repro.sim.stats import Histogram


class _Msg:
    def __init__(self, msg_id=7, mtype=None, category="request",
                 dst=2, size_bytes=8):
        self.msg_id = msg_id
        self.mtype = mtype
        self.category = category
        self.dst = dst
        self.size_bytes = size_bytes


def test_miss_span_opens_and_closes():
    for rec in (TraceRecorder(), TimelineRecorder()):
        rec.miss_started(10.0, node=1, block=0x40, for_write=True)
        assert rec.open_miss_count() == 1
        rec.miss_finished(25.0, node=1, block=0x40)
        assert rec.open_miss_count() == 0
        assert rec.summary()["miss_spans"] == 1
    assert rec.miss_spans == [(10.0, 25.0, 1, 0x40, "store")]


def test_miss_finish_without_open_is_ignored():
    for rec in (TraceRecorder(), TimelineRecorder()):
        rec.miss_finished(5.0, node=0, block=0x80)
        assert rec.summary()["miss_spans"] == 0
        assert rec.open_miss_count() == 0
    assert rec.miss_spans == []


def test_load_vs_store_kind():
    rec = TimelineRecorder()
    rec.miss_started(0.0, 0, 0x40, for_write=False)
    rec.miss_finished(1.0, 0, 0x40)
    assert rec.miss_spans[0][4] == "load"


def test_label_prefers_mtype_over_category():
    rec = TimelineRecorder()
    rec.sent(1.0, 0, _Msg(mtype="GETS", category="request"))
    rec.sent(2.0, 0, _Msg(mtype=None, category="data"))
    assert rec.sends[0][3] == "GETS"
    assert rec.sends[1][3] == "data"


def test_mark_counts_sorted():
    for rec in (TraceRecorder(), TimelineRecorder()):
        for name in ("reissue", "persistent-request", "reissue"):
            rec.mark(1.0, 0, name, 0x40)
        assert rec.mark_counts() == {"persistent-request": 1, "reissue": 2}
        assert list(rec.mark_counts()) == ["persistent-request", "reissue"]
    assert [name for _t, _n, name, _b in rec.marks] == [
        "reissue", "persistent-request", "reissue"
    ]


def test_queue_depth_bins_equal_recording_every_sample():
    """Depths are integers, so binning them per depth loses nothing:
    the histogram read back equals one fed every sample in delivery
    order — buckets, sum, max and their JSON types included."""
    depths = [0, 3, 3, 17, 1, 0, 250, 17, 3, 64, 5, 5, 5]
    rec = TraceRecorder()
    direct = Histogram()
    for depth in depths:
        rec.delivered(1.0, 0, _Msg(), depth)
        direct.record(depth)
    binned = rec.queue_depth
    assert binned.to_dict() == direct.to_dict()
    assert binned.percentiles() == direct.percentiles()
    assert type(binned.max) is type(direct.max) is int
    assert rec.summary()["delivers"] == len(depths) == binned.count


def test_queue_depth_all_zero_keeps_float_max():
    rec = TraceRecorder()
    direct = Histogram()
    for _ in range(3):
        rec.delivered(1.0, 0, _Msg(), 0)
        direct.record(0)
    assert rec.queue_depth.to_dict() == direct.to_dict()
    assert type(rec.queue_depth.max) is type(direct.max) is float


def test_epoch_ns_must_be_positive():
    with pytest.raises(ValueError):
        TraceRecorder(epoch_ns=0)
    with pytest.raises(ValueError):
        TraceRecorder(epoch_ns=-5.0)


class _FakeCounters:
    def __init__(self, values):
        self._values = values

    def get(self, key, default=0):
        return self._values.get(key, default)


class _FakeTraffic:
    def __init__(self, total):
        self._total = total

    def total_bytes(self):
        return self._total


class _FakeSystem:
    def __init__(self):
        self.traffic = _FakeTraffic(100)
        self.counters = _FakeCounters(
            {"l2_miss": 3, "persistent_request": 1, "reissued_request": 2}
        )


def test_sample_clock_one_sample_per_elapsed_boundary():
    rec = TraceRecorder(epoch_ns=10.0)
    rec._system = _FakeSystem()
    rec.sample_clock(5.0)  # before the first boundary: nothing
    assert rec.timeseries == []
    rec.sample_clock(10.0)  # exactly on the boundary
    assert [row[0] for row in rec.timeseries] == [10.0]
    # A quiet stretch spanning three boundaries yields three samples,
    # all carrying the state observed at this first delivery.
    rec.sample_clock(41.0)
    assert [row[0] for row in rec.timeseries] == [10.0, 20.0, 30.0, 40.0]
    sample = rec.timeseries_dicts()[-1]
    assert sample == {
        "t_ns": 40.0, "traffic_bytes": 100, "l2_misses": 3,
        "persistent_requests": 1, "reissued_requests": 2, "deliveries": 0,
    }
    assert tuple(sample) == TIMESERIES_FIELDS


def test_sample_clock_disabled_without_epoch():
    rec = TraceRecorder()
    rec._system = _FakeSystem()
    rec.sample_clock(1000.0)
    assert rec.timeseries == []


def test_summary_is_json_safe_and_mergeable():
    import json

    rec = TraceRecorder()
    rec.miss_latency.record(100.0)
    rec.miss_latency.record(300.0)
    rec.sent(1.0, 0, _Msg())
    rec.delivered(2.0, 1, _Msg(), 4)
    summary = rec.summary()
    json.dumps(summary)  # must round-trip as campaign payload
    assert summary["sends"] == 1
    assert summary["delivers"] == 1
    assert summary["queue_depth"]["max"] == 4
    assert summary["miss_latency"]["count"] == 2

    from repro.sim.stats import Histogram

    rebuilt = Histogram.from_dict(summary["miss_latency_hist"])
    assert rebuilt.count == 2
    assert rebuilt.percentiles()["max"] == 300.0
