"""Tests for the paper-style report formatters."""

import pytest

from repro.analysis.report import (
    format_runtime_bars,
    format_table2,
    format_traffic_bars,
    speedup,
)
from repro.config import SystemConfig
from repro.system.simulator import SimulationResult


def make_result(cpt=1000.0, bpm_bytes=None, counters=None):
    total_misses = 100
    traffic = bpm_bytes if bpm_bytes is not None else {"data": 7200}
    return SimulationResult(
        config=SystemConfig(n_procs=4, protocol="tokenb", interconnect="torus"),
        workload_name="wl",
        runtime_ns=cpt * 5,
        total_ops=500,
        total_misses=total_misses,
        counters=counters or {"miss_not_reissued": 100},
        traffic_bytes=traffic,
        events_fired=1,
        per_proc_finish_ns=[cpt * 5] * 4,
        l1_hits=0,
        l2_hits=0,
        mean_miss_latency_ns=100.0,
        ops_per_transaction=100,
    )


def test_table2_formats_rows_and_average():
    text = format_table2({"apache": make_result(), "oltp": make_result()})
    assert "apache" in text
    assert "oltp" in text
    assert "Average" in text
    assert "100.00%" in text


def test_runtime_bars_normalize_to_baseline():
    data = {
        "wl": {
            "base": make_result(cpt=1000.0),
            "faster": make_result(cpt=500.0),
        }
    }
    text = format_runtime_bars(data, baseline="base")
    assert " 1.00" in text
    assert " 0.50" in text


def test_traffic_bars_show_buckets():
    data = {"wl": {"base": make_result()}}
    text = format_traffic_bars(data, baseline="base")
    assert "data_and_writebacks" in text
    assert "B/miss" in text


def test_speedup_convention():
    slower = make_result(cpt=1200.0)
    faster = make_result(cpt=1000.0)
    assert speedup(slower, faster) == pytest.approx(20.0)
    assert speedup(faster, slower) == pytest.approx(-1000.0 / 1200.0 * 20.0, abs=1)


# ----------------------------------------------------------------------
# Campaign-store rendering
# ----------------------------------------------------------------------


def _mini_series():
    """A two-variant figure over tiny real simulate params."""
    import dataclasses

    from repro.workloads import COMMERCIAL_WORKLOADS

    def params(protocol):
        return {
            "workload": dataclasses.asdict(COMMERCIAL_WORKLOADS["apache"]),
            "ops_per_proc": 20,
            "config": {"protocol": protocol, "interconnect": "torus",
                       "n_procs": 2},
        }

    return [{
        "figure": "mini",
        "title": "Mini figure",
        "render": "runtime",
        "baseline": "TokenB",
        "data": {"apache": {"TokenB": params("tokenb"),
                            "Directory": params("directory")}},
    }]


def test_render_figures_from_store(tmp_path):
    from repro.analysis.report import MissingResults, render_figures_from_store
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import CampaignStore

    series = _mini_series()
    store = CampaignStore(tmp_path)
    with pytest.raises(MissingResults, match="no result"):
        render_figures_from_store(store, series=series)

    grid = [p for s in series for v in s["data"].values() for p in v.values()]
    run_campaign(CampaignSpec("mini", "simulate", grid=grid), store, jobs=1)
    text = render_figures_from_store(store, series=series)
    assert "Mini figure" in text
    assert "TokenB" in text and "Directory" in text and "cyc/txn" in text

    assert render_figures_from_store(store, series=series, only=()) is None
    assert render_figures_from_store(store, series=series, only=("mini",))
