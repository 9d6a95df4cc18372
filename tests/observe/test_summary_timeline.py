"""The summary recorder against the timeline recorder.

Campaigns arm the default :class:`~repro.observe.TraceRecorder`, which
keeps counts and histograms only; the observe CLI arms a
:class:`~repro.observe.TimelineRecorder`, which also keeps every event
and hooks every link.  On every overlay-golden scenario, traced, the
two must give the same :func:`~repro.testing.signature.outcome_signature`,
telemetry included, and the summary's counts must be the timeline's
list lengths.

The signature leaves out ``queue_depth``: where tracing is the only
overlay that hooks links, the timeline's ``on_hop`` hooks move the
torus onto its per-hop fan-out, which holds the same events at the
same times but a different number of them in the kernel heap at once,
so the queue-depth distribution may differ.  Where another overlay
hooks links too, both runs take the per-hop path and ``queue_depth``
must match as well.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.observe import TimelineRecorder, install_tracing
from repro.testing.explore import _armed_system, _finish_scenario
from repro.testing.signature import outcome_signature

_OVERLAY_GOLDEN = (
    Path(__file__).resolve().parent.parent / "testing" / "test_overlay_golden.py"
)


def _overlay_golden_cases() -> dict:
    spec = importlib.util.spec_from_file_location(
        "_overlay_golden_cases", _OVERLAY_GOLDEN
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


#: label -> the overlay-golden scenario with tracing armed, plus tracing
#: alone on an unlimited-bandwidth torus: the one place the summary's
#: stock path (every broadcast delivery posted up front) holds a
#: different number of events in the heap than the per-hop fan-out.
CASES = {
    label: dataclasses.replace(scenario, observe=True)
    for label, scenario in _overlay_golden_cases().items()
}
CASES["torus/seed0/tracing/unlimited"] = dataclasses.replace(
    CASES["torus/seed0/tracing"],
    config_overrides={
        **CASES["torus/seed0/tracing"].config_overrides,
        "link_bandwidth_bytes_per_ns": None,
    },
)


def _finish(scenario, system):
    system.start()
    return _finish_scenario(scenario, system)


def _summary_run(scenario):
    """The explorer's own run: summary tracing, installed last."""
    system = _armed_system(scenario)
    return _finish(scenario, system), system


def _timeline_run(scenario):
    """The same run with a timeline recorder; also whether the other
    overlays hooked any link before tracing armed."""
    system = _armed_system(dataclasses.replace(scenario, observe=False))
    others_hook_links = system.network._hooked
    install_tracing(system, recorder=TimelineRecorder())
    return _finish(scenario, system), system.observe, others_hook_links


@pytest.mark.parametrize("label", sorted(CASES))
def test_summary_telemetry_equals_the_timeline(label):
    scenario = CASES[label]
    summary, system = _summary_run(scenario)
    timeline, recorder, others_hook_links = _timeline_run(scenario)
    # Summary tracing hooks no link of its own.
    assert system.network._hooked == others_hook_links

    assert outcome_signature(summary) == outcome_signature(timeline)
    if others_hook_links:
        assert (
            summary.telemetry["queue_depth"]
            == timeline.telemetry["queue_depth"]
        )

    counts = summary.telemetry
    assert counts["sends"] == len(recorder.sends)
    assert counts["delivers"] == len(recorder.delivers)
    assert counts["hops"] == len(recorder.hops) > 0
    assert counts["miss_spans"] == len(recorder.miss_spans)
    marks: dict[str, int] = {}
    for _t, _node, name, _block in recorder.marks:
        marks[name] = marks.get(name, 0) + 1
    assert counts["marks"] == dict(sorted(marks.items()))
    assert timeline.telemetry["queue_depth"]["count"] == len(recorder.delivers)
