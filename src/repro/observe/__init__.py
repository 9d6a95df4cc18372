"""Opt-in observability: tracing, histograms, self-profiling.

The layer arms the shared overlay hooks (:mod:`repro.overlay`) under
the repo's zero-cost instrumentation contract: a system that never
calls :func:`install_tracing` executes pristine classes with no flag
checks anywhere, and an armed run is *observationally identical* —
same events, same timestamps, same results — because every hook records
synchronously inside existing events and then falls through.

* :func:`install_tracing` — arm a built system; returns the recorder.
  The default :class:`TraceRecorder` keeps counts and histograms only
  (message, crossing, miss-span and mark counts, miss latency, queue
  depth, epoch-sampled time series), in memory that does not grow with
  the run; a :class:`TimelineRecorder` also keeps every send, delivery,
  link occupancy, miss span and protocol mark for the renderers.
* :func:`chrome_trace` / :func:`text_timeline` / :func:`protocol_diff`
  — render a recorder as Chrome trace-event JSON (loadable by Perfetto
  / ``chrome://tracing``), a plain-text timeline, or a two-run
  comparison.
* Kernel self-profiling lives in :mod:`repro.sim.kernel`
  (``install_profiler``) because it instruments the event loop itself.

CLI::

    python -m repro.observe export  --protocol tokenb --out trace.json
    python -m repro.observe timeline --protocol tokenb --limit 40
    python -m repro.observe diff tokenb directory --workload false_sharing
"""

from repro.observe.export import (
    chrome_trace,
    protocol_diff,
    text_timeline,
    validate_chrome_trace,
)
from repro.observe.hooks import install_tracing
from repro.observe.trace import TimelineRecorder, TraceRecorder

__all__ = [
    "TimelineRecorder",
    "TraceRecorder",
    "install_tracing",
    "chrome_trace",
    "validate_chrome_trace",
    "text_timeline",
    "protocol_diff",
]
