"""Snapshot/fork subsystem: copy-on-write scenario prefixes.

Public surface:

* :class:`SimulatorSnapshot` / :class:`SnapshotUnsupportedError` —
  capture and bit-identical restore of a built system, every overlay
  published on it included (:mod:`repro.snapshot.capture`);
* :class:`ReplayableStream` — picklable operation streams
  (:mod:`repro.snapshot.stream`);
* :class:`ProgramFamily`, :func:`fork_family`, :func:`run_family_cold`,
  :func:`demo_family` — warmup-once fork execution
  (:mod:`repro.snapshot.fork`).

Snapshots live in memory; the campaign store is the one on-disk cache
(a ``fork_family`` campaign memoizes whole families there).
"""

from repro.snapshot.capture import SimulatorSnapshot, SnapshotUnsupportedError
from repro.snapshot.fork import (
    ProgramFamily,
    demo_family,
    fork_family,
    run_family_cold,
)
from repro.snapshot.stream import ReplayableStream

__all__ = [
    "ProgramFamily",
    "ReplayableStream",
    "SimulatorSnapshot",
    "SnapshotUnsupportedError",
    "demo_family",
    "fork_family",
    "run_family_cold",
]
