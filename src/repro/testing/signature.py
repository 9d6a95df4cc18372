"""One definition of "same behaviour", and the golden files that pin it.

The paper's safety claim is checked by comparing runs: armed against
unarmed, forked against cold, restored against uninterrupted, the stock
path against the per-hop reference path.  Every such check, and every
golden pin under ``tests/golden/``, reads its notion of "same" here:

* :func:`result_signature` — every output field of a
  :class:`~repro.system.simulator.SimulationResult`;
* :func:`outcome_signature` — a whole explorer
  :class:`~repro.testing.explore.ScenarioOutcome` except the trace's
  ``queue_depth``, which samples the kernel heap's own size and may move
  when a traced network takes a different but event-equivalent fan-out
  path;
* :func:`digest` — 16 hex digits of a SHA-256 over the canonical JSON
  every campaign key uses, and :func:`pin`, a behaviour pin's one entry
  shape: ``events_fired`` plus the digest;
* :class:`GoldenFile` — one golden file's pins, checked or, under the
  test suite's ``--record-golden`` flag, recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.campaign.spec import canonical_json

#: The output fields of a SimulationResult; its config, workload name
#: and ops-per-transaction are inputs, not outputs.
RESULT_FIELDS = (
    "events_fired",
    "runtime_ns",
    "total_ops",
    "total_misses",
    "counters",
    "traffic_bytes",
    "per_proc_finish_ns",
    "l1_hits",
    "l2_hits",
    "mean_miss_latency_ns",
)


def result_signature(result) -> dict:
    """Every output field of a simulation result."""
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def outcome_signature(outcome) -> dict:
    """A scenario outcome, whole, except ``telemetry.queue_depth``."""
    document = dataclasses.asdict(outcome)
    document["telemetry"].pop("queue_depth", None)
    return document


def digest(document) -> str:
    """16 hex digits of SHA-256 over ``document``'s canonical JSON."""
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()[:16]


def pin(signature: dict) -> dict:
    """A behaviour pin: the signature's ``events_fired`` and its digest."""
    return {
        "events_fired": signature["events_fired"],
        "digest": digest(signature),
    }


class GoldenFile:
    """The pins of one golden file, ``label -> entry``, for one session.

    :meth:`check` compares an observed entry with its pin.  A file whose
    pins and declared ``labels`` differ fails every check, so a case
    added or removed without re-recording shows.  With ``record`` set,
    :meth:`check` keeps each observation instead, and two different
    observations of one label raise.  :meth:`write` then rewrites the
    file: each observed label takes its observation, a declared label
    the session did not observe keeps its pin (recording a subset drops
    nothing), and a pin of no declared label goes.
    """

    def __init__(self, path: Path, labels, record: bool = False) -> None:
        self.path = Path(path)
        self.labels = frozenset(labels)
        self.record = record
        self.pinned: dict = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )
        self.observed: dict[str, dict] = {}
        self.conflicted: set[str] = set()

    def check(self, label: str, entry: dict) -> None:
        if label not in self.labels:
            raise KeyError(f"{self.path.name}: no declared case {label!r}")
        if self.record:
            first = self.observed.setdefault(label, entry)
            if first != entry:
                self.conflicted.add(label)
                raise AssertionError(
                    f"{self.path.name} {label}: two observations in one "
                    f"session disagree: {first} and {entry}"
                )
            return
        missing = sorted(self.labels - self.pinned.keys())
        stale = sorted(self.pinned.keys() - self.labels)
        if missing or stale:
            raise AssertionError(
                f"{self.path.name}: cases without a pin {missing}, pins "
                f"without a case {stale}; re-record with --record-golden"
            )
        if entry != self.pinned[label]:
            raise AssertionError(
                f"{self.path.name} {label}: observed {entry}, pinned "
                f"{self.pinned[label]}"
            )

    def write(self) -> list[str]:
        """Rewrite the file from this session's observations, if it made
        any; one line per pin that moved, was added or went.  A label
        whose observations disagreed keeps its old pin."""
        if not self.observed:
            return []
        entries = {
            label: self.pinned[label]
            for label in self.labels & self.pinned.keys()
        }
        entries.update(
            (label, entry)
            for label, entry in self.observed.items()
            if label not in self.conflicted
        )
        text = json.dumps(entries, indent=1, sort_keys=True) + "\n"
        if not self.path.exists() or self.path.read_text() != text:
            self.path.write_text(text)
        return [
            f"{self.path.name} {label}: "
            + _moved(self.pinned.get(label), entries.get(label))
            for label in sorted(self.pinned.keys() | entries.keys())
            if self.pinned.get(label) != entries.get(label)
        ]


def _moved(before: dict | None, after: dict | None) -> str:
    """``key before -> after`` for every key, ``-`` where there is none."""
    before, after = before or {}, after or {}
    return ", ".join(
        f"{key} {before.get(key, '-')} -> {after.get(key, '-')}"
        for key in sorted(before.keys() | after.keys())
    )
