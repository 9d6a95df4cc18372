"""Render a :class:`~repro.observe.trace.TimelineRecorder`.

Three consumers:

* :func:`chrome_trace` — Chrome trace-event JSON (the object format,
  ``{"traceEvents": [...]}``), loadable by Perfetto and
  ``chrome://tracing``.  Nodes and links are separate "processes" with
  one thread-track each; miss spans and link occupancy are complete
  ("X") events, sends/deliveries/protocol marks are instants, and each
  message's send is tied to its deliveries with flow ("s"/"f") events
  keyed by ``msg_id``.  Trace-event timestamps are microseconds, so
  simulated nanoseconds are scaled by 1/1000.
* :func:`text_timeline` — a terminal-friendly merged timeline.
* :func:`protocol_diff` — side-by-side digest of two recorded runs
  (the ``python -m repro.observe diff`` backend).

:func:`validate_chrome_trace` is the schema check CI runs against the
exported artifact.
"""

from __future__ import annotations

#: ns -> us, the trace-event timestamp unit.
_US = 1e-3

#: Event phases this exporter emits (and the validator accepts).
_PHASES = {"M", "X", "i", "s", "f"}

_PID_NODES = 1
_PID_LINKS = 2
_PID_FAULTS = 3


def chrome_trace(recorder) -> dict:
    """The recorder as a Chrome trace-event object."""
    events: list[dict] = []

    def metadata(pid: int, tid: int, kind: str, name: str) -> None:
        events.append({
            "name": kind, "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "args": {"name": name},
        })

    metadata(_PID_NODES, 0, "process_name", "nodes")
    for node in range(recorder.n_nodes):
        metadata(_PID_NODES, node, "thread_name", f"node {node}")
    metadata(_PID_LINKS, 0, "process_name", "links")

    link_tids: dict[str, int] = {}

    def link_tid(name: str) -> int:
        tid = link_tids.get(name)
        if tid is None:
            tid = len(link_tids)
            link_tids[name] = tid
            metadata(_PID_LINKS, tid, "thread_name", name)
        return tid

    for start, end, node, block, kind in recorder.miss_spans:
        events.append({
            "name": f"miss {kind} {block:#x}", "cat": "miss", "ph": "X",
            "pid": _PID_NODES, "tid": node,
            "ts": start * _US, "dur": (end - start) * _US,
            "args": {"block": block, "kind": kind},
        })
    for t, node, msg_id, label, dst, size in recorder.sends:
        ts = t * _US
        events.append({
            "name": f"send {label}", "cat": "msg", "ph": "i", "s": "t",
            "pid": _PID_NODES, "tid": node, "ts": ts,
            "args": {"msg_id": msg_id, "dst": dst, "size_bytes": size},
        })
        events.append({
            "name": label, "cat": "flow", "ph": "s", "id": msg_id,
            "pid": _PID_NODES, "tid": node, "ts": ts,
        })
    for t, node, msg_id, label in recorder.delivers:
        ts = t * _US
        events.append({
            "name": f"recv {label}", "cat": "msg", "ph": "i", "s": "t",
            "pid": _PID_NODES, "tid": node, "ts": ts,
            "args": {"msg_id": msg_id},
        })
        events.append({
            "name": label, "cat": "flow", "ph": "f", "bp": "e",
            "id": msg_id, "pid": _PID_NODES, "tid": node, "ts": ts,
        })
    for t, node, name, block in recorder.marks:
        events.append({
            "name": name, "cat": "protocol", "ph": "i", "s": "t",
            "pid": _PID_NODES, "tid": node, "ts": t * _US,
            "args": {"block": block},
        })
    for start, end, link, category, size in recorder.hops:
        events.append({
            "name": category, "cat": "link", "ph": "X",
            "pid": _PID_LINKS, "tid": link_tid(link),
            "ts": start * _US, "dur": (end - start) * _US,
            "args": {"size_bytes": size},
        })
    if recorder.fault_windows:
        metadata(_PID_FAULTS, 0, "process_name", "faults")
        for start, end, kind, target in recorder.fault_windows:
            events.append({
                "name": kind, "cat": "fault", "ph": "X",
                "pid": _PID_FAULTS, "tid": 0,
                "ts": start * _US, "dur": (end - start) * _US,
                "args": {"target": target},
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": dict(recorder.meta),
    }


def validate_chrome_trace(payload) -> int:
    """Schema-check an exported trace; returns the event count.

    Raises :class:`ValueError` naming the first offending event.  This
    is the CI gate on the exported artifact, so it checks the
    trace-event contract, not just JSON well-formedness: known phases,
    numeric non-negative timestamps, durations on complete events, and
    flow ids on flow events.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("trace must be an object with a traceEvents list")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"{where}: unknown phase {ph!r}")
        for field in ("name", "pid", "tid"):
            if field not in event:
                raise ValueError(f"{where}: missing {field!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: complete event with bad dur {dur!r}")
        if ph in ("s", "f") and "id" not in event:
            raise ValueError(f"{where}: flow event without id")
        if ph == "M" and "name" not in event.get("args", {}):
            raise ValueError(f"{where}: metadata event without args.name")
    return len(events)


# ----------------------------------------------------------------------
# Text timeline
# ----------------------------------------------------------------------


def text_timeline(recorder, limit: int | None = None) -> str:
    """The merged timeline as aligned text, earliest first.

    ``limit`` truncates to the first N lines (a footer reports how many
    were dropped).  Sort order is (time, kind-priority, insertion), so
    coincident events render deterministically.
    """
    rows: list[tuple[float, int, int, str]] = []

    def add(t: float, priority: int, text: str) -> None:
        rows.append((t, priority, len(rows), text))

    for start, end, node, block, kind in recorder.miss_spans:
        add(start, 0, f"P{node:<3} miss {kind} {block:#x} opens")
        add(end, 3, f"P{node:<3} miss {kind} {block:#x} "
                    f"closes (+{end - start:.1f}ns)")
    for t, node, msg_id, label, dst, size in recorder.sends:
        to = "all" if dst < 0 else f"P{dst}"
        add(t, 1, f"P{node:<3} send {label} -> {to} "
                  f"({size}B, msg {msg_id})")
    for t, node, msg_id, label in recorder.delivers:
        add(t, 2, f"P{node:<3} recv {label} (msg {msg_id})")
    for t, node, name, block in recorder.marks:
        add(t, 1, f"P{node:<3} {name} {block:#x}")
    for start, end, link, category, size in recorder.hops:
        add(start, 2, f"link {link} {category} {size}B "
                      f"[{start:.1f}..{end:.1f}]")
    for start, end, kind, target in recorder.fault_windows:
        add(start, 0, f"FAULT {kind} target={target} opens")
        add(end, 0, f"FAULT {kind} target={target} closes")

    rows.sort()
    lines = [f"t={t:>10.1f}ns  {text}" for t, _p, _i, text in rows]
    dropped = 0
    if limit is not None and len(lines) > limit:
        dropped = len(lines) - limit
        lines = lines[:limit]
    header = (
        f"timeline: {recorder.meta.get('protocol', '?')}/"
        f"{recorder.meta.get('interconnect', '?')} "
        f"{recorder.meta.get('workload', '?')} "
        f"({len(rows)} events)"
    )
    out = [header] + lines
    if dropped:
        out.append(f"... {dropped} more events (raise --limit)")
    return "\n".join(out)


# ----------------------------------------------------------------------
# Two-run diff
# ----------------------------------------------------------------------


def _send_counts(recorder) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _t, _node, _id, label, _dst, _size in recorder.sends:
        counts[label] = counts.get(label, 0) + 1
    return counts


def protocol_diff(rec_a, rec_b, label_a: str = "A", label_b: str = "B") -> str:
    """Side-by-side digest of two recorded runs.

    Built for the "why does TokenB beat Directory here" question: it
    contrasts message mix, miss-latency distribution, escalation marks,
    and link pressure between two runs of the *same workload and seed*.
    """
    width = max(len(label_a), len(label_b), 10)

    lines = [
        f"{'':<28} {label_a:>{width}} {label_b:>{width}}",
    ]

    def row(name: str, va, vb, fmt: str = "") -> None:
        lines.append(
            f"{name:<28} {format(va, fmt):>{width}} "
            f"{format(vb, fmt):>{width}}"
        )

    row("sends", len(rec_a.sends), len(rec_b.sends))
    row("deliveries", len(rec_a.delivers), len(rec_b.delivers))
    row("link crossings", len(rec_a.hops), len(rec_b.hops))
    row("miss spans", len(rec_a.miss_spans), len(rec_b.miss_spans))

    pa, pb = rec_a.miss_latency.percentiles(), rec_b.miss_latency.percentiles()
    for key in ("p50", "p90", "p99", "max"):
        row(f"miss latency {key} (ns)", pa[key], pb[key], ".1f")
    qa, qb = rec_a.queue_depth.percentiles(), rec_b.queue_depth.percentiles()
    row("queue depth p99", qa["p99"], qb["p99"], ".0f")

    marks_a, marks_b = rec_a.mark_counts(), rec_b.mark_counts()
    for name in sorted(set(marks_a) | set(marks_b)):
        row(f"mark {name}", marks_a.get(name, 0), marks_b.get(name, 0))

    sends_a, sends_b = _send_counts(rec_a), _send_counts(rec_b)
    for label in sorted(set(sends_a) | set(sends_b)):
        row(f"send {label}", sends_a.get(label, 0), sends_b.get(label, 0))

    return "\n".join(lines)


__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "text_timeline",
    "protocol_diff",
]
