"""Section 7: other performance protocol opportunities.

The paper sketches performance protocols beyond broadcast-always
TokenB; this harness measures the two implemented here against TokenB
and Directory on OLTP:

* **TokenD** (soft-state directory-like) should reach directory-like
  *traffic* while staying faster than the real Directory protocol (no
  blocking, no hard directory state to keep precise);
* **TokenM** (destination-set prediction) trades some latency for
  traffic between the two extremes.

All three token protocols share the identical correctness substrate —
the decoupling claim made measurable.
"""

# Script-mode shim: `python benchmarks/<this file>.py` has only this
# directory on sys.path; _bootstrap adds the repo root and src/.
if __package__ in (None, ""):
    import _bootstrap  # noqa: F401

from benchmarks.common import lookup
from repro.analysis.report import format_runtime_bars, format_traffic_bars


def _collect():
    return lookup("section7")


def bench_section7_extensions(benchmark):
    data = benchmark.pedantic(_collect, rounds=1, iterations=1)
    print()
    print("Section 7 — extension performance protocols (OLTP, torus)")
    print(format_runtime_bars(data, baseline="TokenB"))
    print(format_traffic_bars(data, baseline="TokenB"))

    variants = data["oltp"]
    tokenb = variants["TokenB"]
    tokend = variants["TokenD"]
    directory = variants["Directory"]

    # TokenD reaches directory-like traffic ("reduce the traffic to
    # directory protocol-like amounts")...
    assert tokend.bytes_per_miss < 0.8 * tokenb.bytes_per_miss
    assert tokend.bytes_per_miss < 1.15 * directory.bytes_per_miss
    # ...while beating the real Directory protocol on runtime.
    assert tokend.cycles_per_transaction < directory.cycles_per_transaction
    # TokenB stays the latency champion (broadcast finds data directly).
    assert tokenb.cycles_per_transaction <= tokend.cycles_per_transaction
    # TokenM saves some traffic relative to always-broadcast TokenB.
    assert variants["TokenM"].bytes_per_miss <= tokenb.bytes_per_miss
if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
