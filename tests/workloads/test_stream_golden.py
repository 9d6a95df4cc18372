"""The op streams themselves, pinned op for op.

The simulation goldens pin a stream only through its consequences: a
generator change that moved one think time in a phase no pinned run
reaches would pass them.  ``tests/golden/streams_golden.json`` pins the
trace text of every generator's output instead —
:func:`~repro.workloads.trace.dumps_streams` writes every field of every
op and each think time with ``repr`` — so a rewrite of a generator must
keep each draw, its order and its arguments.  Each generator's docstring
states its per-op draw order; this file is that contract's check.
Re-record (only for an intended stream change) with
``PYTHONPATH=src python -m pytest -q --record-golden``.
"""

import pytest

from repro.snapshot.fork import demo_family
from repro.testing.signature import digest
from repro.workloads import (
    ADVERSARIAL_PROGRAMS,
    ADVERSARIAL_WORKLOADS,
    CAMPAIGN_PROGRAMS,
    COMMERCIAL_WORKLOADS,
    PATTERN_KINDS,
    PatternSpec,
    WorkloadProgram,
    WorkloadSpec,
    dumps_streams,
    generate_streams,
)

GOLDEN_NAME = "streams_golden.json"
SEEDS = (42, 7)

#: The benchmark's cache-hot spec (benchmarks/suite/workloads.py),
#: restated so that an edit there cannot move this pin.
CACHE_HOT = WorkloadSpec(
    "cache_hot",
    ops_per_proc=1000,
    migratory_weight=0.0,
    producer_consumer_weight=0.0,
    read_mostly_weight=0.2,
    private_weight=0.8,
    streaming_weight=0.0,
    n_private_blocks=24,
    n_read_mostly_blocks=32,
)


def _program(program: WorkloadProgram, n_procs: int):
    return lambda seed: program.streams(n_procs, seed)


def _cases() -> dict:
    """label -> ``streams(seed)``, the streams that label pins."""
    cases = {}
    for name, spec in COMMERCIAL_WORKLOADS.items():
        for n_procs in (4, 16):
            # An odd length pins the final-slot fallback of a migratory
            # pick that no longer fits.
            cases[f"commercial/{name}/{n_procs}p"] = (
                lambda seed, spec=spec, n=n_procs:
                    generate_streams(spec.scaled(251), n, seed)
            )
    cases["cache-hot/16p"] = lambda seed: generate_streams(CACHE_HOT, 16, seed)
    for kind in PATTERN_KINDS:
        pattern = PatternSpec(f"golden_{kind}", kind, ops_per_proc=201)
        cases[f"pattern/{kind}/8p"] = _program(
            WorkloadProgram(f"golden_{kind}", [pattern]), 8
        )
    for name, program in CAMPAIGN_PROGRAMS.items():
        cases[f"program/{name}/8p"] = _program(program, 8)
    for name, generate in {
        **ADVERSARIAL_WORKLOADS, **ADVERSARIAL_PROGRAMS
    }.items():
        for ops in (40, 7):
            cases[f"adversarial/{name}/4p/{ops}"] = (
                lambda seed, generate=generate, ops=ops:
                    generate(seed, 4, ops)
            )
    family = demo_family(1600, 40, 4)
    cases["demo/warmup/8p"] = _program(family.warmup, 8)
    for name, tail in family.tails.items():
        cases[f"demo/{name}/8p"] = _program(tail, 8)
    return cases


CASES = _cases()
#: pin label -> (case, seed)
LABELS = {
    f"{case}/s{seed}": (case, seed) for case in CASES for seed in SEEDS
}


@pytest.fixture(scope="module")
def golden(golden_file):
    return golden_file(GOLDEN_NAME, LABELS)


@pytest.mark.parametrize("label", list(LABELS))
def test_stream_matches_recorded_golden(golden, label):
    case, seed = LABELS[label]
    text = dumps_streams(CASES[case](seed))
    golden.check(label, {"ops": text.count("\n") - 1, "digest": digest(text)})
