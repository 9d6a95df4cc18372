"""Overlay golden: explorer outcomes under every overlay, pinned.

The determinism goldens pin un-armed runs and the benchmark reference
pins the standard explorer arms at one seed.  This file pins the rest:
each perturbation field alone, each fault class alone, each fault class
under lineage and tracing, lineage alone, tracing alone, and the
standard :func:`make_scenario` arms — on the torus and the tree, at two
seeds.  Any change to how an overlay hooks the simulator that moves an
event, a random draw or a counter shows up as a digest mismatch here.

Each digest covers the whole :class:`ScenarioOutcome` except the trace's
``queue_depth`` percentiles: they sample the kernel heap's own size,
which may legitimately change when a traced network takes a different
(but event-equivalent) fan-out path.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/testing/test_overlay_golden.py --record
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.faults import FAULT_KINDS
from repro.testing.explore import make_fault_scenario, make_scenario, run_scenario
from repro.testing.perturb import PerturbSpec

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "overlay_golden.json"
)

#: The adversarial value of each perturbation field (the explorer's).
PERTURB_FIELDS = {
    "kernel_jitter_ns": 12.0,
    "link_jitter_ns": 6.0,
    "reorder_jitter_ns": 10.0,
    "drop_request_prob": 0.10,
    "dup_request_prob": 0.10,
    "force_escalation_prob": 0.05,
}

SEEDS = (0, 1)
INTERCONNECTS = ("torus", "tree")


def _scenarios() -> dict:
    """label -> scenario, for every pinned overlay arm."""
    cases = {}
    for interconnect in INTERCONNECTS:
        for seed in SEEDS:
            prefix = f"{interconnect}/seed{seed}"
            standard = make_scenario(seed, "tokenb", interconnect, "false_sharing")
            bare = dataclasses.replace(
                standard, perturb=PerturbSpec(seed=seed),
                lineage=False, observe=False,
            )
            cases[f"{prefix}/standard"] = standard
            cases[f"{prefix}/lineage"] = dataclasses.replace(bare, lineage=True)
            cases[f"{prefix}/tracing"] = dataclasses.replace(bare, observe=True)
            for field, value in PERTURB_FIELDS.items():
                cases[f"{prefix}/{field}"] = dataclasses.replace(
                    bare, perturb=PerturbSpec(seed=seed, **{field: value})
                )
            for kind in FAULT_KINDS:
                armed = make_fault_scenario(seed, "tokenb", interconnect, kind)
                cases[f"{prefix}/{kind}"] = dataclasses.replace(
                    armed, lineage=False, observe=False
                )
                cases[f"{prefix}/{kind}+lineage+tracing"] = armed
    return cases


def _digest(outcome) -> str:
    document = dataclasses.asdict(outcome)
    document["telemetry"].pop("queue_depth", None)
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _observe(scenario) -> dict:
    outcome = run_scenario(scenario)
    return {
        "ok": outcome.ok,
        "events_fired": outcome.events_fired,
        "digest": _digest(outcome),
    }


CASES = _scenarios()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_overlay_outcome_matches_golden(golden, label):
    assert _observe(CASES[label]) == golden[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_overlay_golden.py --record")
    recorded = {label: _observe(CASES[label]) for label in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases -> {GOLDEN_PATH}")
