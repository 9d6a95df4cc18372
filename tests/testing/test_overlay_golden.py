"""Overlay golden: explorer outcomes under every overlay, pinned.

The determinism goldens pin un-armed runs and the benchmark reference
pins the standard explorer arms at one seed.  This file pins the rest:
each perturbation field alone, each fault class alone, each fault class
under lineage and tracing, lineage alone, tracing alone, and the
standard :func:`make_scenario` arms — on the torus and the tree, at two
seeds.  Any change to how an overlay hooks the simulator that moves an
event, a random draw or a counter shows up as a digest mismatch here.

Each pin is the outcome's ``events_fired`` and the digest of
:func:`~repro.testing.signature.outcome_signature`: the whole
:class:`ScenarioOutcome` except the trace's ``queue_depth``.  Re-record
every golden (only for an intended behaviour change) with
``PYTHONPATH=src python -m pytest -q --record-golden``.
"""

import dataclasses

import pytest

from repro.faults import FAULT_KINDS
from repro.testing.explore import make_fault_scenario, make_scenario, run_scenario
from repro.testing.perturb import PerturbSpec
from repro.testing.signature import outcome_signature, pin

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


CASES = _scenarios()


@pytest.fixture(scope="module")
def golden(golden_file):
    return golden_file("overlay_golden.json", CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_overlay_outcome_matches_golden(golden, label):
    golden.check(label, pin(outcome_signature(run_scenario(CASES[label]))))
