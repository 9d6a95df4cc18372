"""Preset key pin: every named preset builds the same case keys, in order.

A preset's case keys are what a warm store is indexed by, so a refactor
of :mod:`repro.campaign.presets` that reorders, adds or drops a case —
or changes one parameter document by a byte — turns CI's
``--expect-cached`` reruns into misses.  This file pins, for every name
in :data:`~repro.campaign.presets.SPEC_BUILDERS` and every option set
the CLI passes through :func:`~repro.campaign.presets.build_spec`, the
case count and the :func:`~repro.testing.signature.digest` of the
ordered key list under a pinned code fingerprint.  Re-record every
golden (only for an intended change to a preset) with
``PYTHONPATH=src python -m pytest -q --record-golden``.
"""

import pytest

from repro.campaign.presets import SPEC_BUILDERS, build_spec
from repro.testing.signature import digest

FINGERPRINT = "preset-key-pin"

#: Option sets beyond the defaults, and the presets each one applies to.
OPTION_SETS = {
    "smoke": (
        dict(smoke=True),
        ("explorer", "faults", "lineage", "workloads", "snapshots"),
    ),
    "seeds2-base3": (
        dict(seeds=2, seed_base=3),
        ("explorer", "faults", "lineage", "differential"),
    ),
}


def _labels() -> list[tuple[str, str, dict]]:
    labels = [(name, "default", {}) for name in sorted(SPEC_BUILDERS)]
    for option_label, (options, names) in OPTION_SETS.items():
        labels.extend((name, option_label, options) for name in names)
    return labels


LABELS = _labels()
IDS = [f"{name}/{option_label}" for name, option_label, _ in LABELS]


@pytest.fixture(autouse=True)
def pinned_fingerprint(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", FINGERPRINT)


@pytest.fixture(scope="module")
def golden(golden_file):
    return golden_file("preset_keys.json", IDS)


@pytest.mark.parametrize("name,option_label,options", LABELS, ids=IDS)
def test_preset_case_keys_match_golden(golden, name, option_label, options):
    keys = [case.key for case in build_spec(name, **options).cases()]
    golden.check(
        f"{name}/{option_label}", {"cases": len(keys), "digest": digest(keys)}
    )
