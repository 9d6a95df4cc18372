"""Preset key pin: every named preset builds the same case keys, in order.

A preset's case keys are what a warm store is indexed by, so a refactor
of :mod:`repro.campaign.presets` that reorders, adds or drops a case —
or changes one parameter document by a byte — turns CI's
``--expect-cached`` reruns into misses.  This file pins, for every name
in :data:`~repro.campaign.presets.SPEC_BUILDERS` and every option set
the CLI passes through :func:`~repro.campaign.presets.build_spec`, a
digest of the ordered key list under a pinned code fingerprint.

Regenerate (only for an intended change to a preset) with::

    PYTHONPATH=src python tests/campaign/test_preset_keys.py --record
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.campaign.presets import SPEC_BUILDERS, build_spec

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "preset_keys.json"

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


def _pin(name: str, options: dict) -> dict:
    keys = [case.key for case in build_spec(name, **options).cases()]
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    return {"cases": len(keys), "keys": digest}


def _record() -> dict:
    return {
        f"{name}/{option_label}": _pin(name, options)
        for name, option_label, options in _labels()
    }


@pytest.fixture(autouse=True)
def pinned_fingerprint(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_FINGERPRINT", FINGERPRINT)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_preset(golden):
    assert sorted(golden) == sorted(
        f"{name}/{option_label}" for name, option_label, _ in _labels()
    )


@pytest.mark.parametrize(
    "name,option_label,options",
    _labels(),
    ids=[f"{name}/{option_label}" for name, option_label, _ in _labels()],
)
def test_preset_case_keys_match_golden(golden, name, option_label, options):
    assert _pin(name, options) == golden[f"{name}/{option_label}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_preset_keys.py --record")
    os.environ["REPRO_CAMPAIGN_FINGERPRINT"] = FINGERPRINT
    recorded = _record()
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} presets -> {GOLDEN_PATH}")
