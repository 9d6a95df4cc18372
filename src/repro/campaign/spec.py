"""Campaign specifications and content-addressed scenario identity.

A *campaign* is a declared set of scenarios — protocol-grid points ×
workloads × seeds × config overrides — executed by one of the registered
executors (:mod:`repro.campaign.executors`).  Two identities anchor the
whole subsystem:

:class:`ScenarioCase`
    One fully-determined unit of work: an executor ``kind`` plus a
    JSON-canonical ``params`` document.  Its ``key`` is a SHA-256 over
    the canonical JSON of ``(kind, params, fingerprint)`` — the same
    scenario always hashes to the same key, any parameter change (or a
    change to the simulator's source) produces a new one.  The key is
    what the on-disk store addresses results by, which is what makes
    half-finished campaigns resumable: rerunning executes exactly the
    keys the store does not hold.

:func:`code_fingerprint`
    A digest over every ``repro`` source file.  Simulations are
    bit-deterministic for a *fixed* simulator, so cached results are
    sound only until the code changes; folding the fingerprint into
    every scenario key invalidates the entire store the moment any
    source file differs.  ``REPRO_CAMPAIGN_FINGERPRINT`` overrides it
    (tests use this; CI pins it to the commit's tree hash implicitly by
    keying the store cache on ``hashFiles('src/**')``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

#: Cache for the computed source digest (the env override is consulted
#: on every call so tests can swap fingerprints without reimporting).
_source_digest: str | None = None


def canonical_json(payload) -> str:
    """The canonical encoding every hash and store record uses."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonicalize(params: dict) -> dict:
    """Round-trip ``params`` through canonical JSON.

    Normalizes tuples to lists and dict ordering, and rejects anything
    not JSON-representable — a scenario that cannot be serialized cannot
    be content-addressed or resumed.
    """
    return json.loads(canonical_json(params))


def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (or the env override)."""
    override = os.environ.get("REPRO_CAMPAIGN_FINGERPRINT")
    if override:
        return override
    global _source_digest
    if _source_digest is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _source_digest = digest.hexdigest()[:16]
    return _source_digest


class ScenarioCase:
    """One content-addressed unit of campaign work."""

    __slots__ = ("kind", "params", "fingerprint", "key")

    def __init__(self, kind: str, params: dict, fingerprint: str | None = None):
        self.kind = kind
        self.params = canonicalize(params)
        self.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )
        self.key = hashlib.sha256(
            canonical_json(
                {
                    "fingerprint": self.fingerprint,
                    "kind": self.kind,
                    "params": self.params,
                }
            ).encode()
        ).hexdigest()

    def __repr__(self) -> str:
        return f"ScenarioCase({self.kind!r}, key={self.key[:12]})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioCase) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)


@dataclasses.dataclass
class CampaignSpec:
    """A declarative sweep: one fully-formed param document per scenario.

    ``grid`` lists the documents in declaration order; presets build it
    with a comprehension over their axes.
    """

    name: str
    kind: str
    grid: list[dict] = dataclasses.field(default_factory=list)
    #: Where the CLI keeps this campaign's store unless told otherwise.
    default_store: str | None = None

    def cases(self) -> list[ScenarioCase]:
        """Deduplicated :class:`ScenarioCase` list (first occurrence wins)."""
        seen: dict[str, ScenarioCase] = {}
        for params in self.grid:
            case = ScenarioCase(self.kind, params)
            seen.setdefault(case.key, case)
        return list(seen.values())

    def __len__(self) -> int:
        return len(self.cases())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """The spec ``payload`` declares; a payload that is not an object,
        an unknown or missing field, an unregistered ``kind`` or a
        ``grid`` that is not a list of objects raises ValueError."""
        from repro.campaign.executors import EXECUTORS

        if not isinstance(payload, dict):
            found = type(payload).__name__
            raise ValueError(f"a campaign spec is a JSON object, not {found}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown campaign spec field(s) {', '.join(unknown)}"
            )
        absent = [name for name in ("name", "kind") if name not in payload]
        if absent:
            raise ValueError(
                f"missing campaign spec field(s) {', '.join(absent)}"
            )
        kind, grid = payload["kind"], payload.get("grid", [])
        if not isinstance(kind, str) or kind not in EXECUTORS:
            kinds = ", ".join(sorted(EXECUTORS))
            raise ValueError(f"unknown campaign kind {kind!r} (known: {kinds})")
        if not isinstance(grid, list) or not all(
            isinstance(params, dict) for params in grid
        ):
            raise ValueError("campaign spec grid must be a list of objects")
        return cls(
            name=payload["name"],
            kind=kind,
            grid=[dict(params) for params in grid],
            default_store=payload.get("default_store"),
        )
