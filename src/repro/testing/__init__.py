"""Adversarial schedule exploration for the protocol grid.

The paper's central claim is that correctness (token counting plus
persistent requests) is *decoupled* from the performance policy.  This
package proves it mechanically:

* :mod:`repro.testing.perturb` — a deterministic, seeded perturbation
  layer that jitters the event schedule and the links, duplicates and
  drops transient requests, and forces persistent-request escalation,
  through the shared overlay layer (:mod:`repro.overlay`).
* :mod:`repro.testing.explore` — the schedule explorer: seeds ×
  protocols × topologies × adversarial workloads, every oracle armed
  (strict data-value checking for token protocols, token conservation,
  liveness, writeback drainage).  Its grids sweep as campaigns
  (``python -m repro.campaign run --spec explorer``);
  ``python -m repro.testing.explore --repro FILE`` replays a repro.
* :mod:`repro.testing.differential` — differential conformance: the
  same workload through every protocol, comparing protocol-independent
  observables.
* :mod:`repro.testing.shrink` — failure minimization to a deterministic,
  replayable repro file (``campaign run`` writes one on a violation).
* :mod:`repro.testing.mutants` — deliberately broken protocol variants
  that prove each oracle actually fires.
* :mod:`repro.testing.signature` — the one definition of "same
  behaviour" that every golden pin and equivalence check reads.
"""

from repro.testing.perturb import Perturber, PerturbSpec

__all__ = [
    "Perturber",
    "PerturbSpec",
    "Scenario",
    "ScenarioOutcome",
    "run_scenario",
    "scenario_grid",
]

#: Names re-exported from the explore module.
_EXPLORE_EXPORTS = frozenset(
    ("Scenario", "ScenarioOutcome", "run_scenario", "scenario_grid")
)


def __getattr__(name):
    # Lazy so ``python -m repro.testing.explore`` does not import the
    # explore module twice (once here, once as ``__main__``).
    if name in _EXPLORE_EXPORTS:
        import importlib

        module = importlib.import_module("repro.testing.explore")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
