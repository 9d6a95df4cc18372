"""repro — a reproduction of *Token Coherence: Decoupling Performance and
Correctness* (Martin, Hill & Wood, ISCA 2003).

Quick start::

    from repro import SystemConfig, simulate, OLTP

    config = SystemConfig(protocol="tokenb", interconnect="torus")
    result = simulate(config, OLTP.scaled(500))
    print(result.summary())

Public surface:

* :class:`SystemConfig` — Table 1 system parameters.
* :func:`simulate` / :func:`build_system` — run a workload on a system.
* :class:`SimulationResult` — runtime, traffic, and Table 2 metrics.
* Workloads: :data:`OLTP`, :data:`APACHE`, :data:`SPECJBB`,
  :class:`WorkloadSpec`, and the Question 5 microbenchmarks.
* The Token Coherence core lives in :mod:`repro.core`; baseline
  protocols in :mod:`repro.protocols`; destination-set prediction
  (TokenM/TokenD and their predictors) in :mod:`repro.predict` —
  :func:`prediction_rates` summarizes a run's predictor scorecard.
"""

from repro.coherence import CoherenceChecker, CoherenceViolation
from repro.core import TokenInvariantError, TokenLedger
from repro.predict import build_predictor
from repro.predict.predictors import prediction_rates
from repro.system import (
    ALL_PROTOCOLS,
    DeadlockError,
    SimulationResult,
    System,
    SystemConfig,
    build_system,
    interconnect_for,
    protocol_grid,
    simulate,
    simulate_program,
)
from repro.workloads import (
    APACHE,
    CAMPAIGN_PROGRAMS,
    PatternSpec,
    WorkloadProgram,
    COMMERCIAL_WORKLOADS,
    OLTP,
    SPECJBB,
    WorkloadSpec,
    contended_sharing_spec,
    generate_streams,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_PROTOCOLS",
    "APACHE",
    "CAMPAIGN_PROGRAMS",
    "COMMERCIAL_WORKLOADS",
    "CoherenceChecker",
    "CoherenceViolation",
    "DeadlockError",
    "OLTP",
    "SPECJBB",
    "SimulationResult",
    "System",
    "PatternSpec",
    "SystemConfig",
    "WorkloadProgram",
    "TokenInvariantError",
    "TokenLedger",
    "WorkloadSpec",
    "__version__",
    "build_predictor",
    "build_system",
    "contended_sharing_spec",
    "prediction_rates",
    "generate_streams",
    "interconnect_for",
    "protocol_grid",
    "simulate",
    "simulate_program",
]
