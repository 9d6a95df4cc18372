"""The repo's declared campaigns.

Every sweep that used to carry its own loop lives here as a
:class:`~repro.campaign.spec.CampaignSpec`:

* the **figure campaigns** — one spec per figure/table benchmark, plus
  :func:`figures_spec`, their deduplicated union (what the bench-suite
  prewarm and the CI store cache cover).  :func:`figure_series` is the
  same data keyed for rendering, consumed by
  :func:`repro.analysis.report.render_figures_from_store`;
* the **explorer campaign** — seeds × canonical protocol/topology grid
  × adversarial workloads (``python -m repro.testing.explore --jobs``);
* the **differential campaign** — cross-protocol conformance points;
* the **smoke campaign** — a minutes-scale grid CI runs twice to prove
  the second pass is a 100% store hit.

The figure case documents reproduce ``benchmarks/common.py``'s historic
parameterization exactly (same workloads, same ``SystemConfig`` fields),
so the migrated benches compute byte-identical results.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.campaign.spec import CampaignSpec, union_cases

#: Stream length per processor for the commercial-workload benches.
OPS_PER_PROC = 400


def _default_store(relative: str) -> str:
    """Anchor a spec's default store to the repo root, not the cwd.

    ``python -m repro.campaign`` must find the same store no matter
    where it is invoked from (``benchmarks/common.py`` anchors its store
    absolutely too).  The repo root is two levels above the ``repro``
    package in this source layout.
    """
    import repro

    root = Path(repro.__file__).resolve().parents[2]
    return str(root / relative)


def simulate_case_params(
    workload,
    protocol: str,
    interconnect: str,
    bandwidth: float | None = 3.2,
    directory_latency: float = 80.0,
    n_procs: int = 16,
    ops_per_proc: int = OPS_PER_PROC,
    **config_overrides,
) -> dict:
    """The ``simulate``-kind params document for one figure data point."""
    config = dict(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=n_procs,
        link_bandwidth_bytes_per_ns=bandwidth,
        directory_latency_ns=directory_latency,
    )
    config.update(config_overrides)
    return {
        "workload": dataclasses.asdict(workload),
        "ops_per_proc": ops_per_proc,
        "config": config,
    }


def _commercial_workloads():
    from repro.workloads import COMMERCIAL_WORKLOADS

    return COMMERCIAL_WORKLOADS


# ----------------------------------------------------------------------
# Figure series: figure -> renderer + {workload: {variant label: params}}
# ----------------------------------------------------------------------


def figure_series() -> list[dict]:
    """Render-ready descriptors for every figure/table the suite draws."""
    specs = _commercial_workloads()
    fig4a = {
        name: {
            "TokenB / tree": simulate_case_params(spec, "tokenb", "tree"),
            "Snooping / tree": simulate_case_params(spec, "snooping", "tree"),
            "TokenB / torus": simulate_case_params(spec, "tokenb", "torus"),
            "TokenB / tree (unlim bw)": simulate_case_params(
                spec, "tokenb", "tree", None
            ),
            "Snooping / tree (unlim bw)": simulate_case_params(
                spec, "snooping", "tree", None
            ),
            "TokenB / torus (unlim bw)": simulate_case_params(
                spec, "tokenb", "torus", None
            ),
        }
        for name, spec in specs.items()
    }
    fig4b = {
        name: {
            "TokenB / tree": simulate_case_params(spec, "tokenb", "tree"),
            "Snooping / tree": simulate_case_params(spec, "snooping", "tree"),
        }
        for name, spec in specs.items()
    }
    fig5a = {
        name: {
            "TokenB": simulate_case_params(spec, "tokenb", "torus"),
            "Hammer": simulate_case_params(spec, "hammer", "torus"),
            "Directory (DRAM)": simulate_case_params(spec, "directory", "torus"),
            "Directory (perfect)": simulate_case_params(
                spec, "directory", "torus", directory_latency=0.0
            ),
            "TokenB (unlim bw)": simulate_case_params(spec, "tokenb", "torus", None),
            "Hammer (unlim bw)": simulate_case_params(spec, "hammer", "torus", None),
            "Directory (unlim bw)": simulate_case_params(
                spec, "directory", "torus", None
            ),
        }
        for name, spec in specs.items()
    }
    fig5b = {
        name: {
            "TokenB": simulate_case_params(spec, "tokenb", "torus"),
            "Hammer": simulate_case_params(spec, "hammer", "torus"),
            "Directory": simulate_case_params(spec, "directory", "torus"),
        }
        for name, spec in specs.items()
    }
    table2 = {
        name: {"TokenB / torus": simulate_case_params(spec, "tokenb", "torus")}
        for name, spec in specs.items()
    }
    oltp = specs["oltp"]
    section7 = {
        "oltp": {
            "TokenB": simulate_case_params(oltp, "tokenb", "torus"),
            "TokenD": simulate_case_params(oltp, "tokend", "torus"),
            "TokenM": simulate_case_params(oltp, "tokenm", "torus"),
            "Directory": simulate_case_params(oltp, "directory", "torus"),
        }
    }
    return [
        {
            "figure": "fig4a",
            "title": "Figure 4a — Runtime: snooping v. token coherence",
            "render": "runtime",
            "baseline": "Snooping / tree",
            "data": fig4a,
        },
        {
            "figure": "fig4b",
            "title": "Figure 4b — Traffic: snooping v. token coherence",
            "render": "traffic",
            "baseline": "Snooping / tree",
            "data": fig4b,
        },
        {
            "figure": "fig5a",
            "title": "Figure 5a — Runtime: directory v. token coherence",
            "render": "runtime",
            "baseline": "TokenB",
            "data": fig5a,
        },
        {
            "figure": "fig5b",
            "title": "Figure 5b — Traffic: directory v. token coherence",
            "render": "traffic",
            "baseline": "TokenB",
            "data": fig5b,
        },
        {
            "figure": "table2",
            "title": "Table 2 — Overhead due to reissued requests (TokenB, torus)",
            "render": "table2",
            "data": table2,
        },
        {
            "figure": "section7",
            "title": "Section 7 — extension performance protocols (OLTP, torus)",
            "render": "runtime",
            "baseline": "TokenB",
            "data": section7,
        },
    ]


def _series_spec(name: str, figures: tuple[str, ...]) -> CampaignSpec:
    grid = [
        params
        for section in figure_series()
        if section["figure"] in figures
        for variants in section["data"].values()
        for params in variants.values()
    ]
    # Every figure-family spec shares the benchmark suite's store, so
    # the CLI and the benches serve each other's results.
    return CampaignSpec(
        name=name,
        kind="simulate",
        grid=grid,
        default_store=_default_store("benchmarks/.bench_cache"),
    )


def fig4a_spec() -> CampaignSpec:
    return _series_spec("fig4a", ("fig4a",))


def fig4b_spec() -> CampaignSpec:
    return _series_spec("fig4b", ("fig4b",))


def fig5a_spec() -> CampaignSpec:
    return _series_spec("fig5a", ("fig5a",))


def fig5b_spec() -> CampaignSpec:
    return _series_spec("fig5b", ("fig5b",))


def table2_spec() -> CampaignSpec:
    return _series_spec("table2", ("table2",))


def section7_spec() -> CampaignSpec:
    return _series_spec("section7", ("section7",))


def q5_spec() -> CampaignSpec:
    """Question 5 broadcast-scalability points (contended microbench)."""
    from repro.workloads.microbench import contended_sharing_spec

    contended = contended_sharing_spec(ops_per_proc=150)
    grid = [
        simulate_case_params(
            contended, protocol, "torus", None, n_procs=n, ops_per_proc=150
        )
        for n in (16, 32, 64)
        for protocol in ("tokenb", "directory")
    ]
    return CampaignSpec(
        name="q5",
        kind="simulate",
        grid=grid,
        default_store=_default_store("benchmarks/.bench_cache"),
    )


def ablations_spec() -> CampaignSpec:
    """Section 4.2 ablation points (OLTP, TokenB/torus variants)."""
    from repro.workloads import COMMERCIAL_WORKLOADS

    oltp = COMMERCIAL_WORKLOADS["oltp"]
    grid = [simulate_case_params(oltp, "tokenb", "torus")]
    grid.append(
        simulate_case_params(
            oltp, "tokenb", "torus", migratory_optimization=False
        )
    )
    grid.extend(
        simulate_case_params(
            oltp, "tokenb", "torus", reissue_timeout_multiplier=mult
        )
        for mult in (0.5, 2.0, 8.0)
    )
    grid.extend(
        simulate_case_params(oltp, "tokenb", "torus", tokens_per_block=t)
        for t in (16, 64, 256)
    )
    grid.extend(
        simulate_case_params(oltp, "tokenb", "torus", bandwidth=bw)
        for bw in (0.8, 1.6, 3.2, 6.4, None)
    )
    return CampaignSpec(
        name="ablations",
        kind="simulate",
        grid=grid,
        default_store=_default_store("benchmarks/.bench_cache"),
    )


def predict_spec() -> CampaignSpec:
    """Destination-set prediction tradeoff grid (fig-4/5 workloads).

    Every commercial workload × {TokenB, TokenD, Directory, TokenM with
    each predictor, TokenM group + bandwidth-adaptive hybrid}, all on
    the torus — the traffic-vs-latency sweep behind
    ``benchmarks/bench_predict_tradeoff.py`` / ``BENCH_predict.json``.
    The hybrid's adaptation claim needs a constrained-bandwidth point,
    so TokenB / TokenM / hybrid repeat at 0.8 B/ns.
    """
    from repro.config import PREDICTORS

    grid = []
    for spec in _commercial_workloads().values():
        grid.append(simulate_case_params(spec, "tokenb", "torus"))
        grid.append(simulate_case_params(spec, "tokend", "torus"))
        grid.append(simulate_case_params(spec, "directory", "torus"))
        grid.extend(
            simulate_case_params(spec, "tokenm", "torus", predictor=predictor)
            for predictor in PREDICTORS
        )
        grid.append(
            simulate_case_params(
                spec, "tokenm", "torus",
                predictor="group", bandwidth_adaptive=True,
            )
        )
        for protocol, extra in (
            ("tokenb", {}),
            ("tokenm", {"predictor": "group"}),
            ("tokenm", {"predictor": "group", "bandwidth_adaptive": True}),
        ):
            grid.append(
                simulate_case_params(spec, protocol, "torus", 0.8, **extra)
            )
    return CampaignSpec(
        name="predict",
        kind="simulate",
        grid=grid,
        default_store=_default_store("benchmarks/.bench_cache"),
    )


def program_case_params(
    program,
    protocol: str,
    interconnect: str,
    bandwidth: float | None = 3.2,
    directory_latency: float = 80.0,
    n_procs: int = 16,
    **config_overrides,
) -> dict:
    """The ``simulate``-kind params document for one program run.

    Phase lengths travel inside the program document, so there is no
    separate ``ops_per_proc`` — scale the program itself
    (:meth:`~repro.workloads.programs.WorkloadProgram.scaled`).
    """
    config = dict(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=n_procs,
        link_bandwidth_bytes_per_ns=bandwidth,
        directory_latency_ns=directory_latency,
    )
    config.update(config_overrides)
    return {"program": program.to_dict(), "config": config}


#: Constrained-bandwidth point the per-phase ranking comparison runs at
#: (broadcast's fan-out only costs runtime once links can saturate).
WORKLOADS_PHASE_BW = 0.8

#: Protocols the per-phase ranking flip is measured over.
WORKLOADS_PHASE_PROTOCOLS = ("tokenb", "directory", "hammer")

#: Protocols the program-level sweep covers (the performance grid; the
#: null protocol has no performance story to rank).
WORKLOADS_PROGRAM_PROTOCOLS = (
    "tokenb", "snooping", "directory", "hammer", "tokend", "tokenm"
)


def workloads_spec(smoke: bool = False) -> CampaignSpec:
    """Phase-structured workload programs × protocols × topologies.

    The full sweep runs every :data:`CAMPAIGN_PROGRAMS` program over
    the canonical performance-protocol grid (both topologies where
    legal), plus each program's phases in isolation at
    :data:`WORKLOADS_PHASE_BW` so ``bench_workload_suite.py`` can show
    protocol rankings flipping between phases of one program.

    ``smoke=True`` is the CI slice: every program scaled to 80 ops over
    the default-interconnect pairs — minutes-scale, run twice with
    ``--expect-cached`` to prove program scenarios resume from the
    store like any other kind.
    """
    from repro.system.grid import interconnect_for, protocol_grid
    from repro.workloads.programs import CAMPAIGN_PROGRAMS

    grid: list[dict] = []
    if smoke:
        for program in CAMPAIGN_PROGRAMS.values():
            small = program.scaled(80)
            grid.extend(
                program_case_params(
                    small, protocol, interconnect_for(protocol), n_procs=8
                )
                for protocol in ("tokenb", "snooping", "directory",
                                 "tokend", "tokenm")
            )
        # The CI smoke slice keeps its own store (mirrors the smoke
        # campaign job and its actions/cache path).
        return CampaignSpec(
            name="workloads",
            kind="simulate",
            grid=grid,
            default_store=_default_store("campaigns/workloads"),
        )
    for program in CAMPAIGN_PROGRAMS.values():
        grid.extend(
            program_case_params(program, protocol, interconnect)
            for protocol, interconnect in protocol_grid(
                WORKLOADS_PROGRAM_PROTOCOLS
            )
        )
    for program in CAMPAIGN_PROGRAMS.values():
        for index in range(len(program.phases)):
            isolated = program.isolate_phase(index)
            grid.extend(
                program_case_params(
                    isolated, protocol, "torus", WORKLOADS_PHASE_BW
                )
                for protocol in WORKLOADS_PHASE_PROTOCOLS
            )
    # The full grid shares the benchmark suite's store (like every other
    # bench-declared spec), so CLI runs and bench_workload_suite.py
    # serve each other's results.
    return CampaignSpec(
        name="workloads",
        kind="simulate",
        grid=grid,
        default_store=_default_store("benchmarks/.bench_cache"),
    )


def family_case_params(
    family,
    protocol: str,
    interconnect: str,
    bandwidth: float | None = 3.2,
    n_procs: int = 8,
    seed: int = 0,
    **config_overrides,
) -> dict:
    """The ``fork_family``-kind params document for one scenario family."""
    config = dict(
        protocol=protocol,
        interconnect=interconnect,
        n_procs=n_procs,
        seed=seed,
        link_bandwidth_bytes_per_ns=bandwidth,
    )
    config.update(config_overrides)
    return {"family": family.to_dict(), "config": config}


def snapshots_spec(smoke: bool = False) -> CampaignSpec:
    """Warmup-once scenario families across the full protocol grid.

    Each case runs the canonical warmup-dominated demo family
    (:func:`repro.snapshot.fork.demo_family`) with every tail forked
    from the warmup checkpoint; results are bit-identical to cold
    replays (the snapshot determinism goldens pin this), so records are
    content-addressed like any other kind.  ``smoke=True`` is the CI
    slice: a 3-tail family over five default-interconnect pairs, run
    twice with ``--expect-cached`` and a shared
    ``REPRO_CHECKPOINT_STORE`` to prove checkpoint reuse across
    processes.
    """
    from repro.snapshot.fork import demo_family
    from repro.system.grid import ALL_PROTOCOLS, interconnect_for, protocol_grid

    if smoke:
        family = demo_family(warmup_ops=160, tail_ops=30, n_tails=3)
        grid = [
            family_case_params(family, protocol, interconnect_for(protocol))
            for protocol in ("tokenb", "snooping", "directory",
                             "tokend", "tokenm")
        ]
    else:
        family = demo_family(warmup_ops=240, tail_ops=40, n_tails=4)
        grid = [
            family_case_params(family, protocol, interconnect)
            for protocol, interconnect in protocol_grid(ALL_PROTOCOLS)
        ]
    return CampaignSpec(
        name="snapshots",
        kind="fork_family",
        grid=grid,
        default_store=_default_store("campaigns/snapshots"),
    )


def figures_spec() -> CampaignSpec:
    """The union of every figure-suite campaign (the bench prewarm set)."""
    parts = [
        fig4a_spec(),
        fig4b_spec(),
        fig5a_spec(),
        fig5b_spec(),
        table2_spec(),
        section7_spec(),
        q5_spec(),
        ablations_spec(),
        predict_spec(),
    ]
    return CampaignSpec(
        name="figures",
        kind="simulate",
        grid=[case.params for case in union_cases(parts)],
        default_store=_default_store("benchmarks/.bench_cache"),
    )


# ----------------------------------------------------------------------
# Explorer / differential / smoke campaigns
# ----------------------------------------------------------------------


def explorer_spec(
    seeds: int = 8,
    seed_base: int = 0,
    protocols=None,
    workloads=None,
    smoke: bool = False,
) -> CampaignSpec:
    """The adversarial schedule explorer's sweep as a campaign.

    ``smoke=True`` matches ``python -m repro.testing.explore --smoke``
    exactly: :data:`~repro.testing.explore.SMOKE_SEEDS` seeds with the
    shared reduced-scale scenario transform.
    """
    from repro.system.grid import ALL_PROTOCOLS
    from repro.testing.explore import (
        EXPLORER_WORKLOADS,
        SMOKE_SEEDS,
        scenario_grid,
        smoke_scenarios,
    )

    scenarios = scenario_grid(
        range(seed_base, seed_base + (min(seeds, SMOKE_SEEDS) if smoke else seeds)),
        protocols if protocols is not None else ALL_PROTOCOLS,
        workloads if workloads is not None else tuple(EXPLORER_WORKLOADS),
    )
    if smoke:
        scenarios = smoke_scenarios(scenarios)
    return CampaignSpec(
        name="explorer",
        kind="explore",
        grid=[scenario.to_dict() for scenario in scenarios],
        default_store=_default_store("campaigns/explorer"),
    )


#: Fault intensities the full resilience campaign sweeps: 1.0 keeps
#: windows short and targeted; 2.0 doubles durations/probabilities and
#: widens corruption to every node.
FAULTS_INTENSITIES = (1.0, 2.0)


def faults_spec(
    seeds: int = 8, seed_base: int = 0, smoke: bool = False
) -> CampaignSpec:
    """The resilience campaign: fault intensity x protocol x topology.

    Every scenario schedules one fault class on an otherwise healthy,
    unperturbed fabric — link flaps, degraded links, corruption drops
    (token protocols only), node pause/resume — with the recovery
    oracles armed; ``repro.campaign report --spec faults`` renders the
    per-fault-class resilience summary.  ``smoke=True`` is the CI
    slice: :data:`~repro.testing.explore.SMOKE_SEEDS` seeds at base
    intensity with the shared reduced-scale transform, run twice with
    ``--expect-cached``.
    """
    from repro.testing.explore import (
        SMOKE_SEEDS,
        fault_scenario_grid,
        smoke_scenarios,
    )

    if smoke:
        scenarios = smoke_scenarios(
            fault_scenario_grid(
                range(seed_base, seed_base + min(seeds, SMOKE_SEEDS)),
                intensities=(1.0,),
            )
        )
    else:
        scenarios = fault_scenario_grid(
            range(seed_base, seed_base + seeds),
            intensities=FAULTS_INTENSITIES,
        )
    return CampaignSpec(
        name="faults",
        kind="explore",
        grid=[scenario.to_dict() for scenario in scenarios],
        default_store=_default_store("campaigns/faults"),
    )


def lineage_spec(
    seeds: int = 4, seed_base: int = 0, smoke: bool = False
) -> CampaignSpec:
    """The custody-audit campaign: token protocols, recorder armed.

    Every scenario runs with the lineage recorder installed and the
    token outcome contract as a standing oracle — half the grid under
    the full adversarial perturbations, half under corruption-drop
    fault windows (the fault class whose chains must terminate as
    ``absorbed-by-reissue``).  ``repro.campaign report --spec lineage``
    renders the custody summary (events, transfers, terminal outcomes,
    absorbed reissues per protocol/topology).  ``smoke=True`` is the CI
    slice: :data:`~repro.testing.explore.SMOKE_SEEDS` seeds with the
    shared reduced-scale transform, run twice with ``--expect-cached``.
    """
    from repro.system.grid import ALL_PROTOCOLS, is_token_protocol
    from repro.testing.explore import (
        SMOKE_SEEDS,
        fault_scenario_grid,
        scenario_grid,
        smoke_scenarios,
    )

    token_protocols = tuple(p for p in ALL_PROTOCOLS if is_token_protocol(p))
    seed_range = range(
        seed_base, seed_base + (min(seeds, SMOKE_SEEDS) if smoke else seeds)
    )
    scenarios = scenario_grid(seed_range, token_protocols) + (
        fault_scenario_grid(
            seed_range, token_protocols, fault_classes=("corrupt",)
        )
    )
    if smoke:
        scenarios = smoke_scenarios(scenarios)
    return CampaignSpec(
        name="lineage",
        kind="explore",
        grid=[scenario.to_dict() for scenario in scenarios],
        default_store=_default_store("campaigns/lineage"),
    )


def differential_spec(seeds: int = 4, seed_base: int = 0, workloads=None) -> CampaignSpec:
    """Cross-protocol conformance: workloads × seeds (flat + phased)."""
    from repro.testing.explore import EXPLORER_WORKLOADS

    names = workloads if workloads is not None else tuple(EXPLORER_WORKLOADS)
    return CampaignSpec(
        name="differential",
        kind="differential",
        base={"n_procs": 4, "ops_per_proc": 40},
        axes=[
            ("workload", list(names)),
            ("seed", list(range(seed_base, seed_base + seeds))),
        ],
        default_store=_default_store("campaigns/differential"),
    )


def smoke_spec() -> CampaignSpec:
    """A small, fast grid campaign: CI runs it twice to prove resume."""
    specs = _commercial_workloads()
    grid = [
        simulate_case_params(
            specs[name], protocol, interconnect, n_procs=8, ops_per_proc=80
        )
        for name in ("apache", "oltp")
        for protocol, interconnect in (
            ("tokenb", "torus"),
            ("directory", "torus"),
            ("snooping", "tree"),
            ("tokend", "torus"),
            ("tokenm", "torus"),
        )
    ]
    return CampaignSpec(
        name="smoke",
        kind="simulate",
        grid=grid,
        default_store=_default_store("campaigns/smoke"),
    )


#: Named specs ``python -m repro.campaign`` resolves (callables taking
#: optional kwargs).
SPEC_BUILDERS = {
    "figures": figures_spec,
    "fig4a": fig4a_spec,
    "fig4b": fig4b_spec,
    "fig5a": fig5a_spec,
    "fig5b": fig5b_spec,
    "table2": table2_spec,
    "section7": section7_spec,
    "q5": q5_spec,
    "ablations": ablations_spec,
    "predict": predict_spec,
    "explorer": explorer_spec,
    "faults": faults_spec,
    "lineage": lineage_spec,
    "differential": differential_spec,
    "smoke": smoke_spec,
    "workloads": workloads_spec,
    "snapshots": snapshots_spec,
}


def build_spec(
    name: str,
    seeds: int = 8,
    seed_base: int = 0,
    smoke: bool = False,
) -> CampaignSpec:
    """Build a named preset, routing only the options it understands.

    The one place that knows which presets take seed/smoke options;
    every CLI subcommand resolves its ``--spec`` through it.  Raises
    :class:`KeyError` for unknown names.
    """
    builder = SPEC_BUILDERS[name]
    kwargs: dict = {}
    if name in ("explorer", "faults", "lineage"):
        kwargs = dict(seeds=seeds, seed_base=seed_base, smoke=smoke)
    elif name == "differential":
        kwargs = dict(seeds=seeds, seed_base=seed_base)
    elif name in ("workloads", "snapshots"):
        kwargs = dict(smoke=smoke)
    return builder(**kwargs)
