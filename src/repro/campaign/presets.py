"""The repo's declared campaigns: the one place a sweep's data points live.

Every ``simulate`` preset is a **labelled series**, ``{group: {label:
params}}`` — the shape the paper's figures have (workload → variant)
and the shape everything downstream reads:

* :func:`series` builds one by name (:data:`SERIES`); the campaign
  CLI flattens it into a spec's grid (groups, then labels, in order);
* :func:`figure_series` adds each figure's title and renderer
  (:data:`FIGURES`) for :func:`repro.analysis.report.render_figures_from_store`;
* the benches read results back with the same keys through
  ``benchmarks/common.py``'s lookup, so no bench restates a grid.

:func:`figures_spec` is the union of the figure-suite series (what the
bench prewarm and the CI store cache cover).  The other kinds are
builders: the explorer (seeds × canonical protocol/topology grid ×
adversarial workloads), faults, lineage, differential (un-perturbed
explorer scenarios) and snapshots presets.  :data:`SPEC_BUILDERS`
names every preset, and :func:`build_spec` hands each builder the CLI
options its signature takes.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from pathlib import Path

from repro.campaign.spec import CampaignSpec

#: Stream length per processor for the commercial-workload benches.
OPS_PER_PROC = 400

#: The store every bench-read preset shares, so the CLI and the benches
#: serve each other's results.
BENCH_STORE = "benchmarks/.bench_cache"


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


def _commercial_workloads():
    from repro.workloads import COMMERCIAL_WORKLOADS

    return COMMERCIAL_WORKLOADS


def _variants(workload, variants: dict) -> dict:
    """``{label: params}`` of one workload under a variant table.

    A variant table maps a label to ``(protocol, interconnect,
    overrides)``, the overrides being :func:`simulate_case_params`
    keywords.
    """
    return {
        label: simulate_case_params(workload, protocol, interconnect, **overrides)
        for label, (protocol, interconnect, overrides) in variants.items()
    }


# ----------------------------------------------------------------------
# Labelled series: {group: {label: params}}
# ----------------------------------------------------------------------

_UNLIMITED = {"bandwidth": None}

#: Every figure/table the suite draws: its title, renderer, baseline
#: label, the workloads it covers (every commercial one unless listed)
#: and its variant table.
FIGURES = {
    "fig4a": {
        "title": "Figure 4a — Runtime: snooping v. token coherence",
        "render": "runtime",
        "baseline": "Snooping / tree",
        "variants": {
            "TokenB / tree": ("tokenb", "tree", {}),
            "Snooping / tree": ("snooping", "tree", {}),
            "TokenB / torus": ("tokenb", "torus", {}),
            "TokenB / tree (unlim bw)": ("tokenb", "tree", _UNLIMITED),
            "Snooping / tree (unlim bw)": ("snooping", "tree", _UNLIMITED),
            "TokenB / torus (unlim bw)": ("tokenb", "torus", _UNLIMITED),
        },
    },
    "fig4b": {
        "title": "Figure 4b — Traffic: snooping v. token coherence",
        "render": "traffic",
        "baseline": "Snooping / tree",
        "variants": {
            "TokenB / tree": ("tokenb", "tree", {}),
            "Snooping / tree": ("snooping", "tree", {}),
        },
    },
    "fig5a": {
        "title": "Figure 5a — Runtime: directory v. token coherence",
        "render": "runtime",
        "baseline": "TokenB",
        "variants": {
            "TokenB": ("tokenb", "torus", {}),
            "Hammer": ("hammer", "torus", {}),
            "Directory (DRAM)": ("directory", "torus", {}),
            "Directory (perfect)": (
                "directory", "torus", {"directory_latency": 0.0}
            ),
            "TokenB (unlim bw)": ("tokenb", "torus", _UNLIMITED),
            "Hammer (unlim bw)": ("hammer", "torus", _UNLIMITED),
            "Directory (unlim bw)": ("directory", "torus", _UNLIMITED),
        },
    },
    "fig5b": {
        "title": "Figure 5b — Traffic: directory v. token coherence",
        "render": "traffic",
        "baseline": "TokenB",
        "variants": {
            "TokenB": ("tokenb", "torus", {}),
            "Hammer": ("hammer", "torus", {}),
            "Directory": ("directory", "torus", {}),
        },
    },
    "table2": {
        "title": "Table 2 — Overhead due to reissued requests (TokenB, torus)",
        "render": "table2",
        "variants": {"TokenB / torus": ("tokenb", "torus", {})},
    },
    "section7": {
        "title": "Section 7 — extension performance protocols (OLTP, torus)",
        "render": "runtime",
        "baseline": "TokenB",
        "workloads": ("oltp",),
        "variants": {
            "TokenB": ("tokenb", "torus", {}),
            "TokenD": ("tokend", "torus", {}),
            "TokenM": ("tokenm", "torus", {}),
            "Directory": ("directory", "torus", {}),
        },
    },
}


def _figure(name: str) -> dict:
    figure = FIGURES[name]
    specs = _commercial_workloads()
    return {
        workload: _variants(specs[workload], figure["variants"])
        for workload in figure.get("workloads", specs)
    }


def figure_series() -> list[dict]:
    """Render-ready descriptors for every figure/table the suite draws."""
    return [
        {
            "figure": name,
            "title": figure["title"],
            "render": figure["render"],
            "baseline": figure.get("baseline"),
            "data": _figure(name),
        }
        for name, figure in FIGURES.items()
    ]


def _q5() -> dict:
    """Question 5 broadcast-scalability points (contended microbench):
    ``{n_procs: {protocol: params}}``."""
    from repro.workloads.microbench import contended_sharing_spec

    contended = contended_sharing_spec(ops_per_proc=150)
    return {
        n: {
            protocol: simulate_case_params(
                contended, protocol, "torus", None, n_procs=n, ops_per_proc=150
            )
            for protocol in ("tokenb", "directory")
        }
        for n in (16, 32, 64)
    }


def _ablations() -> dict:
    """Section 4.2 ablation points (OLTP, TokenB/torus variants), one
    group per knob, labelled by its value."""
    oltp = _commercial_workloads()["oltp"]

    def point(**overrides):
        return simulate_case_params(oltp, "tokenb", "torus", **overrides)

    return {
        "migratory": {"on": point(), "off": point(migratory_optimization=False)},
        "reissue_timeout": {
            mult: point(reissue_timeout_multiplier=mult) for mult in (0.5, 2.0, 8.0)
        },
        "token_count": {t: point(tokens_per_block=t) for t in (16, 64, 256)},
        "bandwidth": {bw: point(bandwidth=bw) for bw in (0.8, 1.6, 3.2, 6.4, None)},
    }


#: Destination-set prediction variants at full link bandwidth.
PREDICT_VARIANTS = {
    "TokenB": ("tokenb", "torus", {}),
    "TokenD": ("tokend", "torus", {}),
    "Directory": ("directory", "torus", {}),
    "TokenM (owner)": ("tokenm", "torus", {"predictor": "owner"}),
    "TokenM (bcast-if-shared)": (
        "tokenm", "torus", {"predictor": "broadcast-if-shared"}
    ),
    "TokenM (group)": ("tokenm", "torus", {"predictor": "group"}),
    "TokenM (hybrid)": (
        "tokenm", "torus", {"predictor": "group", "bandwidth_adaptive": True}
    ),
}

#: The constrained link bandwidth the hybrid's adaptation claim needs.
PREDICT_CONSTRAINED_BW = 0.8

#: The variants that repeat at :data:`PREDICT_CONSTRAINED_BW`.
PREDICT_CONSTRAINED_VARIANTS = {
    label: (protocol, interconnect, {**overrides, "bandwidth": PREDICT_CONSTRAINED_BW})
    for label, (protocol, interconnect, overrides) in PREDICT_VARIANTS.items()
    if label in ("TokenB", "TokenM (group)", "TokenM (hybrid)")
}


def constrained(workload: str) -> str:
    """The predict series group of ``workload`` at constrained bandwidth."""
    return f"{workload} @ {PREDICT_CONSTRAINED_BW} B/ns"


def _predict() -> dict:
    """Destination-set prediction tradeoff grid (fig-4/5 workloads).

    Every commercial workload × :data:`PREDICT_VARIANTS` on the torus —
    the traffic-vs-latency sweep behind
    ``benchmarks/bench_predict_tradeoff.py`` / ``BENCH_predict.json`` —
    each followed by its :func:`constrained` group.
    """
    series = {}
    for name, spec in _commercial_workloads().items():
        series[name] = _variants(spec, PREDICT_VARIANTS)
        series[constrained(name)] = _variants(spec, PREDICT_CONSTRAINED_VARIANTS)
    return series


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

#: The default-interconnect protocols every CI smoke slice covers.
SMOKE_PROTOCOLS = ("tokenb", "snooping", "directory", "tokend", "tokenm")


def _workloads() -> dict:
    """Phase-structured workload programs × protocols × topologies.

    One group per :data:`CAMPAIGN_PROGRAMS` program over the canonical
    performance-protocol grid (both topologies where legal, labelled
    ``protocol/interconnect``), then one group per isolated phase
    (named ``program@phase``) at :data:`WORKLOADS_PHASE_BW`, labelled by
    protocol — so ``bench_workload_suite.py`` can show protocol rankings
    flipping between phases of one program.
    """
    from repro.system.grid import protocol_grid
    from repro.workloads.programs import CAMPAIGN_PROGRAMS

    series = {
        name: {
            f"{protocol}/{interconnect}": program_case_params(
                program, protocol, interconnect
            )
            for protocol, interconnect in protocol_grid(WORKLOADS_PROGRAM_PROTOCOLS)
        }
        for name, program in CAMPAIGN_PROGRAMS.items()
    }
    for program in CAMPAIGN_PROGRAMS.values():
        for index in range(len(program.phases)):
            isolated = program.isolate_phase(index)
            series[isolated.name] = {
                protocol: program_case_params(
                    isolated, protocol, "torus", WORKLOADS_PHASE_BW
                )
                for protocol in WORKLOADS_PHASE_PROTOCOLS
            }
    return series


#: Every bench-read ``simulate`` preset's labelled-series builder.
SERIES = {
    **{name: functools.partial(_figure, name) for name in FIGURES},
    "q5": _q5,
    "ablations": _ablations,
    "predict": _predict,
    "workloads": _workloads,
}

#: The presets :func:`figures_spec` unions (the bench prewarm set).
FIGURE_SUITE = (*FIGURES, "q5", "ablations", "predict")


def series(name: str) -> dict:
    """The labelled series ``{group: {label: params}}`` of a preset."""
    return SERIES[name]()


def _grid(data: dict) -> list[dict]:
    return [params for labels in data.values() for params in labels.values()]


def series_spec(name: str, data: dict, store: str = BENCH_STORE) -> CampaignSpec:
    """A labelled series as a ``simulate`` spec: groups, then labels, in
    order (a point repeated under two labels is one case)."""
    return CampaignSpec(
        name=name,
        kind="simulate",
        grid=_grid(data),
        default_store=_default_store(store),
    )


def _bench_spec(name: str) -> CampaignSpec:
    return series_spec(name, series(name))


def figures_spec() -> CampaignSpec:
    """The union of every figure-suite preset (the bench prewarm set)."""
    return CampaignSpec(
        name="figures",
        kind="simulate",
        grid=[params for name in FIGURE_SUITE for params in _grid(series(name))],
        default_store=_default_store(BENCH_STORE),
    )


def workloads_spec(smoke: bool = False) -> CampaignSpec:
    """The workload-program preset (:func:`_workloads`).

    ``smoke=True`` is the CI slice: every program scaled to 80 ops over
    the :data:`SMOKE_PROTOCOLS` default-interconnect pairs at 8
    processors — minutes-scale, run twice with ``--expect-cached`` to
    prove program scenarios resume from the store like any other kind.
    It keeps its own store (mirroring the smoke campaign job and its
    actions/cache path).
    """
    if not smoke:
        return _bench_spec("workloads")
    from repro.system.grid import interconnect_for
    from repro.workloads.programs import CAMPAIGN_PROGRAMS

    slice_ = {
        name: {
            f"{protocol}/{interconnect_for(protocol)}": program_case_params(
                program.scaled(80), protocol, interconnect_for(protocol), n_procs=8
            )
            for protocol in SMOKE_PROTOCOLS
        }
        for name, program in CAMPAIGN_PROGRAMS.items()
    }
    return series_spec("workloads", slice_, "campaigns/workloads")


def smoke_spec() -> CampaignSpec:
    """A small, fast grid campaign: CI runs it twice to prove resume."""
    specs = _commercial_workloads()
    pairs = (
        ("tokenb", "torus"),
        ("directory", "torus"),
        ("snooping", "tree"),
        ("tokend", "torus"),
        ("tokenm", "torus"),
    )
    slice_ = {
        name: {
            f"{protocol}/{interconnect}": simulate_case_params(
                specs[name], protocol, interconnect, n_procs=8, ops_per_proc=80
            )
            for protocol, interconnect in pairs
        }
        for name in ("apache", "oltp")
    }
    return series_spec("smoke", slice_, "campaigns/smoke")


# ----------------------------------------------------------------------
# Snapshot / explorer / faults / lineage / differential campaigns
# ----------------------------------------------------------------------


def snapshots_spec(smoke: bool = False) -> CampaignSpec:
    """Warmup-once scenario families across the full protocol grid.

    Each case runs the canonical warmup-dominated demo family
    (:func:`repro.snapshot.fork.demo_family`) with every tail forked
    from an in-memory snapshot of its warmup; results are bit-identical
    to cold replays (the snapshot determinism goldens pin this), so
    records are content-addressed like any other kind, and the store
    memoizes whole families.  ``smoke=True`` is the CI slice: a 3-tail
    family over the :data:`SMOKE_PROTOCOLS` default-interconnect pairs,
    run twice with ``--expect-cached``.
    """
    from repro.snapshot.fork import demo_family
    from repro.system.grid import ALL_PROTOCOLS, interconnect_for, protocol_grid

    if smoke:
        family = demo_family(warmup_ops=160, tail_ops=30, n_tails=3)
        grid = [
            family_case_params(family, protocol, interconnect_for(protocol))
            for protocol in SMOKE_PROTOCOLS
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


#: Seed count of every explore preset (explorer, faults, lineage,
#: differential) unless a caller or ``--seeds`` says otherwise.
DEFAULT_SEEDS = 8


def _explore_spec(
    name: str, scenarios_for, seeds: int, seed_base: int, smoke: bool
) -> CampaignSpec:
    """An ``explore`` preset: ``scenarios_for(seed range)`` as a campaign.

    ``smoke=True`` is the CI slice: at most
    :data:`~repro.testing.explore.SMOKE_SEEDS` seeds with the shared
    reduced-scale scenario transform, run twice with ``--expect-cached``.
    """
    from repro.testing.explore import SMOKE_SEEDS, smoke_scenarios

    count = min(seeds, SMOKE_SEEDS) if smoke else seeds
    scenarios = scenarios_for(range(seed_base, seed_base + count))
    if smoke:
        scenarios = smoke_scenarios(scenarios)
    return CampaignSpec(
        name=name,
        kind="explore",
        grid=[scenario.to_dict() for scenario in scenarios],
        default_store=_default_store(f"campaigns/{name}"),
    )


def explorer_spec(
    seeds: int = DEFAULT_SEEDS, seed_base: int = 0, smoke: bool = False
) -> CampaignSpec:
    """The adversarial schedule explorer's sweep as a campaign.

    The scenarios of :func:`~repro.testing.explore.scenario_grid`, in
    its order: ``campaign run --spec explorer`` is the explorer's sweep,
    and a recorded violation shrinks to ``<store>/repro_failure.json``.
    """
    from repro.testing.explore import scenario_grid

    return _explore_spec("explorer", scenario_grid, seeds, seed_base, smoke)


#: Fault intensities the full resilience campaign sweeps: 1.0 keeps
#: windows short and targeted; 2.0 doubles durations/probabilities and
#: widens corruption to every node.
FAULTS_INTENSITIES = (1.0, 2.0)


def faults_spec(
    seeds: int = DEFAULT_SEEDS, seed_base: int = 0, smoke: bool = False
) -> CampaignSpec:
    """The resilience campaign: fault intensity x protocol x topology.

    Every scenario schedules one fault class on an otherwise healthy,
    unperturbed fabric — link flaps, degraded links, corruption drops
    (token protocols only), node pause/resume — with the recovery
    oracles armed; ``repro.campaign report --spec faults`` renders the
    per-fault-class resilience summary.  The smoke slice runs at base
    intensity only.
    """
    from repro.testing.explore import fault_scenario_grid

    return _explore_spec(
        "faults",
        functools.partial(
            fault_scenario_grid,
            intensities=(1.0,) if smoke else FAULTS_INTENSITIES,
        ),
        seeds, seed_base, smoke,
    )


def lineage_spec(
    seeds: int = DEFAULT_SEEDS, seed_base: int = 0, smoke: bool = False
) -> CampaignSpec:
    """The custody-audit campaign: token protocols, recorder armed.

    Every scenario runs with the lineage recorder installed and the
    token outcome contract as a standing oracle — half the grid under
    the full adversarial perturbations, half under corruption-drop
    fault windows (the fault class whose chains must terminate as
    ``absorbed-by-reissue``).  ``repro.campaign report --spec lineage``
    renders the custody summary (events, transfers, terminal outcomes,
    absorbed reissues per protocol/topology).
    """
    from repro.system.grid import TOKEN_PROTOCOLS
    from repro.testing.explore import fault_scenario_grid, scenario_grid

    def scenarios_for(seed_range):
        return scenario_grid(seed_range, TOKEN_PROTOCOLS) + (
            fault_scenario_grid(
                seed_range, TOKEN_PROTOCOLS, fault_classes=("corrupt",)
            )
        )

    return _explore_spec("lineage", scenarios_for, seeds, seed_base, smoke)


def differential_spec(
    seeds: int = DEFAULT_SEEDS, seed_base: int = 0
) -> CampaignSpec:
    """Every protocol on the same streams, un-perturbed.

    For each adversarial workload × seed, one explorer scenario per
    protocol on its canonical interconnect (4 procs × 40 ops).
    :meth:`System.finish` checks that every dispatched operation
    completed exactly once, so each case's stream-determined results
    are checked without a reference protocol.  These plain schedules
    are kept beside the explorer's armed ones: they found Directory's
    eviction-storm deadlock and Hammer's stale memory data.
    """
    from repro.system.grid import ALL_PROTOCOLS, interconnect_for
    from repro.testing.explore import EXPLORER_WORKLOADS, Scenario

    def scenarios_for(seed_range):
        return [
            Scenario(seed, protocol, interconnect_for(protocol), workload)
            for workload in EXPLORER_WORKLOADS
            for seed in seed_range
            for protocol in ALL_PROTOCOLS
        ]

    return _explore_spec(
        "differential", scenarios_for, seeds, seed_base, smoke=False
    )


#: Every named preset ``python -m repro.campaign`` resolves: the
#: bench-read series, then the builders.
SPEC_BUILDERS = {
    **{name: functools.partial(_bench_spec, name) for name in SERIES},
    "figures": figures_spec,
    "workloads": workloads_spec,
    "smoke": smoke_spec,
    "snapshots": snapshots_spec,
    "explorer": explorer_spec,
    "faults": faults_spec,
    "lineage": lineage_spec,
    "differential": differential_spec,
}


def build_spec(
    name: str,
    seeds: int = DEFAULT_SEEDS,
    seed_base: int = 0,
    smoke: bool = False,
) -> CampaignSpec:
    """Build a named preset, passing only the options its builder takes.

    Every CLI subcommand resolves its ``--spec`` through here; a
    builder's own signature says which of ``seeds``, ``seed_base`` and
    ``smoke`` it understands.  Raises :class:`KeyError` for unknown
    names.
    """
    builder = SPEC_BUILDERS[name]
    accepted = inspect.signature(builder).parameters
    options = {"seeds": seeds, "seed_base": seed_base, "smoke": smoke}
    return builder(**{key: value for key, value in options.items() if key in accepted})
