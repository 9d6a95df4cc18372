"""Formatting helpers that print results the way the paper reports them.

Each function takes :class:`~repro.system.simulator.SimulationResult`
objects and renders the corresponding table or figure series as text, so
the benchmark harnesses regenerate recognizable artifacts (Table 2 rows,
Figure 4/5 bar values) rather than raw dictionaries.

:func:`series_results` is the campaign-side entry point: it reads a
labelled series (:mod:`repro.campaign.presets`) back from a
:class:`~repro.campaign.store.CampaignStore` as ``{group: {label:
SimulationResult}}`` — the one fetch the benches' lookup and
:func:`render_figures_from_store` share, so
``python -m repro.campaign report --spec figures`` regenerates every
figure from recorded results without re-simulating anything.
"""

from __future__ import annotations

from repro.system.simulator import SimulationResult


def format_table2(results: dict[str, SimulationResult]) -> str:
    """Table 2: per-workload reissue classification percentages."""
    header = (
        f"{'Workload':<10} {'Not Reissued':>13} {'Reissued Once':>14} "
        f"{'Reissued >Once':>15} {'Persistent':>11}"
    )
    lines = [header, "-" * len(header)]
    sums = [0.0, 0.0, 0.0, 0.0]
    for name, result in results.items():
        classes = result.miss_classification()
        row = [
            classes["not_reissued"],
            classes["reissued_once"],
            classes["reissued_more"],
            classes["persistent"],
        ]
        sums = [s + r for s, r in zip(sums, row)]
        lines.append(
            f"{name:<10} {row[0]:>12.2%} {row[1]:>13.2%} "
            f"{row[2]:>14.2%} {row[3]:>10.2%}"
        )
    avg = [s / len(results) for s in sums] if results else [0.0] * 4
    lines.append(
        f"{'Average':<10} {avg[0]:>12.2%} {avg[1]:>13.2%} "
        f"{avg[2]:>14.2%} {avg[3]:>10.2%}"
    )
    return "\n".join(lines)


def format_runtime_bars(
    results: dict[str, dict[str, SimulationResult]],
    baseline: str,
) -> str:
    """Figure 4a / 5a: normalized runtime per workload and variant.

    Values are cycles-per-transaction normalized so ``baseline`` = 1.0
    within each workload (smaller is better, as in the figures).
    """
    lines = []
    for workload, variants in results.items():
        base = variants[baseline].cycles_per_transaction
        lines.append(f"{workload}:")
        for name, result in variants.items():
            normalized = result.cycles_per_transaction / base if base else 0.0
            bar = "#" * max(1, round(normalized * 30))
            lines.append(
                f"  {name:<28} {normalized:5.2f}  "
                f"({result.cycles_per_transaction:8.1f} cyc/txn)  {bar}"
            )
    return "\n".join(lines)


def format_traffic_bars(
    results: dict[str, dict[str, SimulationResult]],
    baseline: str,
) -> str:
    """Figure 4b / 5b: traffic per miss, stacked by category."""
    lines = []
    for workload, variants in results.items():
        base = variants[baseline].bytes_per_miss
        lines.append(f"{workload}: (bytes/miss, normalized to {baseline})")
        for name, result in variants.items():
            breakdown = result.traffic_breakdown_per_miss()
            normalized = result.bytes_per_miss / base if base else 0.0
            parts = "  ".join(
                f"{key}={value:6.1f}" for key, value in breakdown.items()
            )
            lines.append(
                f"  {name:<28} {normalized:5.2f} "
                f"({result.bytes_per_miss:7.1f} B/miss)  {parts}"
            )
    return "\n".join(lines)


def speedup(slower: SimulationResult, faster: SimulationResult) -> float:
    """Percent speedup of ``faster`` over ``slower`` (paper convention:
    "X is N% faster than Y" = runtime_Y / runtime_X - 1)."""
    if faster.cycles_per_transaction == 0:
        return 0.0
    return (
        slower.cycles_per_transaction / faster.cycles_per_transaction - 1.0
    ) * 100.0


# ----------------------------------------------------------------------
# Campaign-store aggregation
# ----------------------------------------------------------------------


class MissingResults(KeyError):
    """A series' scenarios are not all present in the store."""


def series_results(store, series: dict, name: str) -> dict:
    """Read a labelled series back from a campaign store.

    ``series`` is ``{group: {label: params}}`` (a
    :mod:`repro.campaign.presets` series); the result keeps its groups
    and labels, each mapped to its :class:`SimulationResult`.  Raises
    :class:`MissingResults` naming the first absent scenario (``name``
    says whose) — this never simulates.
    """
    from repro.campaign.executors import result_from_payload
    from repro.campaign.spec import ScenarioCase

    def fetch(params: dict) -> SimulationResult:
        record = store.get(ScenarioCase("simulate", params).key)
        if record is None:
            workload = params.get("workload") or params["program"]
            raise MissingResults(
                f"{name}: store {store.root} holds no result for "
                f"{params['config'].get('protocol')}/"
                f"{params['config'].get('interconnect')} on "
                f"{workload.get('name')}"
            )
        try:
            return result_from_payload(record["result"])
        except (TypeError, ValueError, KeyError) as exc:
            raise MissingResults(
                f"{name}: record in {store.root} does not match the "
                f"current result schema ({exc}); re-run the campaign"
            ) from None

    return {
        group: {label: fetch(params) for label, params in labels.items()}
        for group, labels in series.items()
    }


def render_figures_from_store(store, series=None, only=None) -> str | None:
    """Render figure/table text straight from a campaign store.

    ``series`` defaults to :func:`repro.campaign.presets.figure_series`;
    ``only`` optionally restricts to a tuple of figure names (an empty
    tuple renders nothing and returns ``None``).  Raises
    :class:`MissingResults` naming the first absent scenario if the
    store is incomplete — the renderer never simulates.
    """
    if series is None:
        from repro.campaign.presets import figure_series

        series = figure_series()
    if only is not None:
        series = [section for section in series if section["figure"] in only]
    if not series:
        return None

    sections = []
    for section in series:
        data = series_results(store, section["data"], section["figure"])
        if section["render"] == "runtime":
            body = format_runtime_bars(data, baseline=section["baseline"])
        elif section["render"] == "traffic":
            body = format_traffic_bars(data, baseline=section["baseline"])
        elif section["render"] == "table2":
            flattened = {
                workload: next(iter(variants.values()))
                for workload, variants in data.items()
            }
            body = format_table2(flattened)
        else:
            raise ValueError(f"unknown renderer {section['render']!r}")
        sections.append(f"{section['title']}\n{body}")
    return "\n\n".join(sections)
