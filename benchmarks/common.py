"""Shared plumbing for the benchmark harnesses.

Every harness regenerates one of the paper's tables or figures from a
labelled series, ``{group: {label: params}}``, that
:mod:`repro.campaign.presets` declares — the one place a data point
lives.  Execution and caching all live in the campaign subsystem:

* :func:`lookup` reads a series back as ``{group: {label:
  SimulationResult}}``, with the same keys: it runs whatever the store
  lacks through :func:`ensure`, then fetches every point with
  :func:`repro.analysis.report.series_results` (the fetch
  ``campaign report`` renders figures with).  Results are sound to
  serve from disk because simulations are bit-deterministic (the
  determinism regression suite pins this), and they invalidate
  automatically when the simulator's source changes (the store keys
  include a code fingerprint);
* :func:`ensure` runs a spec through the campaign runner, fanning
  misses out over a worker pool — the cold path for a whole-suite run;
* :func:`prewarm` ensures the union figure campaign.

The store is ``benchmarks/.bench_cache``; ``REPRO_BENCH_CACHE`` moves it.

The harness is not trying to match the paper's absolute cycle counts —
the substrate here is a synthetic-workload simulator, not Simics+TFsim
on commercial software — but the *shape* assertions encode the paper's
qualitative claims (who wins, roughly by how much, in which direction).
Bands are deliberately looser than the paper's reported ranges so the
suite is robust to seed changes; `EXPERIMENTS.md` records the actual
measured values against the paper's.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.report import series_results
from repro.campaign import CampaignSpec, CampaignStore, presets, run_campaign

_store: CampaignStore | None = None


def store() -> CampaignStore:
    """The benchmark suite's campaign store."""
    global _store
    directory = Path(
        os.environ.get("REPRO_BENCH_CACHE")
        or Path(__file__).resolve().parent / ".bench_cache"
    )
    if _store is None or _store.root != directory:
        _store = CampaignStore(directory)
    return _store


def ensure(spec: CampaignSpec, max_workers: int | None = None) -> int:
    """Fill the store for ``spec`` via the campaign runner.

    Misses fan out over the runner's worker pool; returns the number of
    scenarios actually simulated.
    """
    backing = store()
    report = run_campaign(spec, backing, jobs=max_workers)
    backing.close()
    return report.executed


def prewarm(max_workers: int | None = None) -> int:
    """Fill the store for the whole figure suite (the union campaign)."""
    return ensure(presets.figures_spec(), max_workers=max_workers)


def lookup(series: str | dict) -> dict:
    """``{group: {label: SimulationResult}}`` for a labelled series.

    ``series`` names a preset (:data:`repro.campaign.presets.SERIES`) or
    is a series dict itself (a bench's own slice).  Whatever the store
    lacks is simulated first.
    """
    name = "bench"
    if isinstance(series, str):
        name, series = series, presets.series(series)
    ensure(presets.series_spec(name, series))
    return series_results(store(), series, name)
