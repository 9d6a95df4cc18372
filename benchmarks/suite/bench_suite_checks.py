"""Checks of the benchmark itself; collected by ``pytest benchmarks``."""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import hostspeed
import spans
from workloads import WORKLOADS

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_calls(tracer, clock):
    """outer -> (a, b -> c): outer 1+2+3, a 5, b 7, c 11 time units."""

    def advance(amount):
        clock.now += amount

    c = tracer.wrap("c", "core.self_s", lambda: advance(11))

    def b_body():
        advance(7)
        c()

    b = tracer.wrap("b", "interconnect.self_s", b_body)
    a = tracer.wrap("a", "processor.self_s", lambda: advance(5))

    def outer_body():
        advance(1)
        a()
        advance(2)
        b()
        advance(3)

    tracer.wrap("outer", "sim.self_s", outer_body)()


def test_span_self_time_nested_and_sibling():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    _nested_calls(tracer, clock)
    times = spans.self_times(tracer.snapshot())
    assert times["sim.self_s"] == 6  # 29 - siblings a (5) and b (18)
    assert times["processor.self_s"] == 5
    assert times["interconnect.self_s"] == 7  # 18 - nested c
    assert times["core.self_s"] == 11
    assert sum(times.values()) == clock.now == 29


def test_span_overhead_correction():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    _nested_calls(tracer, clock)
    times = spans.self_times(tracer.snapshot(), inner_s=0.5, outer_s=0.25)
    # Each span loses its inner cost; each parent its children's outer.
    assert times["sim.self_s"] == 6 - 2 * 0.25 - 0.5
    assert times["interconnect.self_s"] == 7 - 0.25 - 0.5
    assert times["processor.self_s"] == 5 - 0.5
    assert times["core.self_s"] == 11 - 0.5


def test_gauge_times_the_reference_loop_and_its_own_cost():
    gauge = hostspeed.Gauge()
    gauge()
    gauge()
    assert len(gauge.samples) == 2
    assert gauge.spent >= sum(gauge.samples) > 0
    assert gauge.slowdown() == pytest.approx(
        sum(gauge.samples) / 2 / hostspeed.NOMINAL_S
    )
    assert hostspeed.reference_loop(500) == hostspeed.reference_loop(500)


def test_install_wraps_every_kernel_callback_and_uninstalls():
    """Everything the kernel dispatches runs inside a layer span.

    The profiler names each dispatched callback ``Class.method``; with
    the tracer installed each must resolve to a wrapper, or its time
    would count as ``sim.self_s``.  ``_pump``, ``send_msg`` and
    ``broadcast_msg`` are posted only a handful of times per run and are
    left unwrapped on purpose.
    """
    from repro import COMMERCIAL_WORKLOADS, SystemConfig, build_system
    from repro.sim.kernel import Simulator, install_profiler
    from repro.system.grid import ALL_PROTOCOLS, protocol_grid
    from repro.workloads.synthetic import generate_streams

    original_run = Simulator.__dict__["run"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert Simulator.__dict__["run"].__wrapped__ is original_run
        spec = COMMERCIAL_WORKLOADS["oltp"].scaled(30)
        for protocol, interconnect in protocol_grid(ALL_PROTOCOLS):
            config = SystemConfig(protocol=protocol, interconnect=interconnect,
                                  n_procs=8)
            system = build_system(
                config, generate_streams(spec, 8, config.seed, 64)
            )
            profile = install_profiler(system.sim)
            system.run()
            for category in profile.categories:
                method = category.rpartition(".")[2]
                if method in ("_pump", "send_msg", "broadcast_msg"):
                    continue
                owner = next(
                    obj for obj in (system.network, *system.nodes,
                                    *system.sequencers,
                                    *(n.arbiter for n in system.nodes
                                      if hasattr(n, "arbiter")))
                    if type(obj).__name__ == category.partition(".")[0]
                )
                assert hasattr(getattr(type(owner), method), "__wrapped__"), (
                    f"{protocol}/{interconnect}: {category} is not spanned"
                )
    finally:
        tracer.uninstall()
    assert Simulator.__dict__["run"] is original_run


def test_benchmark_declaration_matches_the_suite():
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/suite/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = list(e2e) + [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for metric in [*BENCHMARK["end_to_end"], *BENCHMARK["per_layer"]]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        if "bound" in metric:
            assert 0 < metric["bound"] <= 0.25
    # The layer self times are exactly the per-layer "_s" metrics.
    assert set(spans.SELF_METRICS) <= set(harness.PER_LAYER)


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "results.json"
    subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--out", str(out),
         "--smoke", "--seed", "5", "--seconds", "0"],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600,
    )
    return json.loads(out.read_text())


def test_smoke_run_is_correct_and_reconciles(smoke_results):
    assert list(smoke_results["workloads"]) == list(WORKLOADS)
    for name, runs in smoke_results["workloads"].items():
        for kind, record in runs.items():
            assert record["failed"] == 0, (name, kind, record["errors"])
            assert record["failed_frac"] == 0
            line = harness.contract_line(record)
            declared = harness.PER_LAYER if kind == "trace" else harness.END_TO_END
            assert set(line["metrics"]) == set(declared)
            for metric, value in line["metrics"].items():
                assert value["unit"] == declared[metric]
        assert runs["trace"]["digests"] == runs["run"]["digests"], name
        # Smoke passes last about a second and a traced smoke run makes
        # one to three pairs, so host noise alone reaches 15-20% here;
        # full-size runs reconcile within 10% (see README.md).
        assert runs["trace"]["metrics"]["trace.reconcile_err"]["value"] <= 0.25, name


def _steady(results, slowdown=1.0):
    """``results`` with every end-to-end metric spread by under 2%.

    ``slowdown`` scales every wall_s sample (1.2 = 20% slower).
    """
    steady = copy.deepcopy(results)
    jitter = [1.0, 1.01, 0.99, 1.0, 1.015, 0.995]
    for runs in steady["workloads"].values():
        metrics = runs["run"]["metrics"]
        for name, summary in metrics.items():
            scale = slowdown if name == "wall_s" else 1.0
            metrics[name] = harness.summarize(
                [summary["median"] * j * scale for j in jitter], summary["unit"]
            )
    return steady


def test_compare_verdicts(smoke_results):
    # At 10% bounds, whatever BENCHMARK.json declares, a 20% slowdown
    # must read worse and an identical file within bound.
    bench = copy.deepcopy(BENCHMARK)
    for metric in bench["end_to_end"]:
        metric["bound"] = 0.1
    base = _steady(smoke_results)
    lines, ok = compare.compare(base, copy.deepcopy(base), bench)
    assert ok
    verdicts = [line.rpartition("-> ")[2] for line in lines if "-> " in line]
    assert len(verdicts) == len(WORKLOADS) * len(bench["end_to_end"])
    assert all(v.startswith("within bound") for v in verdicts)
    assert sum("counts and digests identical" in line for line in lines) == len(
        WORKLOADS
    )

    lines, ok = compare.compare(base, _steady(smoke_results, 1.2), bench)
    assert not ok
    wall = [line for line in lines if line.strip().startswith("wall_s")]
    assert len(wall) == len(WORKLOADS)
    assert all(line.endswith("-> worse (bound 10%)") for line in wall)


def test_compare_refuses_other_environments(smoke_results):
    other = copy.deepcopy(smoke_results)
    other["environment"]["bench_fingerprint"] = "0" * 16
    assert compare.incompatibilities(smoke_results, other)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir()
    for path in SUITE_DIR.iterdir():
        if path.is_file():
            (suite / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "cache-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
