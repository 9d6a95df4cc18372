"""Compare two suite results: ``run.py compare BASE.json HEAD.json``.

For every workload and end-to-end metric it prints both medians with
their quartiles and a verdict, judged against the metric's bound in
``BENCHMARK.json``:

* **unresolved** when either side's quartile spread (as a share of its
  median) exceeds the bound, unless every head sample reads better, or
  worse by more than the bound, than every base sample;
* **worse** when the head median is worse than the base median by more
  than the bound;
* **better** when the head's quartile range lies wholly on the better
  side of the base's (so never on a single sample);
* **within bound** otherwise.

Deterministic counts and scenario digests must match exactly; any
difference reads "behaviour changed".  Files recorded on different
environments or with different benchmark code are refused.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Environment fields that must agree for two results to be comparable.
COMPARABLE = (
    "python",
    "platform",
    "usable_cpus",
    "bench_fingerprint",
    "seed",
    "jobs",
    "smoke",
)


def incompatibilities(base: dict, head: dict) -> list[str]:
    return [
        f"{field}: {base['environment'].get(field)!r} != "
        f"{head['environment'].get(field)!r}"
        for field in COMPARABLE
        if base["environment"].get(field) != head["environment"].get(field)
    ]


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(base: dict, head: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, change) where ``change`` > 0 means head is worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (head["median"] - base["median"]) / base["median"]
    worse_samples = [sign * (h - b) for h in head["samples"] for b in base["samples"]]
    if max(_spread(base), _spread(head)) > bound:
        if all(w < 0 for w in worse_samples):
            return "better", change
        if change > bound and all(w > 0 for w in worse_samples):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    # One sample has no spread to beat, so it never reads better.
    if min(base["n"], head["n"]) > 1:
        if better == "lower" and head["q3"] < base["q1"]:
            return "better", change
        if better == "higher" and head["q1"] > base["q3"]:
            return "better", change
    return "within bound", change


def _fmt(summary: dict) -> str:
    return (
        f"{summary['median']:.6g} [{summary['q1']:.6g}, {summary['q3']:.6g}] "
        f"n={summary['n']}"
    )


def compare(base: dict, head: dict, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether head may land (nothing worse or changed)."""
    lines: list[str] = []
    ok = True
    for name in base["workloads"]:
        if name not in head["workloads"]:
            lines.append(f"{name}: missing from head")
            ok = False
            continue
        b_run = base["workloads"][name]["run"]
        h_run = head["workloads"][name]["run"]
        lines.append(f"== {name}")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            result, change = verdict(
                b_run["metrics"][key], h_run["metrics"][key],
                metric["better"], metric["bound"],
            )
            ok &= result != "worse"
            lines.append(
                f"  {key:<18} {metric['unit']:<4} base {_fmt(b_run['metrics'][key])}"
                f"  head {_fmt(h_run['metrics'][key])}  {change:+.1%} worse"
                f"  -> {result} (bound {metric['bound']:.0%})"
            )
        for side, results in (("base", base), ("head", head)):
            for kind, record in results["workloads"][name].items():
                if record["failed"]:
                    ok = False
                    lines.append(
                        f"  FAILED on {side} ({kind}): {record['failed']} of "
                        f"{record['attempted']} operations"
                    )
        changed = []
        for kind in ("run", "trace"):
            b_rec = base["workloads"][name].get(kind)
            h_rec = head["workloads"][name].get(kind)
            if b_rec is None or h_rec is None:
                continue
            for key in sorted(set(b_rec["counts"]) | set(h_rec["counts"])):
                if b_rec["counts"].get(key) != h_rec["counts"].get(key):
                    changed.append(
                        f"{key} {b_rec['counts'].get(key)} -> "
                        f"{h_rec['counts'].get(key)}"
                    )
            if b_rec["digests"] != h_rec["digests"]:
                differing = sum(
                    b_rec["digests"].get(s) != h_rec["digests"].get(s)
                    for s in set(b_rec["digests"]) | set(h_rec["digests"])
                )
                changed.append(f"{differing} scenario digests ({kind})")
        if changed:
            ok = False
            lines.append("  behaviour changed: " + "; ".join(sorted(set(changed))))
        else:
            lines.append("  deterministic counts and digests identical")
        b_trace = base["workloads"][name].get("trace")
        h_trace = head["workloads"][name].get("trace")
        if b_trace and h_trace:
            for key, summary in b_trace["metrics"].items():
                other = h_trace["metrics"].get(key)
                if other is None or summary["unit"] == "count":
                    continue
                lines.append(
                    f"  {key:<34} {summary['unit']:<5} base "
                    f"{summary['value']:.6g}  head {other['value']:.6g}"
                )
    return lines, ok


def main(base_path: str, head_path: str, benchmark_path: Path) -> int:
    base = json.loads(Path(base_path).read_text())
    head = json.loads(Path(head_path).read_text())
    problems = incompatibilities(base, head)
    if problems:
        print("refusing to compare results from different environments or "
              "benchmark code:")
        for problem in problems:
            print(f"  {problem}")
        return 2
    lines, ok = compare(base, head, json.loads(benchmark_path.read_text()))
    print("\n".join(lines))
    return 0 if ok else 1
