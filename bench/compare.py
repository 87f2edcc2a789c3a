"""Compare two sets of benchmark results, one row per workload and metric.

Each side is a directory of run records written by ``bench/run.py``. Runs
pair up by (workload, seed); the verdict follows the choosing-metrics rule:
a metric improved only when the new side wins at least nine tenths of the
pairs and the medians differ by more than the base side's interquartile
range. It regressed when the new median is worse than the base median by
more than the metric's bound. Where either side's spread exceeds the bound
the metric is unresolved, unless every new run beats every base run.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

WIN_SHARE = 0.9


def load_runs(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as f:
            runs.append(json.load(f))
    return runs


def by_key(runs: list[dict], trace: int) -> dict[str, dict[int, dict]]:
    """workload -> seed -> run, for correct runs of one trace mode."""
    out: dict[str, dict[int, dict]] = {}
    for run in runs:
        if run["trace"] == trace and run["correct"]:
            out.setdefault(run["workload"], {})[run["seed"]] = run
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, interquartile range, and that range as a share of the median."""
    if len(values) < 2:
        return values[0], 0.0, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    losses = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    b_med, b_iqr, b_rel = spread(base)
    n_med, _, n_rel = spread(new)
    gap = sign * (n_med - b_med)
    if wins >= WIN_SHARE * len(base) and gap > b_iqr:
        return "better"
    if max(b_rel, n_rel) > bound:
        all_better = min(new) > max(base) if sign > 0 else max(new) < min(base)
        if all_better:
            return "better (all runs)"
        return "unresolved"
    if -gap > bound * abs(b_med):
        return "worse"
    if losses >= WIN_SHARE * len(base) and -gap > b_iqr:
        return "slower within bound"
    return "same within bound"


def compare(base_dir: str, new_dir: str, spec: dict) -> int:
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    if not base_runs or not new_runs:
        print(f"compare: no run records in {base_dir if not base_runs else new_dir}")
        return 2
    base, new = by_key(base_runs, 0), by_key(new_runs, 0)
    print(f"{'workload':14s} {'metric':24s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} pairs  verdict")
    worse = 0
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[workload][s]["metrics"][name]["value"] for s in seeds]
            n = [new[workload][s]["metrics"][name]["value"] for s in seeds]
            v = verdict(b, n, metric["better"], metric["bound"])
            worse += v == "worse"
            cols = []
            for values in (b, n):
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                cols.append(f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]")
            print(f"{workload:14s} {name:24s} {cols[0]:>34s} {cols[1]:>34s} {len(seeds):5d}  {v}")

    base_t, new_t = by_key(base_runs, 1), by_key(new_runs, 1)
    self_names = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_s")]
    for workload in sorted(set(base_t) & set(new_t)):
        print(f"\nper-layer self time, {workload} (median over traced runs; absent layers marked -)")
        for name in self_names:
            sides = []
            for runs in (base_t[workload].values(), new_t[workload].values()):
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                sides.append(statistics.median(values) if values else None)
            if sides[0] is None or sides[1] is None:
                print(f"  {name:36s} {'-' if sides[0] is None else f'{sides[0]:.4f}':>10s} "
                      f"{'-' if sides[1] is None else f'{sides[1]:.4f}':>10s}")
                continue
            delta = sides[1] - sides[0]
            rel = f"{delta / sides[0]:+.1%}" if sides[0] else ""
            print(f"  {name:36s} {sides[0]:10.4f} {sides[1]:10.4f} {delta:+10.4f} s {rel}")
    return 1 if worse else 0
