"""hdfed benchmark: federated workloads timed end to end, and a traced run.

Run from the repository root:

    python3 bench/run.py --workload c9_bsc_q16 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --compare BASE_RESULTS_DIR NEW_RESULTS_DIR

A run writes the workload's inputs from ``--seed`` into a scratch directory
under ``.bench_out/``, then starts one fresh worker process per repetition
(``bench/worker.py``), an untimed warm-up first, until ``--seconds`` are
used, each running the workload the way ``hdfed train`` does. It prints
every metric named in BENCHMARK.json with its unit, median, quartiles and
repetition count, and as its last line one JSON object: the ``end_to_end``
metrics with ``--trace 0``, the ``per_layer`` metrics with ``--trace 1``.
A traced run alternates untraced and traced repetitions, so
``trace.overhead`` compares the two. Each run's full record, with the
machine description, goes to ``.bench_out/results/`` (or ``--out``);
``--compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, write_inputs  # noqa: E402

BLAS_THREADS = 1
MIN_REPS = 4  # untraced repetitions per run, whatever --seconds says
MIN_TRACED_PAIRS = 2
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
NOISE_NOTE = (
    "defined on a noisy, shared 2-core virtual machine whose speed switches between levels "
    "up to ~1.5x apart for minutes at a time: in one 20-minute probe, 40 s runs of the "
    "C9 'none' task had median train_s from 2.7 to 4.3 s; medians over many runs carry the "
    "signal, not single runs"
)


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(rounds: int) -> float:
    """Highest ladder percentile with at least ten rounds beyond it, sized
    from the fewest rounds a run can pool so it is the same in every run."""
    return next(p for p in TAIL_LADDER if MIN_REPS * rounds * (1 - p / 100) >= 10)


def cgroup_cpu_max() -> str | None:
    """The CPU quota as cgroup v2 writes it ("max 100000" is no limit), read
    from cgroup v2 or from the v1 quota and period files; read only."""
    try:
        with open("/sys/fs/cgroup/cpu.max", "r", encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "r", encoding="utf-8") as f:
            quota = f.read().strip()
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "r", encoding="utf-8") as f:
            period = f.read().strip()
    except OSError:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "note": NOISE_NOTE,
    }


def run_worker(root: str, workdir: str, config: str, args, trace: int, index: int) -> dict:
    out = os.path.join(workdir, f"rep{index}.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--config", config,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--out", out,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"trace": trace, "failures": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        err = proc.stderr.strip().splitlines()
        return {"trace": trace, "failures": [f"worker exit {proc.returncode}: {err[-1:]}"]}
    with open(out, "r", encoding="utf-8") as f:
        record = json.load(f)
    if trace:
        os.replace(out + ".spans.jsonl", os.path.join(args.out, f"{args.tag}.rep{index}.spans.jsonl"))
    return record


def repeat(root: str, workdir: str, config: str, args) -> list[dict]:
    """One untimed warm-up repetition, then fresh worker processes until
    --seconds are used; traced runs alternate untraced and traced ones.

    The warm-up fills the file cache with the interpreter, numpy and the
    library; its outputs are checked like any other, its times are not used.
    """
    plan = (0, 1) if args.trace else (0,)
    minimum = MIN_TRACED_PAIRS * 2 if args.trace else MIN_REPS
    started = time.perf_counter()
    warmup = run_worker(root, workdir, config, args, 0, 0)
    warmup["warmup"] = True
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - started
        if len(reps) >= minimum and len(reps) % len(plan) == 0:
            step = statistics.median(durations) * len(plan)
            if elapsed + step > args.seconds:
                break
        tic = time.perf_counter()
        trace = plan[len(reps) % len(plan)]
        reps.append(run_worker(root, workdir, config, args, trace, len(reps) + 1))
        durations.append(time.perf_counter() - tic)
    return [warmup] + reps


def check_repeatable(reps: list[dict]) -> None:
    """Every repetition of one seed must produce the same results."""
    ok = [r for r in reps if not r["failures"]]
    for key in ("metrics_sha256", "model_sha256"):
        if len({r[key] for r in ok}) > 1:
            for r in ok:
                r["failures"].append(f"{key} differs between repetitions of one seed")
    traced = [r for r in ok if r["trace"]]
    counts = [
        {(layer, k): v for layer, t in r["layers"].items() for k, v in t.items() if "_s" not in k}
        for r in traced
    ]
    if any(c != counts[0] for c in counts):
        for r in traced:
            r["failures"].append("traced counts differ between repetitions of one seed")


def end_to_end(reps: list[dict], rounds: int) -> dict[str, tuple[list[float], dict]]:
    """Per end-to-end metric: the per-repetition values and extra detail."""
    wall = [ms for r in reps for ms in r["wall_ms"]]
    p = tail_percentile(rounds)
    return {
        "setup_s": ([r["setup_s"] for r in reps], {}),
        "train_s": ([r["train_s"] for r in reps], {"rounds": rounds}),
        "round_ms.p50": ([float(np.percentile(wall, 50))], {"samples": len(wall)}),
        "round_ms.tail": ([float(np.percentile(wall, p))], {"percentile": p, "samples": len(wall)}),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in reps], {}),
        "final_accuracy": ([r["final_accuracy"] for r in reps], {}),
        "uplink_bytes_per_round": ([r["uplink_bytes_per_round"] for r in reps], {}),
    }


def per_layer(traced: list[dict], plain: list[dict], names: list[str]) -> dict:
    """Per-layer metrics from the traced repetitions' span totals.

    A layer whose functions no longer exist is left out (absent), not
    reported as zero; a layer that exists but never ran reports zero.
    """
    absent = set(traced[0]["absent_layers"])
    out: dict[str, tuple[list[float], dict]] = {}
    for name in names:
        if name == "trace.coverage":
            out[name] = ([r["coverage"] for r in traced], {})
            continue
        if name == "trace.overhead":
            base = statistics.median(r["train_s"] for r in plain)
            with_trace = statistics.median(r["train_s"] for r in traced)
            out[name] = ([(with_trace - base) / base], {"untraced_train_s": base})
            continue
        layer, field = name.rsplit(".", 1)
        if layer in absent:
            continue
        values = []
        for r in traced:
            t = r["layers"].get(layer, {})
            if field == "mistake_share":
                values.append(t["mistakes"] / t["samples"] if t.get("samples") else 0.0)
            else:
                values.append(float(t.get(field, 0)))
        extra = {}
        if field == "self_s":
            shares = [v / r["train_s"] for v, r in zip(values, traced)]
            extra["share_of_train_s"] = statistics.median(shares)
        out[name] = (values, extra)
    return out


def summarize(values_by_name: dict, units: dict) -> dict:
    summary = {}
    for name, (values, extra) in values_by_name.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"value": med, "unit": units[name], "q1": q1, "q3": q3, "n": len(values), **extra}
    return summary


def run(args, root: str, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    args.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(os.path.abspath(args.out)))
    try:
        config = write_inputs(workload, args.seed, workdir)
        reps = repeat(root, workdir, config, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_repeatable(reps)
    failures = [f for r in reps for f in r["failures"]]
    ok = [r for r in reps if not r["failures"]]
    plain = [r for r in ok if not r["trace"] and not r.get("warmup")]
    traced = [r for r in ok if r["trace"]]

    metrics: dict = {}
    if plain and (traced or not args.trace):
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        metrics = summarize(end_to_end(plain, workload.rounds), units)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics.update(summarize(per_layer(traced, plain, names), units))
    correct = not failures and bool(metrics)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "correct": correct,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "failed_share": (len(reps) - len(ok)) / len(reps),
        "failures": failures,
        "metrics": metrics,
        "reps": reps,
    }
    with open(os.path.join(args.out, args.tag + ".json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  machine {json.dumps(result['machine'])}")
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, m in metrics.items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit", "q1", "q3", "n")}
        print(f"{name:36s} {m['value']:14.6g} {m['unit']:8s} q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']} {extra or ''}")
    print(
        f"failed_share {result['failed_share']:.3f} "
        f"({result['failed']}/{result['attempted']} repetitions, the first a warm-up)"
    )
    reported = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items() if n in reported
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hdfed benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(".bench_out", "results"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hdfed", "__init__.py")):
        print("bench: run from the repository root (src/hdfed not found)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.compare:
        from compare import compare

        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
