"""One workload run in a fresh process, the way ``hdfed train`` runs it.

    PYTHONPATH=src python3 bench/worker.py --config DIR/run.cfg \
        --workload c9_bsc_q16 --seed 0 --trace 0 --out record.json

Runs ``config.load_config`` -> ``harness.run_experiment`` ->
``harness.write_metrics`` / ``channel.write_model``, times it from outside,
checks the outputs and writes one JSON record. Set-up ends when
``hdfed.harness.run_training`` is entered. With ``--trace 1`` every probe in
``spans.PROBES`` records spans, which go to ``<out>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict

import numpy as np

from spans import Tracer, absent_layers, coverage, layer_totals
from workloads import DEFAULT_SEED, PINS, WORKLOADS

# sum(RoundRecord.wall_ms) must agree with the externally timed round loop
# (first sample_clients call to the end of run_training) within this share
# plus slack: the gap is the loop's bookkeeping between rounds.
WALL_MS_SHARE = 0.02
WALL_MS_SLACK_MS = 5.0


def csv_without_wall_ms(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_frame(frame: bytes, model, codec) -> str | None:
    """The final frame must parse back into the model it was written from."""
    from hdfed.channel import read_model_bytes

    decoded, got_codec = read_model_bytes(frame)
    if got_codec != codec or decoded.vectors.shape != model.vectors.shape:
        return f"frame round-trip: codec/shape {got_codec} {decoded.vectors.shape}"
    if codec.representation == "quantized_int":
        # Truncation toward zero loses less than one step of 1/gain per class.
        top = 2 ** (codec.bitwidth - 1) - 1
        step = np.max(np.abs(model.vectors), axis=1, keepdims=True) / top
        ok = np.all(np.abs(decoded.vectors - model.vectors) <= step * (1 + 1e-9))
    else:
        ok = np.array_equal(decoded.vectors, model.vectors.astype(np.float32))
    return None if ok else "frame round-trip: decoded values differ from the model"


def run(args: argparse.Namespace) -> dict:
    import hdfed
    from hdfed import channel, config, federated, harness

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(hdfed.__file__).startswith(src + os.sep):
        raise RuntimeError(f"hdfed imported from {hdfed.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    marks: dict[str, float] = {}
    if tracer:
        tracer.install()
    else:
        # Tracing off: only the loop's entry, first round and exit are timed.
        untimed_training, untimed_sampling = harness.run_training, federated.sample_clients

        def run_training(*a, **kw):
            marks["enter"] = time.perf_counter()
            try:
                return untimed_training(*a, **kw)
            finally:
                marks["exit"] = time.perf_counter()

        def sample_clients(*a, **kw):
            marks.setdefault("first_round", time.perf_counter())
            return untimed_sampling(*a, **kw)

        harness.run_training, federated.sample_clients = run_training, sample_clients

    t0 = time.perf_counter()
    cfg = config.load_config(args.config)
    result = harness.run_experiment(cfg)
    harness.write_metrics(result.records, cfg.metrics_path, cfg.target_accuracy)
    channel.write_model(result.model, cfg.model_path, cfg.channel.codec)
    if tracer:
        tracer.uninstall()
        root = next(s for s in tracer.spans if s.name == "federated.run_training")
        first = next(s for s in tracer.spans if s.name == "federated.sample_clients")
        marks = {"enter": root.start, "exit": root.end, "first_round": first.start}
    else:
        harness.run_training, federated.sample_clients = untimed_training, untimed_sampling
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = result.records
    with open(cfg.metrics_path, "r", encoding="utf-8") as f:
        metrics_csv = f.read()
    with open(cfg.model_path, "rb") as f:
        frame = f.read()
    train_s = marks["exit"] - marks["enter"]
    wall_ms = [r.wall_ms for r in records]
    uplink_cum = sum(r.uplink_bytes for r in records)
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": marks["enter"] - t0,
        "train_s": train_s,
        "wall_ms": wall_ms,
        "peak_rss_mb": peak_rss_mb,
        "final_accuracy": records[-1].test_accuracy,
        "uplink_bytes_per_round": uplink_cum / len(records),
        "metrics_sha256": sha256(csv_without_wall_ms(metrics_csv).encode()),
        "model_sha256": sha256(frame),
        "failures": [],
    }
    fail = out["failures"].append

    if len(records) != workload.rounds:
        fail(f"{len(records)} rounds, expected {workload.rounds}")
    pin = PINS.get(workload.name) if args.seed == DEFAULT_SEED else None
    if pin:
        for key in ("metrics_sha256", "model_sha256"):
            if out[key] != pin[key]:
                fail(f"behaviour gate: {key} {out[key]} != pinned {pin[key]}")
    frame_bytes = workload.frame_bytes()
    if frame_bytes is not None:
        for r in records:
            if r.uplink_bytes != len(r.participants) * frame_bytes:
                fail(f"round {r.round_index}: uplink {r.uplink_bytes} != analytic frame size")
                break
    problem = check_frame(frame, result.model, cfg.channel.codec)
    if problem:
        fail(problem)
    if not out["final_accuracy"] > workload.accuracy_floor:
        fail(f"final accuracy {out['final_accuracy']} <= floor {workload.accuracy_floor}")
    loop_ms = out["loop_ms"] = (marks["exit"] - marks["first_round"]) * 1000.0
    if abs(loop_ms - sum(wall_ms)) > WALL_MS_SHARE * loop_ms + WALL_MS_SLACK_MS:
        fail(f"sum(wall_ms) {sum(wall_ms):.1f} disagrees with the timed loop {loop_ms:.1f} ms")

    if tracer:
        totals = layer_totals(tracer.spans)
        wired = totals.get("strategies.wire_bytes", {}).get("bytes")
        if wired != uplink_cum:
            fail(f"traced wire_bytes {wired} != metrics uplink {uplink_cum}")
        out["layers"] = totals
        out["coverage"] = coverage(tracer.spans)
        out["absent_layers"] = absent_layers(tracer.absent)
        with open(args.out + ".spans.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(asdict(span)) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = run(args)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
