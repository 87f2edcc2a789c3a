#!/usr/bin/env python3
"""Accuracy versus hyperspace dimension at the reference federation scale.

Runs the same federated experiment, on sign-quantized encodings, at several
hypervector dimensions and prints a one-row-per-dimension table. Works on
the built-in synthetic mixture or any CSV/HDDS dataset pair. Each run is the
experiment `hdfed train` runs for the same flat config keys.

    python scripts/dimensionality_study.py
    python scripts/dimensionality_study.py --dims 1000,2000,4000,8000,10000 \
        --train isolet_train.csv --test isolet_test.csv --format csv
"""

import argparse
import sys

from hdfed.config import config_from_entries
from hdfed.harness import run_experiment


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dims", default="1000,2000,10000", help="comma-separated hypervector sizes")
    p.add_argument("--train", help="training set path (synthetic mixture when omitted)")
    p.add_argument("--test", help="test set path")
    p.add_argument("--format", choices=("csv", "hdds"), default="csv")
    p.add_argument("--clients", type=int, default=100)
    p.add_argument("--participation", type=float, default=0.2)
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out", help="optional CSV output path")
    return p.parse_args()


def main():
    args = parse_args()
    if args.train:
        data = {"data.kind": args.format, "data.train": args.train}
        if args.test:
            data["data.test"] = args.test
    else:
        data = {
            "data.synth.classes": "12",
            "data.synth.features": "256",
            "data.synth.train_per_class": "170",
            "data.synth.test_per_class": "80",
            "data.synth.separation": "4.0",
            "data.synth.seed": "0",
        }
    task = {
        **data,
        "encoder.seed": "1",
        "encoder.quantize": "true",
        "round.clients": str(args.clients),
        "round.participation": str(args.participation),
        "round.rounds": str(args.rounds),
        "round.seed": str(args.seed),
    }

    dims = [int(v) for v in args.dims.split(",")]
    rows = []
    print(f"{'d':>8} {'accuracy':>10} {'rounds':>7}")
    for d in dims:
        records = run_experiment(config_from_entries({**task, "encoder.dim": str(d)})).records
        acc = records[-1].test_accuracy
        rows.append((d, acc))
        print(f"{d:>8} {acc:>10.4f} {args.rounds:>7}")

    if args.out:
        with open(args.out, "w") as f:
            f.write("d,accuracy\n")
            f.writelines(f"{d},{acc:.6f}\n" for d, acc in rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
