#!/usr/bin/env python3
"""Accuracy versus uplink size for the three size-reduction strategies.

Runs the baseline full-model uplink, binarized differential transmission,
10% subsampling, and 90% sparsification on one seeded task, reporting final
accuracy and measured uplink bytes per round. Each run is the experiment
`hdfed train` runs for the same flat config keys.

    python scripts/strategy_tradeoffs.py
    python scripts/strategy_tradeoffs.py --rounds 100 --subsample-rate 0.5
"""

import argparse
import sys

from hdfed.config import config_from_entries
from hdfed.harness import run_experiment


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--clients", type=int, default=20)
    p.add_argument("--dim", type=int, default=2000)
    p.add_argument("--rounds", type=int, default=60)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--subsample-rate", type=float, default=0.1)
    p.add_argument("--sparsity", type=float, default=0.9)
    return p.parse_args()


def main():
    args = parse_args()
    task = {
        "data.synth.classes": "10",
        "data.synth.features": "32",
        "data.synth.train_per_class": "300",
        "data.synth.test_per_class": "100",
        "data.synth.separation": "3.6",
        "data.synth.seed": "0",
        "encoder.dim": str(args.dim),
        "encoder.seed": "1",
        "round.clients": str(args.clients),
        "round.participation": "1.0",
        "round.rounds": str(args.rounds),
        "round.seed": str(args.seed),
    }
    strategies = [
        ("baseline (full model)", {}),
        ("binary differential", {"strategy.kind": "binary_diff"}),
        (
            f"{args.subsample_rate:.0%} subsample",
            {"strategy.kind": "subsample", "strategy.rate": str(args.subsample_rate)},
        ),
        (
            f"{args.sparsity:.0%} sparsify",
            {"strategy.kind": "sparsify", "strategy.sparsity": str(args.sparsity)},
        ),
    ]

    base_bytes = None
    base_acc = None
    print(f"{'strategy':<24} {'accuracy':>9} {'vs base':>8} {'uplink/round':>13} {'reduction':>10}")
    for name, strategy in strategies:
        records = run_experiment(config_from_entries({**task, **strategy})).records
        acc = records[-1].test_accuracy
        per_round = records[-1].uplink_bytes
        if base_bytes is None:
            base_bytes, base_acc = per_round, acc
        print(
            f"{name:<24} {acc:>9.4f} {acc - base_acc:>+8.4f} "
            f"{per_round:>12,}B {base_bytes / per_round:>9.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
