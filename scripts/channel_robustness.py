#!/usr/bin/env python3
"""Final accuracy under each uplink corruption model, against the clean run.

Compares an error-free uplink with 20% packet drops, -10 dB additive noise,
and 1e-3 bit errors under both the raw float32 codec and the 16-bit
scale-up/down quantizer, all on one seeded task. Each run is the
experiment `hdfed train` runs for the same flat config keys.

    python scripts/channel_robustness.py
    python scripts/channel_robustness.py --clients 10 --dim 1024
"""

import argparse
import sys
import time

from hdfed.config import config_from_entries
from hdfed.harness import run_experiment


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--clients", type=int, default=50)
    p.add_argument("--dim", type=int, default=4096)
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--snr-db", type=float, default=-10.0)
    p.add_argument("--bit-error-rate", type=float, default=1e-3)
    p.add_argument("--packet-loss", type=float, default=0.2)
    return p.parse_args()


def main():
    args = parse_args()
    task = {
        "data.synth.classes": "8",
        "data.synth.features": "32",
        "data.synth.train_per_class": "375",
        "data.synth.test_per_class": "100",
        "data.synth.separation": "3.5",
        "data.synth.seed": "0",
        "encoder.dim": str(args.dim),
        "encoder.seed": "1",
        "round.clients": str(args.clients),
        "round.participation": "1.0",
        "round.rounds": str(args.rounds),
        "round.seed": str(args.seed),
    }
    bsc = {"channel.kind": "bsc", "channel.bit_error_rate": str(args.bit_error_rate)}
    channels = [
        ("ideal", {}),
        (
            f"packet loss p_p={args.packet_loss}",
            {
                "channel.kind": "packet_loss",
                "channel.packet_bits": "1024",
                "channel.packet_loss_prob": str(args.packet_loss),
            },
        ),
        (f"awgn {args.snr_db} dB", {"channel.kind": "awgn", "channel.snr_db": str(args.snr_db)}),
        (f"bsc p_e={args.bit_error_rate} float32", {**bsc, "codec.representation": "float32"}),
        (
            f"bsc p_e={args.bit_error_rate} quant16",
            {**bsc, "codec.representation": "quantized_int", "codec.bitwidth": "16"},
        ),
    ]

    baseline = None
    print(f"{'channel':<28} {'accuracy':>9} {'vs ideal':>9} {'time':>7}")
    for name, channel in channels:
        tic = time.time()
        records = run_experiment(config_from_entries({**task, **channel})).records
        acc = records[-1].test_accuracy
        if baseline is None:
            baseline = acc
        print(f"{name:<28} {acc:>9.4f} {acc - baseline:>+9.4f} {time.time() - tic:>6.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
