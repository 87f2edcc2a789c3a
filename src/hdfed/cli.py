"""Command-line entry points: train, encode, eval, sweep.

``train`` runs one federated experiment from a flat key-value config file
(``--set section.key=value`` overrides any key), writes per-round metrics and
the final model. ``encode`` projects a dataset into hyperspace and stores it
in the binary dataset format. ``eval`` scores a stored model on a dataset.
``sweep`` runs a cartesian grid of config overrides, one metrics file per
cell plus a summary table.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import traceback

import numpy as np

from . import data as dio
from .channel import read_model, write_model
from .config import ConfigError, EncoderSpec, ExperimentConfig, load_config
from .federated import RoundRecord
from .harness import (
    encode_features,
    eval_queries,
    load_dataset,
    projection_for,
    run_experiment,
    write_metrics,
)
from .hdc import DimensionError, predict_batch

# Sweep shorthands accepted next to full dotted keys.
_GRID_ALIASES = {
    "E": "round.epochs",
    "B": "round.batch",
    "C": "round.participation",
    "snr_db": "channel.snr_db",
    "p_e": "channel.bit_error_rate",
    "rate": "strategy.rate",
    "S": "strategy.sparsity",
    "d": "encoder.dim",
}


def _parse_overrides(pairs: list[str] | None) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _train_and_write(config: ExperimentConfig) -> list[RoundRecord]:
    """Run one experiment, then write its metrics and its final model."""
    result = run_experiment(config)
    write_metrics(result.records, config.metrics_path, config.target_accuracy)
    write_model(result.model, config.model_path, config.channel.codec)
    return result.records


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config, _parse_overrides(args.set))
    records = _train_and_write(config)
    final = records[-1]
    print(
        f"completed {len(records)} rounds: "
        f"accuracy={final.test_accuracy:.4f} train_loss={final.train_loss:.4f}"
    )
    print(f"metrics -> {config.metrics_path}")
    print(f"model   -> {config.model_path}")
    return 0


def _encoder_spec(args: argparse.Namespace) -> EncoderSpec:
    return EncoderSpec(dim=args.dim, seed=args.seed, quantize=args.quantize)


def cmd_encode(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data, args.format, args.has_header)
    hvs = encode_features(_encoder_spec(args), dataset)
    encoded = dio.Dataset(hvs, dataset.labels, dataset.num_classes)
    dio.save_binary(encoded, args.out)
    print(f"encoded {dataset.n_samples} samples at d={args.dim} -> {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model, _ = read_model(args.model)
    dataset = load_dataset(args.data, args.format, args.has_header)
    if args.encoded:
        queries = dataset.features
    else:
        spec = _encoder_spec(args)
        queries = eval_queries(spec, projection_for(spec, dataset), dataset)
    if queries.shape[1] != model.hd_dim:
        raise DimensionError(
            f"model dimension {model.hd_dim} does not match encoded dimension {queries.shape[1]}"
        )
    preds = predict_batch(model, queries)
    overall = float(np.mean(preds == dataset.labels))
    print(f"accuracy {overall:.4f} on {dataset.n_samples} samples")
    for k in range(dataset.num_classes):
        mask = dataset.labels == k
        if mask.any():
            acc_k = float(np.mean(preds[mask] == k))
            print(f"class {k}: accuracy {acc_k:.4f} ({int(mask.sum())} samples)")
        else:
            print(f"class {k}: no samples")
    return 0


def _grid_values(specs: list[str]) -> list[tuple[str, list[str]]]:
    grid: list[tuple[str, list[str]]] = []
    for spec in specs or []:
        if "=" not in spec:
            raise ConfigError(f"grid spec must look like key=v1,v2,..., got {spec!r}")
        key, raw = spec.split("=", 1)
        key = _GRID_ALIASES.get(key.strip(), key.strip())
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"grid spec {spec!r} lists no values")
        if any(key == seen for seen, _ in grid):
            # Every cell would train at the last value given for the key.
            raise ConfigError(f"grid key {key} is given more than once")
        grid.append((key, values))
    return grid


def _path_safe(value: str) -> str:
    """A grid value as part of a file name: path separators become '-'."""
    for sep in filter(None, (os.sep, os.altsep)):
        value = value.replace(sep, "-")
    return value


def cmd_sweep(args: argparse.Namespace) -> int:
    base_overrides = _parse_overrides(args.set)
    grid = _grid_values(args.grid)
    os.makedirs(args.out_dir, exist_ok=True)
    keys = [k for k, _ in grid]
    combos = itertools.product(*[v for _, v in grid])  # one empty combo for no grid
    # A failed cell's row ends with the exception; successful rows stop one
    # field short of the header, since they have none.
    summary_rows = [["cell", *keys, "status", "final_accuracy", "uplink_bytes_cum", "error"]]
    for cell_index, combo in enumerate(combos):
        name = f"cell{cell_index:03d}" + "".join(
            f"_{k.split('.')[-1]}={_path_safe(v)}" for k, v in zip(keys, combo)
        )
        overrides = {**base_overrides, **dict(zip(keys, combo))}
        overrides["output.metrics"] = os.path.join(args.out_dir, f"{name}.csv")
        overrides["output.model"] = os.path.join(args.out_dir, f"{name}.hdfm")
        try:
            records = _train_and_write(load_config(args.config, overrides))
            final = records[-1]
            uplink = sum(r.uplink_bytes for r in records)
            summary_rows.append([name, *combo, "ok", f"{final.test_accuracy:.6f}", str(uplink)])
            print(f"{name}: accuracy={final.test_accuracy:.4f}")
        except Exception as exc:  # record the failure, keep sweeping
            summary_rows.append([name, *combo, "error", "", "", f"{type(exc).__name__}: {exc}"])
            print(f"{name}: failed: {exc}", file=sys.stderr)
    summary_path = os.path.join(args.out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(summary_rows)
    print(f"summary -> {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdfed")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that two subcommands share, each declared once.
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--config", help="flat key-value config file")
    run_opts.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    data_opts = argparse.ArgumentParser(add_help=False)
    data_opts.add_argument("--data", required=True)
    data_opts.add_argument("--format", choices=("csv", "hdds"), default="csv")
    data_opts.add_argument("--has-header", action="store_true")
    data_opts.add_argument("--dim", type=int, default=EncoderSpec.dim)
    data_opts.add_argument("--seed", type=int, default=EncoderSpec.seed)
    data_opts.add_argument("--quantize", action="store_true")

    p_train = sub.add_parser(
        "train", parents=[run_opts], help="run one federated training experiment"
    )
    p_train.set_defaults(func=cmd_train)

    p_encode = sub.add_parser(
        "encode", parents=[data_opts], help="project a dataset into hyperspace"
    )
    p_encode.add_argument("--out", required=True)
    p_encode.set_defaults(func=cmd_encode)

    p_eval = sub.add_parser("eval", parents=[data_opts], help="score a stored model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--encoded", action="store_true", help="data is already encoded")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", parents=[run_opts], help="run a grid of config overrides")
    p_sweep.add_argument(
        "--grid",
        action="append",
        metavar="KEY=V1,V2,...",
        help="grid values for one key; E, B, C, snr_db, p_e, rate, S, d are shorthands",
    )
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionError, dio.DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
