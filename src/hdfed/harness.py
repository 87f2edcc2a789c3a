"""Experiment assembly: data loading, encoding, training, metric persistence.

Sits between the config layer and the library: builds datasets per the data
spec, encodes them, partitions, runs the federated loop, and writes the
metrics file. A linear encoding is never built: clients retrain on it and
the eval scores it from the raw features; only the sign encoding is
encoded. The CLI's ``encode`` and ``eval`` load and
encode through the same ``load_dataset``, ``encode_features`` and
``eval_queries``. The metrics file has the fixed header

    round,accuracy,train_loss,uplink_bytes_cum,downlink_bytes_cum,participants,wall_ms

All columns except wall_ms are pure functions of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as dio
from .config import ConfigError, EncoderSpec, ExperimentConfig
from .federated import Partition, RoundRecord, partition_iid, partition_noniid, run_training
from .hdc import (
    ClassPrototypes,
    DimensionError,
    ProjectedQueries,
    ProjectionMatrix,
    encode_batch,
    make_projection,
)

METRICS_HEADER = "round,accuracy,train_loss,uplink_bytes_cum,downlink_bytes_cum,participants,wall_ms"


@dataclass
class ExperimentResult:
    model: ClassPrototypes
    records: list[RoundRecord]


def load_dataset(path: str, kind: str, has_header: bool) -> dio.Dataset:
    """One dataset file: delimited text for kind csv, HDDS for kind hdds."""
    if kind == "csv":
        return dio.load_delimited(path, has_header=has_header)
    return dio.load_binary(path)


def load_datasets(config: ExperimentConfig) -> tuple[dio.Dataset, dio.Dataset]:
    spec = config.data
    if spec.kind == "synth":
        train, test = dio.synth_train_test(
            num_classes=spec.synth.classes,
            input_dim=spec.synth.features,
            train_per_class=spec.synth.train_per_class,
            test_per_class=spec.synth.test_per_class,
            mean_separation=spec.synth.separation,
            seed=spec.synth.seed,
            symmetric=spec.synth.symmetric,
        )
    else:
        train = load_dataset(spec.train, spec.kind, spec.has_header)
        test = load_dataset(spec.test, spec.kind, spec.has_header) if spec.test else train
        if train.num_classes != test.num_classes:
            k = max(train.num_classes, test.num_classes)
            train.num_classes = k
            test.num_classes = k
    if spec.normalize:
        mean, std = dio.feature_stats(train)
        train = dio.normalize_features(train, mean, std)
        test = dio.normalize_features(test, mean, std)
    return train, test


def projection_for(spec: EncoderSpec, dataset: dio.Dataset) -> ProjectionMatrix:
    """The one projection that ``spec`` seeds for the dataset's input
    dimension, which ``spec.dim`` must not be below."""
    if spec.dim < dataset.input_dim:
        raise DimensionError(
            f"encoder.dim ({spec.dim}) must be >= the feature count ({dataset.input_dim})"
        )
    return make_projection(dataset.input_dim, spec.dim, spec.seed)


def encode_features(spec: EncoderSpec, dataset: dio.Dataset) -> np.ndarray:
    """The dataset's encoded (n, d) rows."""
    return encode_batch(projection_for(spec, dataset), dataset.features, spec.quantize)


def eval_queries(
    spec: EncoderSpec, phi: ProjectionMatrix, dataset: dio.Dataset
) -> np.ndarray | ProjectedQueries:
    """The dataset as the eval scores it and, for the training split, as
    clients retrain on it. The linear encoding h = P x is read from the raw
    features, so its (n, d) rows are never built; the sign encoding is not
    linear and is encoded."""
    if spec.quantize:
        return encode_batch(phi, dataset.features, True)
    return ProjectedQueries(dataset.features, phi)


def encode_datasets(
    config: ExperimentConfig, train: dio.Dataset, test: dio.Dataset
) -> tuple[np.ndarray | ProjectedQueries, np.ndarray | ProjectedQueries]:
    """The training split, which clients retrain on and the train loss
    scores, then the test queries. Already-encoded features pass through."""
    if config.data.encoded:
        if train.input_dim != test.input_dim:
            raise ConfigError("encoded train/test dimensions differ")
        return train.features, test.features
    spec = config.encoder
    phi = projection_for(spec, train)
    return eval_queries(spec, phi, train), eval_queries(spec, phi, test)


def build_partition(config: ExperimentConfig, train: dio.Dataset) -> Partition:
    if config.partition.kind == "iid":
        return partition_iid(train.n_samples, config.round.num_clients, config.round.seed)
    return partition_noniid(
        train.labels,
        config.round.num_clients,
        config.partition.shards_per_client,
        config.round.seed,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    train, test = load_datasets(config)
    train_queries, test_queries = encode_datasets(config, train, test)
    partition = build_partition(config, train)
    model, records = run_training(
        train_queries,
        train.labels,
        test_queries,
        test.labels,
        train.num_classes,
        partition,
        config.round,
        config.channel,
        config.strategy,
    )
    return ExperimentResult(model, records)


def format_metrics(records: list[RoundRecord], target_accuracy: float | None = None) -> str:
    """Render metric rows plus, when a target is set, a summary comment line."""
    lines = [METRICS_HEADER]
    up_cum = 0
    down_cum = 0
    reached: str | None = None
    for rec in records:
        up_cum += rec.uplink_bytes
        down_cum += rec.downlink_bytes
        lines.append(
            f"{rec.round_index},{rec.test_accuracy:.6f},{rec.train_loss:.6f},"
            f"{up_cum},{down_cum},{len(rec.participants)},{rec.wall_ms:.3f}"
        )
        if target_accuracy is not None and reached is None and rec.test_accuracy >= target_accuracy:
            reached = (
                f"reached_round={rec.round_index} "
                f"uplink_bytes_cum={up_cum} downlink_bytes_cum={down_cum}"
            )
    if target_accuracy is not None:
        outcome = reached or f"not_reached rounds={len(records)}"
        lines.append(f"# target_accuracy={target_accuracy} {outcome}")
    return "\n".join(lines) + "\n"


def write_metrics(
    records: list[RoundRecord], path: str, target_accuracy: float | None = None
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_metrics(records, target_accuracy))
