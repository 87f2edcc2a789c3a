"""Dataset ingestion, binary storage, normalization, and a synthetic mixture.

Two on-disk formats:

* delimited text: comma-separated numeric features, one integer label as the
  last column;
* HDDS binary: magic "HDDS", version byte, then n, m, K as 32-bit
  little-endian unsigned, a dtype tag byte, float32 row-major features, and
  labels as 16-bit unsigned.

Feature vectors are treated opaquely, so raw features and precomputed
embeddings flow through the same pipeline. A Dataset holds finite features
only; the loaders name the line or byte offset of a non-finite one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .seeding import STREAM_SYNTH, derived_rng

HDDS_MAGIC = b"HDDS"
HDDS_VERSION = 1
_DTYPE_FLOAT32 = 1
_MAX_LABEL = 0xFFFF  # labels persist as uint16


class DataFormatError(ValueError):
    """A dataset file or stream violates its format."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, m) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataFormatError("features must be a non-empty (n, m) matrix")
        if not np.isfinite(self.features).all():
            row, col = np.argwhere(~np.isfinite(self.features))[0].tolist()
            raise DataFormatError(f"feature [{row}, {col}] = {self.features[row, col]} is not finite")
        if self.labels.shape != (self.features.shape[0],):
            raise DataFormatError("labels must align with feature rows")
        if self.num_classes < 1:
            raise DataFormatError("num_classes must be positive")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise DataFormatError("labels must lie in [0, num_classes)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def load_delimited(path: str, has_header: bool = False) -> Dataset:
    """Parse comma-separated rows of m features plus a trailing integer label.

    The class count is inferred as max label + 1. Parse failures, including
    non-finite features (nan, inf), report the offending 1-based line number.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if has_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise DataFormatError(
                    f"{path}:{lineno}: need at least one feature and a label"
                )
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                feats = [float(v) for v in fields[:-1]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric feature: {exc}") from None
            if not all(math.isfinite(v) for v in feats):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature")
            try:
                label = int(fields[-1])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: label must be an integer, got {fields[-1]!r}"
                ) from None
            if label < 0:
                raise DataFormatError(f"{path}:{lineno}: negative label {label}")
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")
    features = np.array(rows, dtype=np.float64)
    label_arr = np.array(labels, dtype=np.int64)
    return Dataset(features, label_arr, int(label_arr.max()) + 1)


def save_binary(dataset: Dataset, path: str) -> None:
    """Write the HDDS binary form (float32 features, uint16 labels).

    Raises DataFormatError, before writing anything, for labels above the
    16-bit range or features that are not finite as float32 (beyond its
    range they would be written as infinities load_binary refuses).
    """
    if int(dataset.labels.max(initial=0)) > _MAX_LABEL:
        raise DataFormatError("labels exceed the 16-bit storage range")
    with np.errstate(over="ignore"):
        features = dataset.features.astype("<f4")
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0].tolist()
        raise DataFormatError(
            f"feature [{row}, {col}] = {dataset.features[row, col]} is not finite as float32"
        )
    n, m = dataset.features.shape
    header = HDDS_MAGIC + struct.pack(
        "<BIIIB", HDDS_VERSION, n, m, dataset.num_classes, _DTYPE_FLOAT32
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(features.tobytes())
        f.write(dataset.labels.astype("<u2").tobytes())


def load_binary(path: str) -> Dataset:
    """Read an HDDS file; rejects bad magic, version, truncated payloads, or
    non-finite features (naming the byte offset of the first)."""
    with open(path, "rb") as f:
        blob = f.read()
    header_size = 4 + struct.calcsize("<BIIIB")
    if len(blob) < header_size:
        raise DataFormatError(f"{path}: truncated header")
    if blob[:4] != HDDS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    version, n, m, k, dtype_tag = struct.unpack("<BIIIB", blob[4:header_size])
    if version != HDDS_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if dtype_tag != _DTYPE_FLOAT32:
        raise DataFormatError(f"{path}: unsupported dtype tag {dtype_tag}")
    expected = header_size + n * m * 4 + n * 2
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload size mismatch (expected {expected} bytes, got {len(blob)})"
        )
    features = np.frombuffer(blob, dtype="<f4", count=n * m, offset=header_size)
    bad = np.flatnonzero(~np.isfinite(features))
    if bad.size:
        offset = header_size + 4 * int(bad[0])
        raise DataFormatError(f"{path}: non-finite feature at byte offset {offset}")
    labels = np.frombuffer(blob, dtype="<u2", count=n, offset=header_size + n * m * 4)
    return Dataset(features.reshape(n, m).astype(np.float64), labels.astype(np.int64), int(k))


def _mixture_means(
    num_classes: int,
    input_dim: int,
    mean_separation: float,
    symmetric: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    if symmetric and num_classes != 2:
        raise ValueError("symmetric placement requires exactly 2 classes")
    if symmetric:
        direction = rng.standard_normal(input_dim)
        direction /= np.linalg.norm(direction)
        return np.stack([mean_separation * direction, -mean_separation * direction])
    means = rng.standard_normal((num_classes, input_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mean_separation * means / norms


def _sample_mixture(means: np.ndarray, n_per_class: int, rng: np.random.Generator) -> Dataset:
    num_classes, input_dim = means.shape
    features = np.empty((num_classes * n_per_class, input_dim))
    labels = np.empty(num_classes * n_per_class, dtype=np.int64)
    for k in range(num_classes):
        start = k * n_per_class
        features[start : start + n_per_class] = means[k] + rng.standard_normal(
            (n_per_class, input_dim)
        )
        labels[start : start + n_per_class] = k
    order = rng.permutation(num_classes * n_per_class)
    return Dataset(features[order], labels[order], num_classes)


def synth_train_test(
    num_classes: int,
    input_dim: int,
    train_per_class: int,
    test_per_class: int,
    mean_separation: float,
    seed: int,
    symmetric: bool = False,
) -> tuple[Dataset, Dataset]:
    """Train and test splits drawn from one mixture (shared class means)."""
    rng = derived_rng(seed, STREAM_SYNTH, num_classes, input_dim)
    means = _mixture_means(num_classes, input_dim, mean_separation, symmetric, rng)
    train = _sample_mixture(means, train_per_class, rng)
    test = _sample_mixture(means, test_per_class, rng)
    return train, test


def feature_stats(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and standard deviation (population, ddof=0)."""
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    return mean, std


def normalize_features(
    dataset: Dataset,
    mean: np.ndarray | None = None,
    std: np.ndarray | None = None,
) -> Dataset:
    """Standardize features to zero mean / unit variance.

    With no statistics given, the dataset's own are used; pass the training
    split's statistics when transforming a test split so nothing leaks.
    Constant features map to zero.
    """
    if mean is None or std is None:
        mean, std = feature_stats(dataset)
    safe = np.where(std == 0.0, 1.0, std)
    standardized = (dataset.features - mean) / safe
    standardized[:, std == 0.0] = 0.0
    return replace(dataset, features=standardized)
