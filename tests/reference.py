"""The paper's math, written out as oracles for the tests.

None of this runs in the system. The acceptance criteria and unit tests
compare the trainer, the encoder and the uplink codec against these:
perceptron-style binary retraining and its explicit loss (the SGD
equivalence), the linear-discriminant direction, reconstruction from noisy
encodings, one-shot prototype bundling, a shared dimension mask, the
unpacked 0/1-bit view of the codec payload, the per-class view of a
sparse model, and one client's feature-space retrain pass, one sample at a
time and as the system runs it for a cohort of one.
"""

from __future__ import annotations

import math

import numpy as np

from hdfed.channel import CodecConfig, decode_values, encode_values
from hdfed.hdc import (
    ClassPrototypes,
    DimensionError,
    ProjectedQueries,
    ProjectionMatrix,
    feature_state,
    lockstep_epoch,
    project_prototypes,
    replay_mistakes,
)


def one_shot_train(hvs: np.ndarray, labels: np.ndarray, num_classes: int) -> ClassPrototypes:
    """Bundle encoded samples into per-class prototypes in a single pass.

    Classes that receive no samples get a zero prototype.
    """
    hvs = np.asarray(hvs, dtype=np.float64)
    labels = np.asarray(labels)
    if hvs.ndim != 2 or hvs.shape[0] == 0:
        raise ValueError("need a non-empty (n, d) sample matrix")
    if labels.shape != (hvs.shape[0],):
        raise DimensionError("labels must align with samples")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    vectors = np.zeros((num_classes, hvs.shape[1]))
    np.add.at(vectors, labels, hvs)
    return ClassPrototypes(vectors)


def binary_retrain(
    w: np.ndarray,
    hvs: np.ndarray,
    ys: np.ndarray,
    eta: float,
    passes: int = 1,
) -> np.ndarray:
    """Perceptron-style updates on a separating weight vector.

    For each sample in order, if y * <w, h> <= 0 then w <- w + eta * y * h.
    The non-strict comparison makes training progress from w = 0, which
    otherwise would never update.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    w = np.array(w, dtype=np.float64)
    hvs = np.asarray(hvs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if hvs.ndim != 2 or hvs.shape[1] != w.shape[0]:
        raise DimensionError("sample dimension does not match weights")
    if not np.all(np.isin(ys, (-1.0, 1.0))):
        raise ValueError("binary labels must be -1 or +1")
    for _ in range(passes):
        for h, y in zip(hvs, ys):
            if y * np.dot(w, h) <= 0.0:
                w = w + eta * y * h
    return w


def perceptron_loss(w: np.ndarray, h: np.ndarray, y: float) -> float:
    """max(0, -y <w, h>): zero exactly when the decision sign agrees with y."""
    w = np.asarray(w, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if w.shape != h.shape:
        raise DimensionError(f"length mismatch: {w.shape} vs {h.shape}")
    return float(max(0.0, -y * np.dot(w, h)))


def fisher_direction(
    mean_pos: np.ndarray,
    mean_neg: np.ndarray,
    cov_pos: np.ndarray,
    cov_neg: np.ndarray,
    ridge: float = 1e-8,
) -> np.ndarray:
    """Two-class linear-discriminant direction (sum-of-scatters inverse times
    mean difference).

    Used as a test oracle, not a hot path. A numerically singular scatter
    matrix falls back to a small ridge before solving.
    """
    mean_pos = np.asarray(mean_pos, dtype=np.float64)
    mean_neg = np.asarray(mean_neg, dtype=np.float64)
    cov_pos = np.asarray(cov_pos, dtype=np.float64)
    cov_neg = np.asarray(cov_neg, dtype=np.float64)
    d = mean_pos.shape[0]
    if mean_neg.shape != (d,) or cov_pos.shape != (d, d) or cov_neg.shape != (d, d):
        raise DimensionError("mean/covariance shapes are inconsistent")
    scatter = cov_pos + cov_neg
    diff = mean_pos - mean_neg
    try:
        direction = np.linalg.solve(scatter, diff)
        if not np.all(np.isfinite(direction)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        direction = np.linalg.solve(scatter + ridge * np.eye(d), diff)
    return direction


def reconstruct(phi: ProjectionMatrix, h_noisy: np.ndarray) -> np.ndarray:
    """Estimate the raw input from a (possibly noisy) unquantized encoding.

    Returns (m/d) * Phi^T h. For unit-norm random rows E[Phi^T Phi] is
    (d/m) * I, so the m/d factor makes the estimator unbiased; averaging over
    d rows suppresses per-dimension noise.
    """
    h_noisy = np.asarray(h_noisy, dtype=np.float64)
    if h_noisy.ndim != 1 or h_noisy.shape[0] != phi.hd_dim:
        raise DimensionError(
            f"expected encoding of length {phi.hd_dim}, got shape {h_noisy.shape}"
        )
    return (phi.input_dim / phi.hd_dim) * (phi.rows.T @ h_noisy)


def mask_prototypes(
    model: ClassPrototypes, keep_fraction: float, rng: np.random.Generator
) -> ClassPrototypes:
    """Zero a shared random subset of exactly round(keep_fraction * d)
    dimensions across every prototype."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    mask = np.zeros(model.hd_dim, dtype=bool)
    keep = int(round(keep_fraction * model.hd_dim))
    mask[rng.choice(model.hd_dim, size=keep, replace=False)] = True
    return ClassPrototypes(model.vectors * mask)


def serialize_bits(values: np.ndarray, codec: CodecConfig) -> np.ndarray:
    """Unpacked view of encode_values: exactly values.size * width 0/1 bytes."""
    n_bits = np.size(values) * codec.value_bits
    return np.unpackbits(encode_values(values, codec), count=n_bits, bitorder="little")


def deserialize_bits(bits: np.ndarray, codec: CodecConfig, shape: tuple[int, ...]) -> np.ndarray:
    """Decode a 0/1 bit vector back into parameters of the given shape."""
    bits = np.asarray(bits, dtype=np.uint8)
    count = int(np.prod(shape))
    if bits.size != count * codec.value_bits:
        raise DimensionError(f"{bits.size} bits do not hold {shape} at {codec.value_bits} bits")
    return decode_values(np.packbits(bits, bitorder="little"), codec, count).reshape(shape)


def by_class(sparse) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A SparseClassModel's flat indices and values, cut into one array per
    class by its lengths."""
    cuts = np.cumsum(sparse.lengths)[:-1]
    return np.split(sparse.indices, cuts), np.split(sparse.values, cuts)


def feature_space_pass(
    vectors: np.ndarray,
    features: np.ndarray,
    projection: ProjectionMatrix,
    rows: np.ndarray,
    labels: np.ndarray,
    alpha: float,
) -> list[tuple[int, int, int]]:
    """One client's retrain pass over ``rows`` of ``features``, decided in
    feature space one sample at a time: each step scores x against
    A = V P by its own ``np.dot`` gemv, divides by the d-space norms
    (0 for a zero-norm class) and takes the argmax; a mistake moves two
    rows of A by +/- alpha G x and their squared norms by
    +/- 2 alpha (v . h) + alpha^2 x . G x. Returns the mistakes
    (row, label, pred) in visiting order; ``vectors`` is not written."""
    gram = projection.gram
    weights = project_prototypes(vectors, projection)
    norms = np.linalg.norm(vectors, axis=1)
    squares = np.einsum("kd,kd->k", vectors, vectors, optimize=False)
    log = []
    for i, label in zip(np.asarray(rows).tolist(), np.asarray(labels).tolist()):
        x = np.ascontiguousarray(features[i])
        raw = np.dot(weights, x)
        sims = raw / np.where(norms == 0.0, 1.0, norms)
        sims[norms == 0.0] = 0.0
        pred = int(sims.argmax())
        if pred != label:
            gx = gram @ x
            weights[label] += alpha * gx
            weights[pred] -= alpha * gx
            hh = alpha * alpha * float(x @ gx)
            for c, sign in ((label, 2.0 * alpha), (pred, -2.0 * alpha)):
                squares[c] = max(squares[c] + sign * raw[c] + hh, 0.0)
                norms[c] = math.sqrt(squares[c])
            log.append((i, label, pred))
    return log


def projected_retrain_epoch(
    prototypes: ClassPrototypes,
    queries: ProjectedQueries,
    labels: np.ndarray,
    alpha: float,
    order: np.ndarray | None = None,
) -> tuple[ClassPrototypes, int]:
    """One client's retrain pass over its ``ProjectedQueries``, in ``order``
    if given, as a round runs it for a cohort of one: ``feature_state`` of
    the model, ``lockstep_epoch`` for the one client, then
    ``replay_mistakes`` onto a copy of the vectors. Returns the model and
    the mistake count, as ``retrain_epoch`` does for encoded rows."""
    labels = np.asarray(labels)
    order = np.arange(len(queries)) if order is None else np.asarray(order)
    phi, vectors = queries.projection, prototypes.vectors.copy()
    state = (a[np.newaxis] for a in feature_state(vectors, phi))
    [log] = lockstep_epoch(queries.features, phi, [order], [labels[order]], *state, alpha)
    replay_mistakes(vectors, queries.features, phi, log, alpha)
    return ClassPrototypes(vectors), len(log)
