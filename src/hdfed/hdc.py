"""Hyperdimensional classification core.

Random-projection encoding into a d-dimensional space, class prototypes
as bundles (element-wise sums) of samples, cosine-similarity inference,
and perceptron-style retraining. The paper's reference operations that
the tests check these against (binary retraining, the linear-discriminant
direction, reconstruction) are test oracles in ``tests/reference.py``.

All functions are pure: they never mutate their inputs and take RNG state
explicitly, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import STREAM_PROJECTION, derived_rng


class DimensionError(ValueError):
    """Operand dimensions are invalid or inconsistent."""


@dataclass(frozen=True)
class ProjectionMatrix:
    """d x m projection with unit-norm rows, reproducible from (m, d, seed)."""

    rows: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.rows.shape[1]

    @property
    def hd_dim(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """The (m, m) Gram matrix G = P^T P, so that h . h' = x . G x' for
        h = P x. Built once per projection by a fixed-order einsum, so its
        bytes do not depend on the BLAS thread count."""
        return np.einsum("dm,dn->mn", self.rows, self.rows, optimize=False)


@dataclass
class ClassPrototypes:
    """Per-class bundled hypervectors.

    ``vectors`` is (K, d) float64; prototypes accumulate in float64 so that
    summing millions of +/-1 elements stays exact.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DimensionError("prototype vectors must be a (K, d) matrix")
        if self.num_classes < 2:
            raise DimensionError(f"need at least 2 classes, got {self.num_classes}")

    @property
    def num_classes(self) -> int:
        return self.vectors.shape[0]

    @property
    def hd_dim(self) -> int:
        return self.vectors.shape[1]

    def copy(self) -> "ClassPrototypes":
        return ClassPrototypes(self.vectors.copy())

    @classmethod
    def zeros(cls, num_classes: int, hd_dim: int) -> "ClassPrototypes":
        return cls(np.zeros((num_classes, hd_dim)))


class SampleRows:
    """Rows ``index`` of one (n, d) sample matrix, in that order, read in
    place: ``len()`` is ``len(index)`` and item ``j`` is the view
    ``matrix[index[j]]``. The matrix must be C-ordered float64. It is
    checked once here, so the retrain loop reads the rows with no per-call
    check and no gathered copy."""

    __slots__ = ("matrix", "index")

    def __init__(self, matrix: np.ndarray, index: np.ndarray) -> None:
        if not isinstance(matrix, np.ndarray) or matrix.ndim != 2:
            raise DimensionError("sample rows need an (n, d) matrix")
        if matrix.dtype != np.float64 or not matrix.flags.c_contiguous:
            raise DimensionError(
                f"sample rows need a C-ordered float64 matrix, got {matrix.dtype}"
                f" with c_contiguous={matrix.flags.c_contiguous}"
            )
        index = np.asarray(index)
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise ValueError("row index must be a 1-D integer array")
        if index.size and (index.min() < 0 or index.max() >= matrix.shape[0]):
            raise ValueError(f"row index must lie in [0, {matrix.shape[0]})")
        self.matrix, self.index = matrix, index

    def __len__(self) -> int:
        return self.index.shape[0]

    def __getitem__(self, j: int) -> np.ndarray:
        return self.matrix[self.index[j]]


class ProjectedQueries:
    """The encodings h = P x of n samples, held as their raw (n, m) features
    x and the ``ProjectionMatrix`` P: the (n, d) rows are never built. The
    eval scores them as (V P) x (see ``_similarity_matrix``), which equals
    V (P x) up to rounding, and ``lockstep_epoch`` retrains in feature
    space too. ``shape`` is that of the encoded rows."""

    __slots__ = ("features", "projection")

    def __init__(self, features: np.ndarray, projection: ProjectionMatrix) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != projection.input_dim:
            raise DimensionError(
                f"expected (n, {projection.input_dim}) features, got shape {features.shape}"
            )
        self.features, self.projection = features, projection

    @property
    def shape(self) -> tuple[int, int]:
        return self.features.shape[0], self.projection.hd_dim

    def __len__(self) -> int:
        return self.features.shape[0]


def make_projection(input_dim: int, hd_dim: int, seed: int) -> ProjectionMatrix:
    """Draw hd_dim random directions on the unit sphere in input_dim dimensions.

    Each row is input_dim independent standard-normal deviates normalized to
    unit Euclidean norm. Deterministic in (input_dim, hd_dim, seed).
    """
    if input_dim < 1 or hd_dim < 1:
        raise DimensionError(
            f"projection dims must be positive, got m={input_dim}, d={hd_dim}"
        )
    rng = derived_rng(seed, STREAM_PROJECTION, hd_dim, input_dim)
    rows = rng.standard_normal((hd_dim, input_dim))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    # A numerically zero gaussian row is not observable in practice, but
    # guard the division anyway.
    norms[norms == 0.0] = 1.0
    rows = rows / norms
    rows.flags.writeable = False
    return ProjectionMatrix(rows)


def encode_batch(phi: ProjectionMatrix, xs: np.ndarray, quantize: bool = False) -> np.ndarray:
    """Encode rows of an (n, m) matrix; output rows follow input order."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != phi.input_dim:
        raise DimensionError(
            f"expected (n, {phi.input_dim}) inputs, got shape {xs.shape}"
        )
    hs = xs @ phi.rows.T
    if quantize:
        return np.where(hs >= 0.0, 1.0, -1.0)
    return hs


def _prototype_norms(vectors: np.ndarray) -> np.ndarray:
    return np.linalg.norm(vectors, axis=1)


def project_prototypes(vectors: np.ndarray, projection: ProjectionMatrix) -> np.ndarray:
    """The (K, m) feature-space weights V P of (K, d) prototype vectors: row
    k scores a linear encoding as v_k . (P x) = (v_k P) . x. One fixed-order
    einsum, no BLAS, so the bytes do not depend on the thread count. The
    eval and ``feature_state`` (for a round's first lockstep epoch) take it
    as ``projected``, so that one product serves every scoring of one
    model."""
    return np.einsum("kd,dm->km", vectors, projection.rows, optimize=False)


def _feature_weights(
    vectors: np.ndarray, projection: ProjectionMatrix, projected: np.ndarray | None
) -> np.ndarray:
    """``projected`` when given, else ``project_prototypes(vectors, projection)``."""
    if vectors.shape[1] != projection.hd_dim:
        raise DimensionError(
            f"prototypes of shape {vectors.shape} do not fit a d={projection.hd_dim} projection"
        )
    if projected is None:
        return project_prototypes(vectors, projection)
    if projected.shape != (vectors.shape[0], projection.input_dim):
        raise DimensionError(f"projected weights of shape {projected.shape} do not fit")
    return projected


def _similarity_matrix(
    vectors: np.ndarray,
    norms: np.ndarray,
    queries: np.ndarray | ProjectedQueries,
    projected: np.ndarray | None = None,
) -> np.ndarray:
    """Class-major (K, n) scores <v, h> / ||v||, 0 for a zero-norm class.

    ``ProjectedQueries`` are scored as (V P) x with the d-space norms: two
    fixed-order einsum products of K x d x m and K x m x n, no BLAS, so
    their bytes do not depend on the thread count; ``projected`` is V P if
    already computed. A (n, d) matrix is scored by one gemm, which at K=10
    takes about half the time of the (n, K) one. Its rows are read
    C-ordered: a Fortran-ordered matrix takes another gemm kernel, whose
    sums can differ in the last bit."""
    if isinstance(queries, ProjectedQueries):
        weights = _feature_weights(vectors, queries.projection, projected)
        sims = np.einsum("km,nm->kn", weights, queries.features, optimize=False)
    else:
        sims = vectors @ np.ascontiguousarray(queries).T
    zero = norms == 0.0
    sims /= np.where(zero, 1.0, norms)[:, None]
    sims[zero] = 0.0
    return sims


def _class_scores(
    prototypes: ClassPrototypes,
    queries: np.ndarray | ProjectedQueries,
    projected: np.ndarray | None = None,
) -> np.ndarray:
    """(K, n) scores of (n, d) encoded rows or of ``ProjectedQueries``."""
    if not isinstance(queries, ProjectedQueries):
        queries = np.asarray(queries, dtype=np.float64)
    if len(queries.shape) != 2 or queries.shape[1] != prototypes.hd_dim:
        raise DimensionError(
            f"expected (n, {prototypes.hd_dim}) queries, got shape {queries.shape}"
        )
    norms = _prototype_norms(prototypes.vectors)
    return _similarity_matrix(prototypes.vectors, norms, queries, projected)


def predict_batch(
    prototypes: ClassPrototypes, hs: np.ndarray | ProjectedQueries
) -> np.ndarray:
    """Most-similar class per row. Among classes whose scores are equal
    floats the lowest index wins. Over ``ProjectedQueries`` every class is
    scored by the same fixed-order einsum, so a class and its exact copy
    tie; over encoded (n, d) rows the BLAS gemm may score them apart in the
    last bit, by where they fall in its blocks of rows."""
    return np.argmax(_class_scores(prototypes, hs), axis=0)


def accuracy(
    prototypes: ClassPrototypes,
    hs: np.ndarray | ProjectedQueries,
    labels: np.ndarray,
    projected: np.ndarray | None = None,
) -> float:
    """Share of rows whose most-similar class is the label. ``projected``
    is ``project_prototypes`` of the model under the queries' projection,
    if already computed; encoded rows ignore it."""
    preds = np.argmax(_class_scores(prototypes, hs, projected), axis=0)
    return float(np.mean(preds == np.asarray(labels)))


def multiclass_margin_loss(
    prototypes: ClassPrototypes,
    hs: np.ndarray | ProjectedQueries,
    labels: np.ndarray,
    projected: np.ndarray | None = None,
) -> float:
    """Mean hinge gap between the best wrong class and the true class.

    Zero exactly when every sample's true class strictly dominates (or ties
    from the favorable side) all other similarities.
    """
    labels = np.asarray(labels)
    sims = _class_scores(prototypes, hs, projected)
    cols = np.arange(sims.shape[1])
    true = sims[labels, cols]
    sims[labels, cols] = -np.inf
    rival = sims.max(axis=0)
    return float(np.mean(np.maximum(0.0, rival - true)))


def retrain_epoch(
    prototypes: ClassPrototypes,
    hvs: np.ndarray | SampleRows,
    labels: np.ndarray,
    alpha: float,
    order: np.ndarray | None = None,
) -> tuple[ClassPrototypes, int]:
    """One correction pass over the samples, in ``order`` if given.

    Each mispredicted sample is added (scaled by alpha) to its true class
    prototype and subtracted from the predicted one.
    ``hvs`` is an (n, d) matrix or a ``SampleRows`` of n rows; linear
    encodings retrain in feature space instead (``lockstep_epoch``).
    ``order`` is a permutation of ``range(len(hvs))`` naming the sample to
    visit at each step; the pass reads rows of ``hvs`` in place, so
    ``retrain_epoch(p, hvs, labels, a, order)`` equals
    ``retrain_epoch(p, hvs[order], labels[order], a)`` bit for bit without
    the copy, and ``SampleRows(m, idx)`` equals the gathered ``m[idx]``.
    ``None`` visits the samples as stored. Labels must lie in
    ``[0, K)``. Among classes whose scores are equal floats the lowest
    index is predicted, but the gemv may score a class and its exact copy
    apart in the last bit (see ``predict_batch``). Returns the updated
    prototypes and the number of corrections made.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rows = None
    if isinstance(hvs, SampleRows):
        samples, rows = hvs.matrix, hvs.index  # checked where built
        shape = (len(rows), samples.shape[1])
    else:
        samples = np.ascontiguousarray(hvs, dtype=np.float64)  # rows score like a gathered copy's
        shape = samples.shape
    labels = np.asarray(labels)
    if len(shape) != 2 or shape[1] != prototypes.hd_dim:
        raise DimensionError("sample dimension does not match prototypes")
    n = shape[0]
    if labels.shape != (n,):
        raise DimensionError("labels must align with samples")
    k = prototypes.num_classes
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    if order is None:
        order = np.arange(n)
    else:
        order = np.asarray(order)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order must be a permutation of range({n})")
    vectors = prototypes.vectors.copy()
    # Divisors and the zero-norm mask are built once and refreshed only for
    # the two classes a mistake changes. The refresh uses the dot product
    # that np.linalg.norm computes for a 1-D vector, so every score is the
    # same float as when they were rebuilt for each sample.
    norms = _prototype_norms(vectors)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    any_zero = bool(zero.any())
    # One score buffer: np.dot(out=) is the same gemv as vectors @ h.
    sims = np.empty(vectors.shape[0])
    mistakes = 0
    # Each step names the sample row to read and its label.
    steps = zip((order if rows is None else rows[order]).tolist(), labels[order].tolist())
    for i, label in steps:
        h = samples[i]
        np.dot(vectors, h, out=sims)
        np.divide(sims, safe, out=sims)
        if any_zero:
            sims[zero] = 0.0
        pred = int(sims.argmax())
        if pred != label:
            step = alpha * h
            vectors[label] += step
            vectors[pred] -= step
            for c in (label, pred):
                v = vectors[c]
                norm = math.sqrt(v @ v)
                zero[c] = norm == 0.0
                safe[c] = 1.0 if norm == 0.0 else norm
            any_zero = bool(zero.any())
            mistakes += 1
    return ClassPrototypes(vectors), mistakes


def feature_state(
    vectors: np.ndarray, projection: ProjectionMatrix, projected: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a feature-space pass over the model ``vectors`` (K, d) starts
    from: the (K, m) weights V P (``projected``, if already computed), the
    d-space norms that divide its first scores, as ``retrain_epoch``
    builds them, and the squared norms that its mistakes update."""
    return (
        _feature_weights(vectors, projection, projected),
        _prototype_norms(vectors),
        np.einsum("kd,kd->k", vectors, vectors, optimize=False),
    )


def lockstep_epoch(
    features: np.ndarray,
    projection: ProjectionMatrix,
    visits: list[np.ndarray],
    labels: list[np.ndarray],
    weights: np.ndarray,
    norms: np.ndarray,
    squares: np.ndarray,
    alpha: float,
) -> list[list[tuple[int, int, int]]]:
    """One feature-space retrain pass for each of C clients, decided in
    lockstep. Returns each client's mistakes (row, label, pred) in its
    visiting order; ``replay_mistakes`` applies them to its model.

    Client c visits the rows ``visits[c]`` of the one (n, m) ``features``
    matrix, whose labels are ``labels[c]``, from the ``feature_state`` of
    its model: ``weights[c]`` (K, m), ``norms[c]`` and ``squares[c]``
    (K,). The inputs are not written.

    With h = P x, prototype v scores v . h = (v P) . x. Each step gathers
    the next row of every client still running into one (C, m) buffer and
    scores them all by one stacked ``np.matmul``, which runs per client the
    gemv of ``np.dot(A, x)`` and gives its bytes. Scores are divided by the
    class norms, a zero-norm class scores 0, and the argmax is the
    prediction, as in ``retrain_epoch``. A mistake moves two rows of its
    client's weights by +/- alpha G x (G = P^T P) and their squared norms
    by +/- 2 alpha (v . h) + alpha^2 x . G x, one client at a time. The
    clients are stepped longest first, so the ones whose rows have not run
    out are the first ``active[s]`` of the stack at step s.
    """
    count = len(visits)
    if len(labels) != count:
        raise DimensionError("need one label array per client")
    if features.ndim != 2 or features.dtype != np.float64:
        raise DimensionError(f"lockstep needs an (n, m) float64 matrix, got {features.dtype}")
    m = projection.input_dim
    if weights.ndim != 3 or weights.shape[::2] != (count, m) or features.shape[1] != m:
        raise DimensionError(f"weights of shape {weights.shape} do not fit")
    k = weights.shape[1]
    if norms.shape != (count, k) or squares.shape != (count, k):
        raise DimensionError("need (C, K) norms and squared norms")
    lengths = np.array([len(v) for v in visits], dtype=np.intp)
    by_length = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max(initial=0))
    # Step s reads row rows[s, j] with label wanted[s, j] for the j-th
    # longest client; the padding (row 0, label 0) is never read.
    rows = np.zeros((steps, count), dtype=np.intp)
    wanted = np.zeros((steps, count), dtype=np.intp)
    for j, c in enumerate(by_length.tolist()):
        if labels[c].shape != visits[c].shape or visits[c].ndim != 1:
            raise DimensionError("labels must align with visits")
        rows[: lengths[c], j] = visits[c]
        wanted[: lengths[c], j] = labels[c]
    if rows.size and (rows.min() < 0 or rows.max() >= features.shape[0]):
        raise ValueError(f"visited rows must lie in [0, {features.shape[0]})")
    if wanted.size and (wanted.min() < 0 or wanted.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    active = np.count_nonzero(np.arange(steps)[:, None] < lengths, axis=1).tolist()
    gram = projection.gram
    weights, squares = weights[by_length], squares[by_length]  # copies, stepped in place
    zero = norms[by_length] == 0.0
    safe = np.where(zero, 1.0, norms[by_length])
    any_zero = bool(zero.any())
    xs = np.empty((count, m))
    raw = np.empty((count, k))  # v . h per client and class, before the division
    sims = np.empty((count, k))
    logs: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
    for s, a in enumerate(active):
        x, r, sim = xs[:a], raw[:a], sims[:a]
        features.take(rows[s, :a], axis=0, out=x, mode="clip")  # checked above
        np.matmul(weights[:a], x[:, :, None], out=r[:, :, None])
        np.divide(r, safe[:a], out=sim)
        if any_zero:
            sim[zero[:a]] = 0.0
        preds = sim.argmax(axis=1)
        wrong = (preds != wanted[s, :a]).nonzero()[0]
        if not wrong.size:
            continue
        for j in wrong.tolist():
            label, pred = int(wanted[s, j]), int(preds[j])
            gx = gram @ x[j]
            step = alpha * gx
            weights[j, label] += step
            weights[j, pred] -= step
            hh = alpha * alpha * float(x[j] @ gx)
            for c, sign in ((label, 2.0 * alpha), (pred, -2.0 * alpha)):
                # A class that a mistake empties can round to just below 0.
                squares[j, c] = max(squares[j, c] + sign * r[j, c] + hh, 0.0)
                norm = math.sqrt(squares[j, c])
                zero[j, c] = norm == 0.0
                safe[j, c] = 1.0 if norm == 0.0 else norm
            logs[j].append((int(rows[s, j]), label, pred))
        any_zero = bool(zero.any())
    return [logs[j] for j in np.argsort(by_length).tolist()]  # back in client order


def replay_mistakes(
    vectors: np.ndarray,
    features: np.ndarray,
    projection: ProjectionMatrix,
    log: list[tuple[int, int, int]],
    alpha: float,
) -> None:
    """Apply one pass's mistakes (row, label, pred), in order, to the
    (K, d) ``vectors`` in place, with the float operations of
    ``retrain_epoch``: the mistaken rows of ``features`` are encoded by one
    ``encode_batch`` call, and each is added (scaled by alpha) to its
    label's prototype and subtracted from the predicted one.

    So the model equals that of the d-space pass over the encoded split
    when every decision agrees, which holds unless a top-two gap is within
    rounding, and when ``encode_batch`` gives each row the bytes it has
    among all of the split's rows. That depends on the BLAS gemm: OpenBLAS
    0.3.31 on AVX-512 gave equal rows for every subset of >= 2 rows when d
    is a multiple of 8 and d >= 800 or m < 32, but not for other shapes. A
    lone row would go to a gemv, so it is padded.
    """
    if not log:
        return
    index = np.array([i for i, _, _ in log])
    hs = encode_batch(projection, features[index if index.size > 1 else np.repeat(index, 2)])
    for h, (_, label, pred) in zip(hs, log):
        step = alpha * h
        vectors[label] += step
        vectors[pred] -= step
