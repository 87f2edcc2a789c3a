import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdfed.config import EncoderSpec
from hdfed.data import Dataset
from hdfed.harness import projection_for
from hdfed.hdc import (
    ClassPrototypes,
    DimensionError,
    ProjectedQueries,
    ProjectionMatrix,
    SampleRows,
    _class_scores,
    _prototype_norms,
    _similarity_matrix,
    accuracy,
    encode_batch,
    feature_state,
    lockstep_epoch,
    make_projection,
    multiclass_margin_loss,
    predict_batch,
    project_prototypes,
    retrain_epoch,
)
from reference import (
    binary_retrain,
    fisher_direction,
    one_shot_train,
    perceptron_loss,
    projected_retrain_epoch,
    reconstruct,
)


def encode_one(phi: ProjectionMatrix, x: np.ndarray, quantize: bool = False) -> np.ndarray:
    return encode_batch(phi, np.asarray(x, dtype=np.float64)[np.newaxis], quantize)[0]


def score(c: np.ndarray, h: np.ndarray) -> float:
    """Prototype c's score for query h, as the eval computes it."""
    protos = ClassPrototypes(np.stack([c, np.zeros_like(c)]))
    return float(_class_scores(protos, np.asarray(h, dtype=np.float64)[np.newaxis])[0, 0])


def predict_one(protos: ClassPrototypes, h: np.ndarray) -> int:
    return int(predict_batch(protos, np.asarray(h, dtype=np.float64)[np.newaxis])[0])


def identity_projection(m: int) -> ProjectionMatrix:
    return ProjectionMatrix(np.eye(m))


class TestProjectionFor:
    """The encoder spec meets the dataset here; the spec comes from outside
    the program, so its dimension is checked against the feature count."""

    @staticmethod
    def dataset(m):
        return Dataset(np.ones((2, m)), [0, 1], 2)

    def test_rejects_dim_below_feature_count(self):
        with pytest.raises(DimensionError):
            projection_for(EncoderSpec(dim=5), self.dataset(10))

    def test_rejects_zero_dim(self):
        with pytest.raises(DimensionError):
            projection_for(EncoderSpec(dim=0), self.dataset(4))

    def test_dim_equal_to_feature_count_accepted(self):
        phi = projection_for(EncoderSpec(dim=6), self.dataset(6))
        assert (phi.hd_dim, phi.input_dim) == (6, 6)

    def test_spec_seed_and_dim_draw_the_projection(self):
        # The feature count comes from the dataset, d and the seed from the spec.
        phi = projection_for(EncoderSpec(dim=12, seed=3), self.dataset(4))
        assert np.array_equal(phi.rows, make_projection(4, 12, seed=3).rows)
        other = projection_for(EncoderSpec(dim=12, seed=4), self.dataset(4))
        assert not np.array_equal(phi.rows, other.rows)


class TestMakeProjection:
    def test_one_by_one_is_sign(self):
        for seed in (0, 1, 17, 12345):
            phi = make_projection(1, 1, seed)
            assert phi.rows.shape == (1, 1)
            assert abs(phi.rows[0, 0]) == pytest.approx(1.0)

    def test_rows_unit_norm(self):
        phi = make_projection(3, 5, seed=7)
        assert np.allclose(np.linalg.norm(phi.rows, axis=1), 1.0, atol=1e-6)

    def test_deterministic(self):
        a = make_projection(3, 5, seed=7)
        b = make_projection(3, 5, seed=7)
        assert np.array_equal(a.rows, b.rows)
        c = make_projection(3, 5, seed=8)
        assert not np.array_equal(a.rows, c.rows)

    def test_rejects_zero_dims(self):
        with pytest.raises(DimensionError):
            make_projection(0, 5, seed=0)
        with pytest.raises(DimensionError):
            make_projection(5, 0, seed=0)

    def test_mean_pairwise_row_dot_small_ambient_dim(self):
        # 1000 unit rows in R^4: the exact mean |cos| between random
        # directions in R^4 is 4 / (3 pi) ~ 0.4244, so rows cannot be
        # near-orthogonal when the ambient dimension is tiny.
        phi = make_projection(4, 1000, seed=1)
        gram = phi.rows @ phi.rows.T
        off_diag = np.abs(gram[np.triu_indices(1000, k=1)])
        assert off_diag.mean() == pytest.approx(4.0 / (3.0 * math.pi), abs=0.01)

    def test_mean_pairwise_row_dot_large_ambient_dim(self):
        # Near-orthogonality of random unit vectors needs large ambient
        # dimension: at m = 1000 the mean |dot| ~ sqrt(2 / (pi m)) ~ 0.025.
        phi = make_projection(1000, 1000, seed=1)
        gram = phi.rows @ phi.rows.T
        off_diag = np.abs(gram[np.triu_indices(1000, k=1)])
        assert off_diag.mean() <= 0.1


class TestEncode:
    def test_identity_projection_passthrough(self):
        phi = identity_projection(2)
        out = encode_one(phi, np.array([3.0, -2.0]), quantize=False)
        assert np.array_equal(out, [3.0, -2.0])

    def test_identity_projection_quantized(self):
        phi = identity_projection(2)
        out = encode_one(phi, np.array([3.0, -2.0]), quantize=True)
        assert np.array_equal(out, [1.0, -1.0])

    def test_sign_of_zero_is_plus_one(self):
        phi = identity_projection(3)
        out = encode_one(phi, np.zeros(3), quantize=True)
        assert np.array_equal(out, [1.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        phi = identity_projection(3)
        with pytest.raises(DimensionError):
            encode_one(phi, np.zeros(4))

    def test_batch_matches_single(self):
        phi = make_projection(5, 64, seed=3)
        xs = np.random.default_rng(0).standard_normal((7, 5))
        batch = encode_batch(phi, xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], phi.rows @ x)
            assert np.allclose(batch[i], encode_one(phi, x))

    def test_quantized_batch_values(self):
        phi = make_projection(5, 64, seed=3)
        xs = np.random.default_rng(0).standard_normal((7, 5))
        batch = encode_batch(phi, xs, quantize=True)
        assert set(np.unique(batch)) <= {-1.0, 1.0}


class TestOneShotTrain:
    def test_sums_per_class(self):
        hvs = np.array([[1.0, 1.0], [1.0, -1.0]])
        protos = one_shot_train(hvs, np.array([0, 0]), num_classes=2)
        assert np.array_equal(protos.vectors, [[2.0, 0.0], [0.0, 0.0]])

    def test_single_sample_per_class(self):
        hvs = np.array([[1.0, 2.0], [3.0, 4.0]])
        protos = one_shot_train(hvs, np.array([0, 1]), num_classes=2)
        assert np.array_equal(protos.vectors, hvs)

    def test_empty_class_gets_zero_prototype(self):
        hvs = np.array([[1.0, 1.0], [2.0, 2.0]])
        protos = one_shot_train(hvs, np.array([0, 1]), num_classes=3)
        assert np.array_equal(protos.vectors[2], [0.0, 0.0])

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            one_shot_train(np.empty((0, 4)), np.empty(0, dtype=int), num_classes=2)

    def test_class_sums_add_up_to_the_sample_total(self):
        # Every sample is bundled into exactly one class.
        rng = np.random.default_rng(5)
        hvs = rng.choice([-1.0, 1.0], size=(20, 8))
        labels = rng.integers(0, 3, size=20)
        protos = one_shot_train(hvs, labels, num_classes=3)
        assert np.array_equal(protos.vectors.sum(axis=0), hvs.sum(axis=0))


class TestSimilarity:
    def test_normalizes_by_prototype_norm(self):
        assert score(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_zero_prototype_convention(self):
        assert score(np.zeros(2), np.array([1.0, 1.0])) == 0.0

    def test_hand_computed(self):
        # (9 + 16) / 5
        assert score(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            score(np.zeros(2), np.zeros(3))

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(16)
        h = rng.standard_normal(16)
        assert score(scale * c, h) == pytest.approx(score(c, h), rel=1e-9)


class TestPredict:
    def test_most_similar_wins(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert predict_one(protos, np.array([1.0, 0.0])) == 0
        assert predict_one(protos, np.array([0.0, 1.0])) == 1

    def test_all_identical_prototypes_tie_break(self):
        protos = ClassPrototypes(np.ones((3, 4)))
        assert predict_one(protos, np.ones(4)) == 0

    def test_normalization_removes_magnitude(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [2.0, 0.0]]))
        # Both similarities are exactly 1.0, the tie resolves downward.
        assert predict_one(protos, np.array([1.0, 0.0])) == 0

    def test_zero_prototype_never_wins(self):
        protos = ClassPrototypes(np.array([[0.0, 0.0], [-1.0, 0.0]]))
        assert predict_one(protos, np.array([-1.0, 0.0])) == 1

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.floats(min_value=0.01, max_value=100.0),
        which=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_one_prototype_preserves_decisions(self, seed, scale, which):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((3, 12))
        protos = ClassPrototypes(vectors)
        queries = rng.standard_normal((8, 12))
        before = predict_batch(protos, queries)
        scaled = vectors.copy()
        scaled[which] *= scale
        after = predict_batch(ClassPrototypes(scaled), queries)
        assert np.array_equal(before, after)


class TestRetrainEpoch:
    def test_hand_traced_update(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        updated, mistakes = retrain_epoch(protos, np.array([[1.0, 0.0]]), np.array([1]), alpha=1.0)
        assert mistakes == 1
        assert np.array_equal(updated.vectors[0], [0.0, 0.0])
        assert np.array_equal(updated.vectors[1], [1.0, 1.0])

    def test_correct_sample_leaves_model_unchanged(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        updated, mistakes = retrain_epoch(protos, np.array([[1.0, 0.0]]), np.array([0]), alpha=1.0)
        assert mistakes == 0
        assert np.array_equal(updated.vectors, protos.vectors)

    def test_alpha_scales_updates_linearly(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        updated, _ = retrain_epoch(protos, np.array([[1.0, 0.0]]), np.array([1]), alpha=0.5)
        assert np.array_equal(updated.vectors[0], [0.5, 0.0])
        assert np.array_equal(updated.vectors[1], [0.5, 1.0])

    def test_rejects_nonpositive_alpha(self):
        protos = ClassPrototypes(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            retrain_epoch(protos, np.ones((1, 2)), np.array([0]), alpha=0.0)

    def test_returned_model_shares_no_memory_with_input(self):
        # Also with no mistake, the caller may update either model freely.
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        updated, mistakes = retrain_epoch(protos, np.array([[1.0, 0.0]]), np.array([0]), alpha=1.0)
        assert mistakes == 0
        assert not np.shares_memory(updated.vectors, protos.vectors)

    def test_input_prototypes_not_mutated(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        before = protos.vectors.copy()
        retrain_epoch(protos, np.array([[1.0, 0.0]]), np.array([1]), alpha=1.0)
        assert np.array_equal(protos.vectors, before)


def reference_retrain_epoch(prototypes, hvs, labels, alpha):
    """The per-sample loop as first written: norms, divisors and the
    zero-norm mask rebuilt for every sample, samples in stored order."""
    vectors = prototypes.vectors.copy()
    norms = np.linalg.norm(vectors, axis=1)
    mistakes = 0
    for h, label in zip(hvs, labels):
        sims = vectors @ h
        safe = np.where(norms == 0.0, 1.0, norms)
        sims = sims / safe
        sims[norms == 0.0] = 0.0
        pred = int(np.argmax(sims))
        if pred != label:
            vectors[label] += alpha * h
            vectors[pred] -= alpha * h
            norms[label] = np.linalg.norm(vectors[label])
            norms[pred] = np.linalg.norm(vectors[pred])
            mistakes += 1
    return ClassPrototypes(vectors), mistakes


@st.composite
def retrain_cases(draw):
    """Small retraining problems: K in 2..6, small d, alpha often not 1;
    integral data (exact ties) or gaussian; a zero, partly zero or random
    starting model."""
    k, d, n = draw(st.integers(2, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        hvs = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        vectors = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
    else:
        hvs = rng.standard_normal((n, d))
        vectors = rng.standard_normal((k, d))
    start = draw(st.sampled_from(["zero", "one_zero_class", "random"]))
    if start == "zero":
        vectors[:] = 0.0
    elif start == "one_zero_class":
        vectors[draw(st.integers(0, k - 1))] = 0.0
    alpha = draw(st.sampled_from([1.0, 0.5, 0.3, 2.5, 1e-3]))
    labels = rng.integers(0, k, size=n)
    model = ClassPrototypes(vectors)
    return model, hvs, labels, alpha, rng.permutation(n)


class TestRetrainEquivalence:
    """retrain_epoch keeps the reference loop's float operations, so models
    match it bit for bit, whatever the order argument."""

    @staticmethod
    def assert_same(got, want):
        (model, mistakes), (ref_model, ref_mistakes) = got, want
        assert mistakes == ref_mistakes
        assert np.array_equal(model.vectors.view(np.uint64), ref_model.vectors.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(retrain_cases())
    def test_matches_reference_bitwise(self, case):
        model, hvs, labels, alpha, order = case
        inputs = [model.vectors, hvs, labels, order]
        before = [a.copy() for a in inputs]
        stored = reference_retrain_epoch(model, hvs, labels, alpha)
        self.assert_same(retrain_epoch(model, hvs, labels, alpha), stored)
        self.assert_same(retrain_epoch(model, hvs, labels, alpha, None), stored)
        walked = reference_retrain_epoch(model, hvs[order], labels[order], alpha)
        self.assert_same(retrain_epoch(model, hvs, labels, alpha, order), walked)
        self.assert_same(retrain_epoch(model, hvs[order], labels[order], alpha), walked)
        for a, b in zip(inputs, before):
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1e-300, 1.0, 1e150]))
    def test_dot_norm_is_numpy_norm_bitwise(self, d, seed, scale):
        v = np.random.default_rng(seed).standard_normal(d) * scale
        assert np.float64(math.sqrt(v @ v)).view(np.uint64) == np.linalg.norm(v).view(np.uint64)

    def test_epoch_from_a_zero_model_on_real_encodings(self):
        phi = make_projection(16, 2000, seed=3)
        rng = np.random.default_rng(5)
        hvs = encode_batch(phi, rng.standard_normal((150, 16)))
        labels = rng.integers(0, 10, size=150)
        model = ClassPrototypes.zeros(10, 2000)
        order = rng.permutation(150)
        got = retrain_epoch(model, hvs, labels, 1.0, order)
        self.assert_same(got, reference_retrain_epoch(model, hvs[order], labels[order], 1.0))
        assert got[1] > 0

    def test_class_zeroed_by_a_mistake_scores_zero_against_a_non_finite_sample(self):
        # The first sample empties class 0; against the second, its 0 * inf
        # would score NaN, which argmax picks, if class 0 were not masked.
        protos = ClassPrototypes(np.eye(2))
        hvs, labels = np.array([[1.0, 0.0], [np.inf, 0.0]]), np.array([1, 1])
        with np.errstate(invalid="ignore"):
            got = retrain_epoch(protos, hvs, labels, 1.0)
            want = reference_retrain_epoch(protos, hvs, labels, 1.0)
        assert got[1] == 1
        self.assert_same(got, want)

    @pytest.mark.parametrize(
        "order", [[0, 1], [0, 1, 1], [0, 2, 1, 3], [-1, 0, 1], [[0, 1, 2]]], ids=str
    )
    def test_order_must_be_a_permutation(self, order):
        protos = ClassPrototypes(np.eye(2))
        with pytest.raises(ValueError, match="permutation"):
            retrain_epoch(protos, np.ones((3, 2)), np.array([0, 1, 0]), 1.0, np.array(order))

    def test_labels_must_align_with_samples(self):
        protos = ClassPrototypes(np.eye(2))
        with pytest.raises(DimensionError):
            retrain_epoch(protos, np.ones((3, 2)), np.array([0, 1]), 1.0)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_labels_must_name_a_class(self, bad):
        # -1 would index the last class from the end and count a mistake
        # that changes nothing.
        protos = ClassPrototypes(np.eye(3))
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            retrain_epoch(protos, np.eye(3)[:2], np.array([0, bad]), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_gemv_into_a_buffer_is_the_matmul_gemv(self, k, d, seed):
        rng = np.random.default_rng(seed)
        vectors, h = rng.standard_normal((k, d)), rng.standard_normal(d)
        buf = np.empty(k)
        np.dot(vectors, h, out=buf)
        assert np.array_equal(buf.view(np.uint64), (vectors @ h).view(np.uint64))


@st.composite
def shared_row_cases(draw):
    """A model and a client's rows drawn from a larger shared matrix: K in
    2..12, d often not a multiple of 8, so row starts fall at every 8-byte
    offset from a 64-byte line; rows in any order, some left out."""
    k, d, n = draw(st.integers(2, 12)), draw(st.integers(1, 300)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((n + draw(st.integers(0, 20)), d))
    index = rng.choice(matrix.shape[0], size=n, replace=False)
    vectors = rng.standard_normal((k, d))
    if draw(st.booleans()):
        vectors[:] = 0.0
    model = ClassPrototypes(vectors)
    labels = rng.integers(0, k, size=n)
    order = rng.permutation(n) if draw(st.booleans()) else None
    alpha = draw(st.sampled_from([1.0, 0.3, 2.5]))
    return model, matrix, index, labels, alpha, order


class TestSampleRows:
    """Retraining over row views of a shared matrix reads the same bytes as
    over the gathered rows, so the result is the same bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(shared_row_cases())
    def test_row_views_retrain_like_the_gathered_block(self, case):
        model, matrix, index, labels, alpha, order = case
        rows = SampleRows(matrix, index)
        assert len(rows) == len(index)
        got = retrain_epoch(model, rows, labels, alpha, order)
        want = retrain_epoch(model, matrix[index], labels, alpha, order)
        TestRetrainEquivalence.assert_same(got, want)

    def test_items_are_views_of_the_matrix(self):
        matrix = np.arange(15.0).reshape(5, 3)
        rows = SampleRows(matrix, np.array([3, 0]))
        assert np.array_equal(np.asarray(rows), matrix[[3, 0]])
        assert all(np.shares_memory(rows[j], matrix) for j in range(2))

    @pytest.mark.parametrize(
        "matrix",
        [
            np.ones((4, 3)),  # wrong length: the model has d = 2
            np.ones((4, 2), dtype=np.float32),
            np.ones((4, 4))[:, ::2],  # rows not contiguous
            np.asfortranarray(np.ones((4, 2))),
            np.ones(4),
        ],
        ids=["length", "float32", "strided", "fortran", "1-D"],
    )
    def test_malformed_rows_rejected(self, matrix):
        protos = ClassPrototypes(np.eye(2))
        with pytest.raises(DimensionError):
            retrain_epoch(protos, SampleRows(matrix, np.array([0, 2])), np.array([0, 1]), 1.0)

    @pytest.mark.parametrize("index", [[0, 4], [-1, 0], [[0, 1]], [0.0, 1.0]], ids=str)
    def test_index_must_name_rows_of_the_matrix(self, index):
        with pytest.raises(ValueError, match="row index"):
            SampleRows(np.ones((4, 2)), np.array(index))


def reference_similarity_matrix(vectors, norms, hs):
    """Sample-major (n, K) scores, as first written."""
    sims = hs @ vectors.T
    safe = np.where(norms == 0.0, 1.0, norms)
    sims /= safe
    sims[:, norms == 0.0] = 0.0
    return sims


def reference_predict_batch(prototypes, hs):
    norms = np.linalg.norm(prototypes.vectors, axis=1)
    return np.argmax(reference_similarity_matrix(prototypes.vectors, norms, hs), axis=1)


def reference_multiclass_margin_loss(prototypes, hs, labels):
    norms = np.linalg.norm(prototypes.vectors, axis=1)
    sims = reference_similarity_matrix(prototypes.vectors, norms, hs)
    n = sims.shape[0]
    true = sims[np.arange(n), labels]
    masked = sims.copy()
    masked[np.arange(n), labels] = -np.inf
    rival = masked.max(axis=1)
    return float(np.mean(np.maximum(0.0, rival - true)))


@st.composite
def scoring_cases(draw):
    """Small eval problems: n from 1, K in 2..12, small d; integral data
    (exact ties) or gaussian; all-zero, one-zero or no zero classes; query
    rows as stored, strided or in Fortran order."""
    k, d, n = draw(st.integers(2, 12)), draw(st.integers(1, 40)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        hs = rng.integers(-2, 3, size=(2 * n, d + 3)).astype(np.float64)
        vectors = rng.integers(-2, 3, size=(k, d)).astype(np.float64)
    else:
        hs = rng.standard_normal((2 * n, d + 3))
        vectors = rng.standard_normal((k, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    zeros = draw(st.sampled_from(["none", "all", "one"]))
    if zeros == "all":
        vectors[:] = 0.0
    elif zeros == "one":
        vectors[draw(st.integers(0, k - 1))] = 0.0
    layout = draw(st.sampled_from(["contiguous", "rows", "columns", "fortran"]))
    if layout == "contiguous":
        hs = np.ascontiguousarray(hs[:n, :d])
    elif layout == "rows":
        hs = hs[::2, :d]
    elif layout == "columns":
        hs = hs[:n, 1 : d + 1]
    else:
        hs = np.asfortranarray(hs[:n, :d])
    labels = rng.integers(0, k, size=n)
    return ClassPrototypes(vectors), hs, labels


class TestClassMajorScoring:
    """The class-major scores are the sample-major ones transposed, float
    for float, so predictions and the loss match the reference exactly.

    That equality is a property of the BLAS kernels, not of the formula. On
    OpenBLAS 0.3.31 (Haswell kernels) it held in every shape tried with
    K <= 11, and for every K at n < 193 or n a multiple of 8. At K >= 12,
    n >= 193 and n not a multiple of 8, one orientation sums in another
    order and the scores can differ in the last bit; the last test pins
    what still holds there."""

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_sample_major_reference_bitwise(self, case):
        model, hs, labels = case
        inputs = [model.vectors, hs, labels]
        before = [a.tobytes() for a in inputs]
        # The reference sees C-ordered rows: fed a Fortran-ordered matrix,
        # its gemm could differ in the last bit from the same rows stored
        # by row, and the scores are defined by the values alone.
        rows = np.ascontiguousarray(hs)
        norms = _prototype_norms(model.vectors)
        sims = _similarity_matrix(model.vectors, norms, hs)
        want = reference_similarity_matrix(model.vectors, norms, rows)
        assert sims.shape == (model.num_classes, len(hs))
        assert np.array_equal(sims.view(np.uint64), want.T.view(np.uint64))
        assert np.array_equal(predict_batch(model, hs), reference_predict_batch(model, rows))
        loss = multiclass_margin_loss(model, hs, labels)
        ref = reference_multiclass_margin_loss(model, rows, labels)
        assert np.float64(loss).view(np.uint64) == np.float64(ref).view(np.uint64)
        assert [a.tobytes() for a in inputs] == before

    @staticmethod
    def gaussian_case(k, n, d):
        rng = np.random.default_rng(k * n + d)
        vectors = rng.standard_normal((k, d)) * 30.0
        model = ClassPrototypes(vectors)
        return model, rng.standard_normal((n, d)), rng.integers(0, k, size=n)

    # The bench's train and test shapes, and a K <= 11 shape off the
    # multiples of 8.
    @pytest.mark.parametrize("k, n, d", [(10, 3000, 2000), (10, 1000, 2000), (11, 257, 4099)])
    def test_matches_at_gemm_blocking_scale(self, k, n, d):
        model, hs, labels = self.gaussian_case(k, n, d)
        norms = _prototype_norms(model.vectors)
        want = reference_similarity_matrix(model.vectors, norms, hs)
        got = _similarity_matrix(model.vectors, norms, hs)
        assert np.array_equal(got.view(np.uint64), want.T.view(np.uint64))
        assert np.array_equal(predict_batch(model, hs), reference_predict_batch(model, hs))
        loss = multiclass_margin_loss(model, hs, labels)
        assert loss == reference_multiclass_margin_loss(model, hs, labels)

    @pytest.mark.parametrize("k, n, d", [(12, 197, 50), (26, 1001, 300)])
    def test_many_classes_agree_to_rounding(self, k, n, d):
        model, hs, labels = self.gaussian_case(k, n, d)
        norms = _prototype_norms(model.vectors)
        want = reference_similarity_matrix(model.vectors, norms, hs)
        got = _similarity_matrix(model.vectors, norms, hs)
        assert np.allclose(got, want.T, rtol=1e-12, atol=1e-12)
        assert np.array_equal(predict_batch(model, hs), reference_predict_batch(model, hs))
        loss = multiclass_margin_loss(model, hs, labels)
        ref = reference_multiclass_margin_loss(model, hs, labels)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_loss_hand_computed(self):
        protos = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
        hs = np.array([[3.0, 1.0], [1.0, 3.0], [1.0, 1.0]])
        # scores per sample (zero class scores 0): [3, 1, 0], [1, 3, 0], [1, 1, 0]
        loss = multiclass_margin_loss(protos, hs, np.array([0, 0, 2]))
        assert loss == pytest.approx((0 + 2 + 1) / 3)


@st.composite
def projected_cases(draw):
    """Linear encodings h = P x to score both ways: a random P (unit rows as
    the encoder draws them, or a plain gaussian), K in 2..12, n in 1..300;
    gaussian or integral features; all-zero, one-zero or no zero classes;
    and a class that duplicates another."""
    k, m, n = draw(st.integers(2, 12)), draw(st.integers(1, 24)), draw(st.integers(1, 300))
    d = draw(st.integers(m, 160))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        phi = make_projection(m, d, seed)
    else:
        phi = ProjectionMatrix(rng.standard_normal((d, m)))
    if draw(st.booleans()):
        xs = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
    else:
        xs = rng.standard_normal((n, m)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    vectors = rng.standard_normal((k, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    zeros = draw(st.sampled_from(["none", "all", "one"]))
    if zeros == "all":
        vectors[:] = 0.0
    elif zeros == "one":
        vectors[draw(st.integers(0, k - 1))] = 0.0
    if draw(st.booleans()):
        pair = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
        first, second = sorted(draw(pair))
        vectors[second] = vectors[first]
    model = ClassPrototypes(vectors)
    return model, phi, xs, rng.integers(0, k, size=n)


class TestProjectedScoring:
    """Scoring ``ProjectedQueries`` as (V P) x against scoring the encoded
    rows V (P x). Both compute the trilinear form sum v_i P_ij x_j with two
    rounded dot products (lengths d and m) and one division, so each score
    is within (d + m + 2) u of it and the two within

        bound = 2 (d + m + 2) eps (|V| |P| |x|) / ||v||

    of each other, eps = 2u the float64 machine epsilon."""

    @staticmethod
    def bound(model, phi, xs):
        d, m = phi.rows.shape
        norms = _prototype_norms(model.vectors)
        scale = np.abs(model.vectors) @ np.abs(phi.rows) @ np.abs(xs).T
        scale /= np.where(norms == 0.0, 1.0, norms)[:, None]
        return 2 * (d + m + 2) * np.finfo(np.float64).eps * scale

    @settings(max_examples=300, deadline=None)
    @given(projected_cases())
    def test_projected_scores_match_encoded_rows(self, case):
        model, phi, xs, labels = case
        before = [model.vectors.tobytes(), xs.tobytes()]
        queries = ProjectedQueries(xs, phi)
        hs = encode_batch(phi, xs)
        norms = _prototype_norms(model.vectors)
        got = _similarity_matrix(model.vectors, norms, queries)
        want = _similarity_matrix(model.vectors, norms, hs)
        bound = self.bound(model, phi, xs)
        assert got.shape == want.shape == (model.num_classes, len(xs))
        assert np.all(np.abs(got - want) <= bound)
        # A zero-norm class scores exactly 0.
        assert np.all(got[norms == 0.0] == 0.0)
        # Ties go to the lowest index: a duplicated class scores the same
        # bytes as its original, and never wins.
        preds = predict_batch(model, queries)
        assert np.array_equal(preds, np.argmax(got == got.max(axis=0), axis=0))
        same = (model.vectors[:, None] == model.vectors[None]).all(axis=-1)
        for a, b in zip(*np.nonzero(np.triu(same, 1))):
            assert np.array_equal(got[a].view(np.uint64), got[b].view(np.uint64))
            assert not np.any(preds == b)
        # Predictions agree wherever the top two encoded-row scores are
        # further apart than the bound.
        top2 = np.sort(want, axis=0)[-2:]
        clear = top2[1] - top2[0] > 2 * bound.max(axis=0)
        assert np.array_equal(preds[clear], predict_batch(model, hs)[clear])
        loss = multiclass_margin_loss(model, queries, labels)
        ref = multiclass_margin_loss(model, hs, labels)
        assert abs(loss - ref) <= 2 * bound.max(axis=0).mean() * (1 + 1e-12)
        assert [model.vectors.tobytes(), xs.tobytes()] == before

    def test_accuracy_and_prediction_take_projected_queries(self):
        phi = make_projection(3, 50, seed=4)
        xs = np.random.default_rng(1).standard_normal((40, 3))
        hs = encode_batch(phi, xs)
        labels = (xs[:, 0] > 0).astype(int)
        model = one_shot_train(hs, labels, 2)
        queries = ProjectedQueries(xs, phi)
        assert queries.shape == hs.shape and len(queries) == 40
        assert np.array_equal(predict_batch(model, queries), predict_batch(model, hs))
        assert accuracy(model, queries, labels) == accuracy(model, hs, labels)

    def test_dimension_mismatches_rejected(self):
        phi = make_projection(3, 50, seed=4)
        with pytest.raises(DimensionError):
            ProjectedQueries(np.ones((5, 4)), phi)
        with pytest.raises(DimensionError):
            ProjectedQueries(np.ones(3), phi)
        model = ClassPrototypes(np.ones((2, 60)))
        with pytest.raises(DimensionError):
            predict_batch(model, ProjectedQueries(np.ones((5, 3)), phi))
        with pytest.raises(DimensionError):
            multiclass_margin_loss(model, ProjectedQueries(np.ones((5, 3)), phi), np.zeros(5, int))


@st.composite
def projected_retrain_cases(draw, exact):
    """A client's rows of a split of N >= 2 samples, to retrain on in
    feature space and on the encoded split's rows: K in 2..12; one row,
    some or all of the split, some of them duplicates; a zero, random,
    one-zero-class or duplicated-class start; 1 to 3 epochs in random
    orders. ``exact`` draws small integers for P, the features and the
    start and a power-of-two alpha, so every product and sum is exact
    and ties are exact too. Otherwise P is the encoder's at d = 2000 and
    the data gaussian, a duplicated sample keeping its label. Exact ties
    are left out there, as rounding breaks them, differently in the two
    spaces: no duplicated class (the d-space gemv sums a row past the
    last multiple of 4 in another order, so at K = 5 a copy of class 0
    in class 4 scores apart from it), and m >= 2 (at m = 1 every encoding
    is collinear, so every class scores +/- ||h||)."""
    k, m = draw(st.integers(2, 12)), draw(st.integers(1, 12) if exact else st.integers(2, 40))
    split = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if exact:
        d = draw(st.integers(m, 120))
        phi = ProjectionMatrix(rng.integers(-3, 4, size=(d, m)).astype(np.float64))
        xs = rng.integers(-3, 4, size=(split, m)).astype(np.float64)
        vectors = rng.integers(-20, 21, size=(k, d)).astype(np.float64)
        alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    else:
        phi = make_projection(m, 2000, draw(st.integers(0, 2**16)))
        xs = rng.standard_normal((split, m))
        vectors = rng.standard_normal((k, 2000)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
        alpha = draw(st.sampled_from([1.0, 0.3, 2.5]))
    labels = rng.integers(0, k, size=split)
    copies = rng.integers(0, split, size=draw(st.integers(0, split // 2)))
    xs[: copies.size], labels[: copies.size] = xs[copies], labels[copies]
    starts = ["zero", "random", "one_zero_class"] + (["duplicate_class"] if exact else [])
    start = draw(st.sampled_from(starts))
    if start == "zero":
        vectors[:] = 0.0
    elif start == "one_zero_class":
        vectors[draw(st.integers(0, k - 1))] = 0.0
    elif start == "duplicate_class":
        vectors[draw(st.integers(1, k - 1))] = vectors[0]
    n = draw(st.sampled_from([1, split, int(rng.integers(1, split + 1))]))
    index = rng.choice(split, size=n, replace=False)
    orders = [rng.permutation(n) for _ in range(draw(st.integers(1, 3)))]
    model = ClassPrototypes(vectors)
    return model, phi, xs, labels, index, alpha, orders


class TestProjectedRetrain:
    """A client's pass over its ``ProjectedQueries`` decides in feature
    space (``lockstep_epoch``) and replays its mistakes on the encoded rows
    (``replay_mistakes``): the model and the mistake count are those of
    ``retrain_epoch`` over the split's encoded rows, bit for bit."""

    @staticmethod
    def check(case):
        model, phi, xs, labels, index, alpha, orders = case
        before = [model.vectors.tobytes(), xs.tobytes()]
        client = ProjectedQueries(xs[index], phi)
        rows = SampleRows(encode_batch(phi, xs), index)
        got = want = model
        for order in orders:
            got, mistakes = projected_retrain_epoch(got, client, labels[index], alpha, order)
            want, ref_mistakes = retrain_epoch(want, rows, labels[index], alpha, order)
            assert mistakes == ref_mistakes
            assert np.array_equal(got.vectors.view(np.uint64), want.vectors.view(np.uint64))
        assert [model.vectors.tobytes(), xs.tobytes()] == before

    @settings(max_examples=300, deadline=None)
    @given(projected_retrain_cases(exact=True))
    def test_exact_arithmetic_pass_equals_the_encoded_pass(self, case):
        self.check(case)

    @settings(max_examples=100, deadline=None)
    @given(projected_retrain_cases(exact=False))
    def test_encoder_pass_equals_the_encoded_pass(self, case):
        # Rounding differs between the two spaces, so the decisions agree
        # unless a top-two gap is within it, which gaussian data does not
        # produce; the replayed rows have the split's bytes by
        # test_encoding_a_row_does_not_depend_on_the_other_rows.
        self.check(case)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2000, 10000]),
        st.integers(2, 300),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_encoding_a_row_does_not_depend_on_the_other_rows(self, d, n, seed, repeats):
        # The replay encodes only a pass's mistake rows. At m = 32 with the
        # benchmark's d = 2000 and the default d = 10000, a gemm of any >= 2
        # rows gives each row the bytes it gets among all n.
        phi = make_projection(32, d, seed=seed % 97)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, 32))
        full = encode_batch(phi, xs)
        for size in {2, int(rng.integers(2, n + 1)), n}:
            index = rng.choice(n, size=size, replace=repeats)
            got = encode_batch(phi, xs[index])
            assert np.array_equal(got.view(np.uint64), full[index].view(np.uint64))

    def test_class_emptied_by_a_conflicting_copy_scores_zero(self):
        # The copy of x with another label undoes the first correction, so
        # classes 0 and 1 are exactly 0 again. Their squared norms, kept by
        # recurrence, round to about 0, below it for this x; held at 0, the
        # classes score 0 against the third sample, as in d-space.
        phi = make_projection(4, 64, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        xs, labels = np.stack([x, x, rng.standard_normal(4)]), np.array([1, 0, 2])
        model = ClassPrototypes.zeros(3, 64)
        got = projected_retrain_epoch(model, ProjectedQueries(xs, phi), labels, 0.3)
        want = retrain_epoch(model, encode_batch(phi, xs), labels, 0.3)
        TestRetrainEquivalence.assert_same(got, want)
        assert got[1] == 3

    def test_projected_weights_are_the_scoring_product(self):
        phi = make_projection(6, 64, seed=2)
        vectors = np.random.default_rng(3).standard_normal((4, 64))
        want = np.einsum("kd,dm->km", vectors, phi.rows, optimize=False)
        assert np.array_equal(project_prototypes(vectors, phi), want)
        assert np.array_equal(phi.gram, np.einsum("dm,dn->mn", phi.rows, phi.rows, optimize=False))
        assert phi.gram is phi.gram  # built once per projection

    def test_shared_weights_score_like_their_own(self):
        phi = make_projection(6, 64, seed=2)
        rng = np.random.default_rng(4)
        model = ClassPrototypes(rng.standard_normal((4, 64)))
        queries = ProjectedQueries(rng.standard_normal((30, 6)), phi)
        labels = rng.integers(0, 4, 30)
        projected = project_prototypes(model.vectors, phi)
        assert accuracy(model, queries, labels, projected) == accuracy(model, queries, labels)
        loss = multiclass_margin_loss(model, queries, labels, projected)
        assert loss == multiclass_margin_loss(model, queries, labels)
        shared = feature_state(model.vectors, phi, projected)
        assert shared[0] is projected
        own = feature_state(model.vectors, phi)
        for a, b in zip(shared, own):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        with pytest.raises(DimensionError):
            accuracy(model, queries, labels, projected[:, :5])
        with pytest.raises(DimensionError):
            feature_state(model.vectors, phi, projected[:3])

    @pytest.mark.parametrize(
        "k, m", [(2, 3), (10, 32), (12, 40), (5, 784), (10, 784), (3, 1), (7, 17)], ids=str
    )
    def test_stacked_scores_are_the_per_client_gemv(self, k, m):
        # lockstep_epoch scores the clients still running by one stacked
        # matmul into a prefix of its buffer; each client's scores must be
        # the bytes of its own np.dot(A, x), which a lone pass computes.
        rng = np.random.default_rng(k * m)
        for count in (1, 2, 20, 33):
            weights, xs = rng.standard_normal((count, k, m)), rng.standard_normal((count, m))
            want = np.stack([np.dot(w, x) for w, x in zip(weights, xs)])
            for active in {count, max(1, count - 1)}:
                raw = np.empty((count, k))
                np.matmul(weights[:active], xs[:active, :, None], out=raw[:active, :, None])
                assert np.array_equal(raw[:active].view(np.uint64), want[:active].view(np.uint64))

    def test_lockstep_rejects_inputs_that_do_not_fit(self):
        phi = make_projection(3, 20, seed=0)
        features = np.random.default_rng(0).standard_normal((5, 3))
        state = [a[np.newaxis] for a in feature_state(np.ones((2, 20)), phi)]
        visits, labels = [np.array([0, 4])], [np.array([1, 0])]
        # The two equal classes tie, so row 0, labelled 1, goes to class 0.
        assert lockstep_epoch(features, phi, visits, labels, *state, 1.0)[0][0] == (0, 1, 0)
        with pytest.raises(ValueError, match="rows"):
            lockstep_epoch(features, phi, [np.array([0, 5])], labels, *state, 1.0)
        with pytest.raises(ValueError, match="labels"):
            lockstep_epoch(features, phi, visits, [np.array([1, 2])], *state, 1.0)
        with pytest.raises(DimensionError):
            lockstep_epoch(features, phi, visits, [np.array([1])], *state, 1.0)
        with pytest.raises(DimensionError):
            lockstep_epoch(features, phi, visits * 2, labels * 2, *state, 1.0)
        with pytest.raises(DimensionError):
            lockstep_epoch(features.astype(np.float32), phi, visits, labels, *state, 1.0)

    def test_dimension_mismatch_rejected(self):
        # A d = 60 model has no feature-space weights under a d = 50 projection.
        phi = make_projection(3, 50, seed=4)
        model = ClassPrototypes(np.ones((2, 60)))
        queries = ProjectedQueries(np.ones((5, 3)), phi)
        with pytest.raises(DimensionError):
            projected_retrain_epoch(model, queries, np.zeros(5, int), 1.0)


class TestBinaryRetrain:
    def test_zero_dot_product_triggers_update(self):
        w = binary_retrain(np.zeros(2), np.array([[1.0, 2.0]]), np.array([1.0]), eta=1.0)
        assert np.array_equal(w, [1.0, 2.0])

    def test_separating_weights_with_margin_unchanged(self):
        w0 = np.array([1.0, 0.0])
        hvs = np.array([[2.0, 0.5], [-3.0, 1.0], [1.0, -1.0]])
        ys = np.array([1.0, -1.0, 1.0])
        assert all(y * np.dot(w0, h) > 0 for h, y in zip(hvs, ys))
        w = binary_retrain(w0, hvs, ys, eta=1.0, passes=3)
        assert np.array_equal(w, w0)

    def test_hand_traced_two_samples(self):
        hvs = np.array([[1.0, 0.0], [1.0, 0.0]])
        ys = np.array([1.0, -1.0])
        w = binary_retrain(np.zeros(2), hvs, ys, eta=1.0, passes=1)
        # first sample: 0 <= 0 -> w = [1, 0]; second: -1 * 1 <= 0 -> w = [0, 0]
        assert np.array_equal(w, [0.0, 0.0])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            binary_retrain(np.zeros(2), np.ones((1, 2)), np.array([0.5]), eta=1.0)

    def test_converges_on_separable_data(self):
        # Perceptron convergence: positive-margin data reaches zero mistakes
        # within a generous pass budget.
        rng = np.random.default_rng(42)
        w_star = rng.standard_normal(32)
        hvs = rng.standard_normal((60, 32))
        margins = hvs @ w_star
        keep = np.abs(margins) > 0.5
        hvs, margins = hvs[keep], margins[keep]
        ys = np.sign(margins)
        w = np.zeros(32)
        for _ in range(200):
            w = binary_retrain(w, hvs, ys, eta=1.0, passes=1)
            if np.all(ys * (hvs @ w) > 0):
                break
        assert np.all(ys * (hvs @ w) > 0)


class TestPerceptronLoss:
    def test_correct_sign_is_zero(self):
        assert perceptron_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0) == 0.0

    def test_violation_magnitude(self):
        assert perceptron_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]), -1.0) == 1.0

    def test_zero_weights_zero_loss(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = rng.standard_normal(8)
            assert perceptron_loss(np.zeros(8), h, 1.0) == 0.0
            assert perceptron_loss(np.zeros(8), h, -1.0) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.standard_normal(6)
            h = rng.standard_normal(6)
            y = rng.choice([-1.0, 1.0])
            assert perceptron_loss(w, h, y) >= 0.0


class TestFisherDirection:
    def test_half_identity_covariances(self):
        v = np.array([1.0, -2.0, 3.0])
        cov = 0.5 * np.eye(3)
        out = fisher_direction(v, np.zeros(3), cov, cov)
        assert np.allclose(out, v)

    def test_equal_means_give_zero(self):
        mu = np.array([1.0, 2.0])
        out = fisher_direction(mu, mu, np.eye(2), np.eye(2))
        assert np.allclose(out, 0.0)

    def test_diagonal_hand_solve(self):
        cov_sum_half = np.diag([1.0, 2.0])
        out = fisher_direction(
            np.array([2.0, 4.0]), np.zeros(2), cov_sum_half, cov_sum_half
        )
        assert np.allclose(out, [1.0, 1.0])

    def test_singular_scatter_uses_ridge(self):
        singular = np.zeros((2, 2))
        out = fisher_direction(np.array([1.0, 0.0]), np.zeros(2), singular, singular)
        assert np.all(np.isfinite(out))
        # ridge 2e-8 total, so the direction is huge but finite
        assert out[0] > 1e6


class TestReconstruct:
    def test_orthonormal_square_projection_exact(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        phi = ProjectionMatrix(q)
        x = rng.standard_normal(6)
        h = encode_one(phi, x)
        assert np.allclose(reconstruct(phi, h), x, atol=1e-9)

    def test_zero_encoding_gives_zero(self):
        phi = make_projection(4, 100, seed=0)
        assert np.array_equal(reconstruct(phi, np.zeros(100)), np.zeros(4))

    def test_noise_averaging(self):
        # Per-dimension unit noise at d = 4096 averages out: relative
        # reconstruction error stays below 0.1.
        phi = make_projection(4, 4096, seed=1)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        h = encode_one(phi, x)
        rng = np.random.default_rng(123)
        for _ in range(5):
            noisy = h + rng.standard_normal(4096)
            rel = np.linalg.norm(reconstruct(phi, noisy) - x) / np.linalg.norm(x)
            assert rel <= 0.1

    def test_dimension_mismatch(self):
        phi = make_projection(4, 100, seed=0)
        with pytest.raises(DimensionError):
            reconstruct(phi, np.zeros(99))


class TestDeterminism:
    def test_pipeline_bit_identical_across_runs(self):
        def run():
            phi = make_projection(8, 256, seed=11)
            rng = np.random.default_rng(4)
            xs = rng.standard_normal((30, 8))
            labels = rng.integers(0, 3, size=30)
            hvs = encode_batch(phi, xs)
            protos = one_shot_train(hvs, labels, num_classes=3)
            protos, _ = retrain_epoch(protos, hvs, labels, alpha=1.0)
            return protos.vectors, predict_batch(protos, hvs)

        v1, p1 = run()
        v2, p2 = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(p1, p2)


class TestNearOrthogonality:
    def test_independent_inputs_encode_nearly_orthogonal(self):
        # 1000 pairs of independent inputs at d >= 1000: at least 99% of
        # encoding pairs have |cosine| <= 0.15.
        phi = make_projection(256, 1000, seed=2)
        rng = np.random.default_rng(7)
        a = encode_batch(phi, rng.standard_normal((1000, 256)), quantize=True)
        b = encode_batch(phi, rng.standard_normal((1000, 256)), quantize=True)
        cos = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        assert np.mean(np.abs(cos) <= 0.15) >= 0.99


class TestBinaryPrototypeCoupling:
    def test_difference_tracks_binary_trainer(self):
        # Two-class retraining with rate alpha moves c_0 - c_1 exactly like
        # the binary trainer with rate 2 * alpha, as long as the state stays
        # antisymmetric and off the zero-dot boundary. Half-integer starts
        # with +/-1 samples and odd dimension keep every quantity exact and
        # every decision dot product an odd integer (never zero).
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = 2 * int(rng.integers(2, 20)) + 1
            n = int(rng.integers(1, 30))
            v = rng.choice([-1.0, 1.0], size=d)
            protos = ClassPrototypes(np.stack([0.5 * v, -0.5 * v]))
            hvs = rng.choice([-1.0, 1.0], size=(n, d))
            labels = rng.integers(0, 2, size=n)
            ys = np.where(labels == 0, 1.0, -1.0)
            w = protos.vectors[0] - protos.vectors[1]
            for _ in range(3):
                protos, _ = retrain_epoch(protos, hvs, labels, alpha=1.0)
                w = binary_retrain(w, hvs, ys, eta=2.0, passes=1)
                assert np.array_equal(protos.vectors[0] - protos.vectors[1], w)


class TestSgdEquivalence:
    def test_updates_match_explicit_sgd(self):
        # The binary trainer is step-for-step SGD on the perceptron loss.
        rng = np.random.default_rng(3)
        hvs = rng.standard_normal((40, 16))
        ys = rng.choice([-1.0, 1.0], size=40)
        w_sgd = np.zeros(16)
        eta = 0.7
        for h, y in zip(hvs, ys):
            if y * np.dot(w_sgd, h) <= 0.0:
                grad = -(y * h)
                w_sgd = w_sgd - eta * grad
        w_trainer = binary_retrain(np.zeros(16), hvs, ys, eta=eta, passes=1)
        assert np.array_equal(w_sgd, w_trainer)
