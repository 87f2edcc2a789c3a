import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdfed.channel import (
    ChannelConfig,
    CodecConfig,
    corrupt_frame,
    corrupt_signs,
    corrupt_values,
    write_model_bytes,
)
from hdfed.hdc import ClassPrototypes, DimensionError
from hdfed.strategies import (
    SparseClassModel,
    SparseFormatError,
    StrategyConfig,
    StrategyConfigError,
    SubsamplePayload,
    csc_decompress,
    deserialize_sign_matrix,
    deserialize_sparse,
    deserialize_subsample,
    diff_apply,
    diff_binarize,
    diff_fold,
    serialize_sign_matrix,
    serialize_sparse,
    serialize_subsample,
    sparsify,
    subsample,
    subsample_aggregate,
    subsample_fold,
    wire_bytes,
)
from reference import by_class


def model_of(values, counts=None):
    values = np.asarray(values, dtype=np.float64)
    if counts is None:
        counts = np.zeros(values.shape[0], dtype=np.int64)
    return ClassPrototypes(values, counts)


class TestStrategyConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(StrategyConfigError):
            StrategyConfig(kind="prune")

    def test_subsample_requires_rate(self):
        with pytest.raises(StrategyConfigError):
            StrategyConfig(kind="subsample")

    def test_rate_only_for_subsample(self):
        with pytest.raises(StrategyConfigError):
            StrategyConfig(kind="none", rate=0.5)

    def test_sparsity_bounds(self):
        with pytest.raises(StrategyConfigError):
            StrategyConfig(kind="sparsify", sparsity=1.0)


class TestDiffBinarize:
    def test_equal_models_give_all_plus_one(self):
        m = model_of(np.random.default_rng(0).standard_normal((2, 5)))
        assert np.array_equal(diff_binarize(m, m), np.ones((2, 5)))

    def test_signs_with_zero_convention(self):
        new = model_of([[0.5, -2.0, 0.0], [0.0, 0.0, 0.0]])
        old = model_of(np.zeros((2, 3)))
        signs = diff_binarize(new, old)
        assert np.array_equal(signs[0], [1.0, -1.0, 1.0])
        assert np.array_equal(signs[1], [1.0, 1.0, 1.0])

    def test_one_bit_per_parameter_on_wire(self):
        signs = np.ones((26, 10000))
        blob = serialize_sign_matrix(signs)
        header = 14
        assert len(blob) - header == -(-26 * 10000 // 8)  # ceil(K*d/8)

    def test_sign_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        signs = rng.choice([-1.0, 1.0], size=(3, 17))
        back = deserialize_sign_matrix(serialize_sign_matrix(signs), signs.shape)
        assert np.array_equal(back, signs)


def diff_sum(signs, shape):
    """A round's summed sign matrices, folded one client at a time."""
    total = np.zeros(shape)
    for s in signs:
        diff_fold(total, s)
    return total


class TestDiffApply:
    def test_single_client_all_plus_one(self):
        g = model_of(np.zeros((2, 4)))
        out = diff_apply(g, diff_sum([np.ones((2, 4))], (2, 4)))
        assert np.array_equal(out.vectors, np.ones((2, 4)))

    def test_opposite_signs_cancel(self):
        g = model_of(np.full((2, 3), 5.0))
        out = diff_apply(g, diff_sum([np.ones((2, 3)), -np.ones((2, 3))], (2, 3)))
        assert np.array_equal(out.vectors, g.vectors)

    def test_agreeing_clients_move_by_count(self):
        g = model_of(np.zeros((2, 2)))
        out = diff_apply(g, diff_sum([np.ones((2, 2))] * 7, (2, 2)))
        assert np.array_equal(out.vectors, np.full((2, 2), 7.0))

    def test_empty_sum_returns_global(self):
        g = model_of(np.arange(6.0).reshape(2, 3))
        out = diff_apply(g, diff_sum([], (2, 3)))
        assert np.array_equal(out.vectors, g.vectors)

    def test_step_multiplier(self):
        g = model_of(np.zeros((2, 2)))
        out = diff_apply(g, diff_sum([np.ones((2, 2))], (2, 2)), step=0.25)
        assert np.array_equal(out.vectors, np.full((2, 2), 0.25))

    def test_shape_mismatch_rejected(self):
        total = np.zeros((2, 3))
        with pytest.raises(DimensionError):
            diff_fold(total, np.ones((2, 4)))
        with pytest.raises(DimensionError):
            diff_apply(model_of(np.zeros((2, 4))), total)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_clients=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_parameter_moves_bounded_by_client_count(self, seed, n_clients):
        rng = np.random.default_rng(seed)
        g = model_of(rng.standard_normal((2, 6)))
        signs = [rng.choice([-1.0, 1.0], size=(2, 6)) for _ in range(n_clients)]
        out = diff_apply(g, diff_sum(signs, (2, 6)))
        delta = out.vectors - g.vectors
        # (g + s) - g re-rounds, so compare up to float epsilon
        assert np.all(np.abs(delta) <= n_clients + 1e-9)
        assert np.allclose(delta, np.rint(delta), atol=1e-9)


def tally(samples, size):
    """A round's per-position report sums and counts, folded one client at a time."""
    sums, hits = np.zeros(size), np.zeros(size, dtype=np.int64)
    for indices, values in samples:
        subsample_fold(sums, hits, indices, values)
    return sums, hits


class TestSubsample:
    def test_rate_one_keeps_everything(self):
        m = model_of(np.arange(12.0).reshape(3, 4))
        indices, values = subsample(m, 1.0, np.random.default_rng(0))
        assert np.array_equal(indices, np.arange(12))
        assert np.array_equal(values, np.arange(12.0))

    def test_rate_zero_rejected(self):
        m = model_of(np.ones((2, 4)))
        with pytest.raises(StrategyConfigError):
            subsample(m, 0.0, np.random.default_rng(0))

    def test_count_rule(self):
        m = model_of(np.ones((2, 100)))
        indices, _ = subsample(m, 0.1, np.random.default_rng(0))
        assert indices.size == 20

    def test_reported_positions_mean_is_exact(self):
        # Per position, the mean of the values reported across many
        # independent subsamples equals the true value (values ship verbatim).
        rng = np.random.default_rng(1)
        m = model_of(rng.standard_normal((2, 50)))
        truth = m.vectors.reshape(-1)
        sums = np.zeros(100)
        hits = np.zeros(100)
        for _ in range(10_000):
            idx, val = subsample(m, 0.1, rng)
            sums[idx] += val
            hits[idx] += 1
        assert hits.min() > 0
        rel = np.abs(sums / hits - truth) / np.maximum(np.abs(truth), 1e-12)
        assert rel.max() <= 0.01

    def test_aggregate_all_report(self):
        prev = model_of(np.zeros((2, 3)))
        a = (np.arange(6), np.arange(6.0))
        b = (np.arange(6), np.arange(6.0) * 3)
        out = subsample_aggregate(*tally([a, b], 6), prev)
        assert np.array_equal(out.vectors.reshape(-1), np.arange(6.0) * 2)

    def test_aggregate_single_reporter(self):
        prev = model_of(np.zeros((2, 3)))
        out = subsample_aggregate(*tally([(np.array([4]), np.array([9.0]))], 6), prev)
        assert out.vectors.reshape(-1)[4] == 9.0

    def test_aggregate_unreported_keeps_previous(self):
        prev = model_of(np.full((2, 3), 7.0))
        out = subsample_aggregate(*tally([(np.array([0]), np.array([1.0]))], 6), prev)
        flat = out.vectors.reshape(-1)
        assert flat[0] == 1.0
        assert np.all(flat[1:] == 7.0)

    def test_repeated_positions_fold_like_one_report(self):
        # np.add.at counts a position once per occurrence in one report.
        sums, hits = tally([(np.array([1, 1, 2]), np.array([2.0, 4.0, 5.0]))], 4)
        assert np.array_equal(sums, [0.0, 6.0, 5.0, 0.0])
        assert np.array_equal(hits, [0, 2, 1, 0])

    def test_misaligned_report_rejected(self):
        with pytest.raises(DimensionError):
            tally([(np.array([0, 1]), np.array([1.0]))], 4)


class TestSparsify:
    def test_zero_sparsity_is_identity(self):
        m = model_of([[3.0, -1.0, 0.5, -4.0], [1.0, 2.0, 3.0, 4.0]])
        back = csc_decompress(sparsify(m, 0.0))
        assert np.array_equal(back.vectors, m.vectors)

    def test_hand_ranked_example(self):
        m = model_of([[3.0, -1.0, 0.5, -4.0], [1.0, 1.0, 1.0, 1.0]])
        back = csc_decompress(sparsify(m, 0.5))
        assert np.array_equal(back.vectors[0], [3.0, 0.0, 0.0, -4.0])
        # ties zero the lowest index first
        assert np.array_equal(back.vectors[1], [0.0, 0.0, 1.0, 1.0])

    def test_stored_count_rule(self):
        rng = np.random.default_rng(0)
        m = model_of(rng.standard_normal((3, 10000)))
        sparse = sparsify(m, 0.9)
        for idx in by_class(sparse)[0]:
            assert idx.size == 1000

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        m = model_of(rng.standard_normal((4, 64)))
        sparse = sparsify(m, 0.75)
        dense = csc_decompress(sparse)
        again = csc_decompress(sparsify(dense, 0.0))
        assert np.array_equal(again.vectors, dense.vectors)

    def test_all_zero_class_stores_nothing(self):
        m = model_of([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        sparse = sparsify(m, 0.0)
        assert by_class(sparse)[0][0].size == 0
        assert np.array_equal(csc_decompress(sparse).vectors[0], np.zeros(3))

    def test_dense_model_compression_overhead(self):
        # With no zeros to exploit, gap-encoded storage beats nothing.
        rng = np.random.default_rng(2)
        m = model_of(rng.standard_normal((2, 100)) + 10.0)
        sparse = sparsify(m, 0.0)
        codec = CodecConfig("float32")
        dense_bytes = 14 + 2 * 100 * 4
        frame = serialize_sparse(sparse, codec)
        assert wire_bytes(frame, StrategyConfig(kind="sparsify", sparsity=0.0), codec) >= dense_bytes

    def test_corrupt_index_ordering_rejected(self):
        layout = dict(values=np.array([1.0, 2.0, 5.0]), lengths=np.array([2, 1]), shape=(2, 4))
        SparseClassModel(np.array([1, 3, 0]), counts=np.zeros(2), **layout)  # across classes
        with pytest.raises(SparseFormatError, match="^class 0: "):
            SparseClassModel(np.array([3, 1, 0]), counts=np.zeros(2), **layout)

    @given(seed=st.integers(min_value=0, max_value=2**16), sparsity=st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_retained_values_dominate_zeroed(self, seed, sparsity):
        rng = np.random.default_rng(seed)
        m = model_of(rng.standard_normal((2, 40)))
        sparse = sparsify(m, sparsity)
        dense = csc_decompress(sparse).vectors
        for row_sparse, row_full in zip(dense, m.vectors):
            zeroed = np.abs(row_full[row_sparse == 0.0])
            kept = np.abs(row_full[row_sparse != 0.0])
            if zeroed.size and kept.size:
                assert kept.min() >= zeroed.max() - 1e-12

    def test_similarity_perturbation_bound(self):
        rng = np.random.default_rng(3)
        m = model_of(rng.standard_normal((2, 200)))
        h = rng.standard_normal(200)
        sparse_dense = csc_decompress(sparsify(m, 0.5)).vectors
        for row_full, row_sparse in zip(m.vectors, sparse_dense):
            zeroed_mass = np.abs(row_full[row_sparse == 0.0]).sum()
            bound = zeroed_mass * np.abs(h).max() / np.linalg.norm(row_full)
            score_full = row_full @ h / np.linalg.norm(row_full)
            diff = abs(score_full - row_sparse @ h / np.linalg.norm(row_sparse))
            # the sparsified prototype's own norm also changes; allow the
            # first-order bound plus the norm-shift contribution
            norm_shift = abs(
                np.dot(row_sparse, h) / np.linalg.norm(row_sparse)
                - np.dot(row_sparse, h) / np.linalg.norm(row_full)
            )
            assert diff <= bound + norm_shift + 1e-9


class TestWireBytes:
    def test_dense_float32_size(self):
        m = model_of(np.zeros((26, 10000)))
        codec = CodecConfig("float32")
        n = wire_bytes(write_model_bytes(m, codec), StrategyConfig(), codec)
        assert n == 14 + 26 * 10000 * 4

    def test_binary_diff_size(self):
        signs = np.ones((26, 10000))
        n = wire_bytes(serialize_sign_matrix(signs), StrategyConfig(kind="binary_diff"), CodecConfig())
        assert n == 14 + -(-26 * 10000 // 8)

    def test_subsample_value_bytes_exactly_ten_percent(self):
        rng = np.random.default_rng(0)
        m = model_of(rng.standard_normal((4, 1000)))
        idx, val = subsample(m, 0.1, rng)
        frame = serialize_subsample(SubsamplePayload(7, idx, val, (4, 1000)), CodecConfig())
        n = wire_bytes(frame, StrategyConfig(kind="subsample", rate=0.1), CodecConfig())
        overhead = 14 + 8 + 4  # header, stream key, count
        assert n - overhead == 400 * 4
        assert (n - overhead) * 10 == 4 * 1000 * 4

    def test_sparse_frame_round_trip(self):
        rng = np.random.default_rng(1)
        m = model_of(rng.standard_normal((3, 40)).astype(np.float32).astype(np.float64))
        sparse = sparsify(m, 0.6)
        codec = CodecConfig("float32")
        blob = serialize_sparse(sparse, codec)
        back = deserialize_sparse(blob, codec, sparse.shape)
        assert back.shape == sparse.shape
        assert np.array_equal(back.lengths, sparse.lengths)
        assert np.array_equal(back.indices, sparse.indices)
        assert np.array_equal(back.values, sparse.values)

    def test_sparse_frame_quantized_codec(self):
        # scaled-integer value blocks carry their gain and survive within one
        # quantization step per element
        rng = np.random.default_rng(2)
        m = model_of(rng.standard_normal((3, 40)))
        sparse = sparsify(m, 0.5)
        codec = CodecConfig("quantized_int", bitwidth=16)
        back = deserialize_sparse(serialize_sparse(sparse, codec), codec, sparse.shape)
        for a, b in zip(by_class(back)[1], by_class(sparse)[1]):
            step = np.abs(b).max() / (2**15 - 1)
            assert np.max(np.abs(a - b)) <= step + 1e-12

    def test_subsample_frame_quantized_codec_size(self):
        rng = np.random.default_rng(3)
        m = model_of(rng.standard_normal((2, 100)))
        idx, val = subsample(m, 0.5, rng)
        codec = CodecConfig("quantized_int", bitwidth=16)
        frame = serialize_subsample(SubsamplePayload(1, idx, val, (2, 100)), codec)
        n = wire_bytes(frame, StrategyConfig(kind="subsample", rate=0.5), codec)
        # header 14 + key 8 + count 4 + gain 8 + 100 values at 16 bits
        assert n == 14 + 8 + 4 + 8 + 100 * 2


class TestChannelComposition:
    def test_all_strategy_payloads_survive_all_channels(self):
        rng = np.random.default_rng(4)
        m = model_of(rng.standard_normal((3, 64)).astype(np.float32).astype(np.float64))
        channels = [
            ChannelConfig(),
            ChannelConfig(kind="awgn", snr_db=5.0),
            ChannelConfig(kind="bsc", bit_error_rate=0.01),
            ChannelConfig(kind="packet_loss", packet_bits=32, packet_loss_prob=0.2),
        ]
        codec = CodecConfig()
        for cfg in channels:
            signs = diff_binarize(m, model_of(np.zeros((3, 64))))
            idx, val = subsample(m, 0.5, rng)
            sparse = sparsify(m, 0.5)
            if cfg.kind in ("ideal", "awgn"):  # raw values
                assert corrupt_signs(signs, cfg, rng).shape == signs.shape
                assert corrupt_values(val, cfg, rng).shape == val.shape
                for v in by_class(sparse)[1]:
                    assert corrupt_values(v, cfg, rng).shape == v.shape
                continue
            frame = serialize_sign_matrix(signs)
            back = deserialize_sign_matrix(corrupt_frame(frame, cfg, rng), (3, 64))
            assert back.shape == signs.shape
            frame = serialize_subsample(SubsamplePayload(3, idx, val, (3, 64)), codec)
            back = deserialize_subsample(corrupt_frame(frame, cfg, rng), codec, 0, (3, 64))
            assert back.values.shape == val.shape
            frame = serialize_sparse(sparse, codec)
            back = deserialize_sparse(corrupt_frame(frame, cfg, rng), codec, sparse.shape)
            assert np.array_equal(back.lengths, sparse.lengths)
