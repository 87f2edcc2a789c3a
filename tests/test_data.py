import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdfed.data import (
    DataFormatError,
    Dataset,
    feature_stats,
    load_binary,
    load_delimited,
    normalize_features,
    save_binary,
    synth_train_test,
)
from hdfed.hdc import encode_batch, make_projection, predict_batch
from reference import fisher_direction, one_shot_train


class TestDataset:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        features = np.ones((3, 2))
        features[2, 1] = value
        with pytest.raises(DataFormatError, match=r"^feature \[2, 1\] = .* is not finite$"):
            Dataset(features, [0, 1, 0], 2)

    def test_first_non_finite_feature_is_named(self):
        with pytest.raises(DataFormatError, match=r"^feature \[0, 0\] = nan is not finite$"):
            Dataset(np.array([[np.nan, 1.0], [np.inf, 0.0]]), [0, 1], 2)

    def test_finite_features_accepted(self):
        big = np.finfo(np.float64).max
        ds = Dataset(np.array([[big, -big], [0.0, 1e-300]]), [0, 1], 2)
        assert ds.features.dtype == np.float64 and ds.n_samples == 2


class TestLoadDelimited:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n3,4,1\n")
        ds = load_delimited(str(p))
        assert ds.n_samples == 2
        assert ds.input_dim == 2
        assert ds.num_classes == 2
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.labels, [0, 1])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            load_delimited(str(p))

    def test_label_only_rows_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0\n1\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_delimited(str(p))

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,0\n3,1\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_delimited(str(p))

    def test_non_numeric_feature_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,0\nx,4,1\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_delimited(str(p))

    def test_negative_label_reports_line(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("1,2,-1\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_delimited(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"1,2,0\n3,4,1\n5,{value},1\n")
        with pytest.raises(DataFormatError, match=r"nonfinite\.csv:3: non-finite"):
            load_delimited(str(p))

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("f1,f2,label\n1,2,0\n")
        ds = load_delimited(str(p), has_header=True)
        assert ds.n_samples == 1


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((10, 4)).astype(np.float32).astype(np.float64)
        ds = Dataset(features, rng.integers(0, 3, size=10), 3)
        path = str(tmp_path / "d.hdds")
        save_binary(ds, path)
        back = load_binary(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == 3

    def test_speech_benchmark_shape(self, tmp_path):
        # ISOLET-shaped store: 6238 x 617 over 26 classes survives a round trip.
        rng = np.random.default_rng(1)
        features = rng.standard_normal((6238, 617)).astype(np.float32).astype(np.float64)
        labels = rng.integers(0, 26, size=6238)
        path = str(tmp_path / "isolet.hdds")
        save_binary(Dataset(features, labels, 26), path)
        back = load_binary(path)
        assert back.n_samples == 6238
        assert back.input_dim == 617
        assert back.num_classes == 26

    def test_truncated_file_rejected(self, tmp_path):
        ds = Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), 2)
        path = str(tmp_path / "t.hdds")
        save_binary(ds, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-3])
        with pytest.raises(DataFormatError, match="size mismatch"):
            load_binary(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_reports_byte_offset(self, tmp_path, value):
        ds = Dataset(np.ones((3, 4)), np.zeros(3, dtype=int), 2)
        path = str(tmp_path / "f.hdds")
        save_binary(ds, path)
        blob = bytearray(open(path, "rb").read())
        offset = 18 + 4 * (1 * 4 + 2)  # row 1, feature 2
        blob[offset : offset + 4] = np.float32(value).tobytes()
        blob[offset + 8 : offset + 12] = np.float32(np.nan).tobytes()  # a later one
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataFormatError, match=f"non-finite feature at byte offset {offset}$"):
            load_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.hdds")
        open(path, "wb").write(b"NOPE" + bytes(40))
        with pytest.raises(DataFormatError, match="magic"):
            load_binary(path)

    @pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
    def test_feature_not_finite_as_float32_rejected_before_writing(self, tmp_path, value):
        # A Dataset rejects inf and nan itself; save_binary rejects what
        # overflows float32.
        path = tmp_path / "big.hdds"
        with pytest.raises(DataFormatError, match=r"feature \[0, 1\]"):
            ds = Dataset(np.array([[1.0, value], [2.0, 3.0]]), np.array([0, 1]), 2)
            save_binary(ds, str(path))
        assert not path.exists()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=m, max_size=m),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_every_written_file_loads_back(self, tmp_path_factory, rows):
        features = np.array(rows)
        ds = Dataset(features, np.arange(features.shape[0]) % 2, 2)
        path = str(tmp_path_factory.mktemp("hdds") / "d.hdds")
        try:
            save_binary(ds, path)
        except DataFormatError:
            assert not os.path.exists(path)
            with np.errstate(over="ignore"):
                assert not np.all(np.isfinite(features.astype(np.float32)))
            return
        back = load_binary(path)
        assert np.array_equal(back.features, features.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.labels, ds.labels)

    def test_file_size_formula(self, tmp_path):
        # header is 18 bytes; features 4 bytes each; labels 2 bytes each
        ds = Dataset(np.ones((50, 100)), np.zeros(50, dtype=int), 2)
        path = str(tmp_path / "s.hdds")
        save_binary(ds, path)
        assert os.path.getsize(path) == 18 + 50 * 100 * 4 + 50 * 2


class TestSynthGaussianMixture:
    def test_zero_separation_is_chance_level(self):
        train, _ = synth_train_test(4, 8, 250, 1, mean_separation=0.0, seed=3)
        phi = make_projection(8, 1024, seed=0)
        hvs = encode_batch(phi, train.features)
        protos = one_shot_train(hvs, train.labels, 4)
        acc = float(np.mean(predict_batch(protos, hvs) == train.labels))
        assert abs(acc - 0.25) <= 0.05

    def test_wide_separation_is_nearly_perfect(self):
        train, test = synth_train_test(2, 16, 200, 200, mean_separation=10.0, seed=4)
        phi = make_projection(16, 2048, seed=0)
        train_hvs = encode_batch(phi, train.features)
        test_hvs = encode_batch(phi, test.features)
        protos = one_shot_train(train_hvs, train.labels, 2)
        acc = float(np.mean(predict_batch(protos, test_hvs) == test.labels))
        assert acc >= 0.99
        # cross-check with the linear-discriminant oracle on raw features
        mu_0 = train.features[train.labels == 0].mean(axis=0)
        mu_1 = train.features[train.labels == 1].mean(axis=0)
        cov_0 = np.cov(train.features[train.labels == 0].T)
        cov_1 = np.cov(train.features[train.labels == 1].T)
        direction = fisher_direction(mu_0, mu_1, cov_0, cov_1)
        threshold = direction @ (mu_0 + mu_1) / 2.0
        oracle = np.where(test.features @ direction > threshold, 0, 1)
        assert float(np.mean(oracle == test.labels)) >= 0.99

    def test_deterministic(self):
        a, _ = synth_train_test(3, 5, 10, 1, 2.0, seed=9)
        b, _ = synth_train_test(3, 5, 10, 1, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_balance(self):
        train, test = synth_train_test(5, 4, 17, 3, 1.0, seed=0)
        assert np.array_equal(np.bincount(train.labels), [17] * 5)
        assert np.array_equal(np.bincount(test.labels), [3] * 5)

    def test_symmetric_means_are_opposite(self):
        train, _ = synth_train_test(2, 8, 5000, 10, mean_separation=3.0, seed=2, symmetric=True)
        mu_0 = train.features[train.labels == 0].mean(axis=0)
        mu_1 = train.features[train.labels == 1].mean(axis=0)
        assert np.allclose(mu_0, -mu_1, atol=0.15)
        assert np.linalg.norm(mu_0) == pytest.approx(3.0, abs=0.15)

    def test_symmetric_requires_two_classes(self):
        with pytest.raises(ValueError):
            synth_train_test(3, 4, 10, 1, 1.0, seed=0, symmetric=True)


class TestNormalizeFeatures:
    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((200, 5)), rng.integers(0, 2, size=200), 2)
        once = normalize_features(ds)
        twice = normalize_features(once)
        assert np.allclose(once.features, twice.features, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        feats = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        ds = Dataset(feats, np.zeros(10, dtype=int), 2)
        out = normalize_features(ds)
        assert np.array_equal(out.features[:, 0], np.zeros(10))

    def test_test_split_uses_train_statistics(self):
        rng = np.random.default_rng(1)
        train = Dataset(rng.standard_normal((100, 3)) + 5.0, rng.integers(0, 2, 100), 2)
        test = Dataset(rng.standard_normal((100, 3)) + 9.0, rng.integers(0, 2, 100), 2)
        mean, std = feature_stats(train)
        out = normalize_features(test, mean, std)
        # no leakage: test mean stays far from zero
        assert np.all(np.abs(out.features.mean(axis=0)) > 1.0)

    def test_own_statistics_center_exactly(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.standard_normal((50, 4)) * 3 + 1, rng.integers(0, 2, 50), 2)
        out = normalize_features(ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)
