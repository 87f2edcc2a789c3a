import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdfed.channel import (
    _DRAW_CHUNK,
    ChannelConfig,
    ChannelConfigError,
    CodecConfig,
    CodecError,
    apply_channel,
    corrupt_frame,
    corrupt_signs,
    corrupt_values,
    _channel_hits,
    frame_header,
    packet_error_probability,
    quantize_segments,
    read_model_bytes,
    value_words,
    write_model_bytes,
)
from hdfed.hdc import ClassPrototypes
from reference import deserialize_bits, mask_prototypes, serialize_bits
from test_wire import bsc_flip, packetize_and_drop  # the unpacked references


def awgn(model, snr_db, rng):
    return apply_channel(model, ChannelConfig(kind="awgn", snr_db=snr_db), rng)


def through_frame(model, cfg, rng):
    """A model across a bit channel: its HDFM frame, corrupted, parsed."""
    received, _ = read_model_bytes(corrupt_frame(write_model_bytes(model, cfg.codec), cfg, rng))
    return received


def quantize(values, bitwidth):
    """quantize_segments on one block: its integers and its one gain."""
    ints, gains = quantize_segments(values, [np.size(values)], bitwidth)
    return ints, gains[0]


def random_model(rng, k=3, d=16, float32=True):
    values = rng.standard_normal((k, d))
    if float32:
        values = values.astype(np.float32).astype(np.float64)
    return ClassPrototypes(values)


class TestChannelConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ChannelConfigError):
            ChannelConfig(kind="fading")

    def test_awgn_needs_snr(self):
        with pytest.raises(ChannelConfigError):
            ChannelConfig(kind="awgn")

    def test_bsc_needs_rate(self):
        with pytest.raises(ChannelConfigError):
            ChannelConfig(kind="bsc")

    def test_packet_loss_needs_packet_bits(self):
        with pytest.raises(ChannelConfigError):
            ChannelConfig(kind="packet_loss", bit_error_rate=0.01)

    def test_rates_bounded(self):
        with pytest.raises(ChannelConfigError):
            ChannelConfig(kind="bsc", bit_error_rate=1.5)

    def test_quantized_bitwidth_bounds(self):
        with pytest.raises(ChannelConfigError):
            CodecConfig("quantized_int", bitwidth=1)
        with pytest.raises(ChannelConfigError):
            CodecConfig("quantized_int", bitwidth=33)

    def test_raw_int32_is_not_a_codec(self):
        # Raw 32-bit integers carried no gain, so averaged models could not
        # cross them; quantized_int at 32 bits covers the width.
        with pytest.raises(ChannelConfigError, match="unknown representation"):
            CodecConfig("int32")
        with pytest.raises(CodecError, match="unknown codec tag 1"):
            read_model_bytes(frame_header(2, 3, 1) + bytes(24))


class TestAwgn:
    def test_zero_model_unchanged(self):
        model = ClassPrototypes(np.zeros((2, 8)))
        out = awgn(model, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.vectors, model.vectors)

    def test_snr_definition_monte_carlo(self):
        # P = 100 at 20 dB: total noise power E||n||^2 must be 1.0 +- 5%.
        vectors = np.full((2, 50), 1.0)  # sum of squares = 100
        model = ClassPrototypes(vectors)
        rng = np.random.default_rng(1)
        powers = []
        for _ in range(10_000):
            out = awgn(model, 20.0, rng)
            powers.append(np.sum((out.vectors - vectors) ** 2))
        assert np.mean(powers) == pytest.approx(1.0, rel=0.05)

    def test_shape_preserved(self):
        model = random_model(np.random.default_rng(2))
        out = awgn(model, -5.0, np.random.default_rng(3))
        assert out.vectors.shape == model.vectors.shape

    def test_bundling_snr_gain(self):
        # Aggregating N noisy copies improves SNR by about N.
        n_clients = 20
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((2, 200))
        model = ClassPrototypes(vectors)
        signal_power = np.sum(vectors**2)
        per_copy_noise = []
        aggregate_noise = []
        for _ in range(300):
            copies = [awgn(model, 10.0, rng).vectors for _ in range(n_clients)]
            per_copy_noise.extend(np.sum((c - vectors) ** 2) for c in copies)
            agg = np.sum(copies, axis=0)
            aggregate_noise.append(np.sum((agg - n_clients * vectors) ** 2))
        snr_per = signal_power / np.mean(per_copy_noise)
        snr_agg = (n_clients**2) * signal_power / np.mean(aggregate_noise)
        assert 0.8 * n_clients <= snr_agg / snr_per <= 1.2 * n_clients


class TestBitCodec:
    def test_float32_round_trip(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        codec = CodecConfig("float32")
        bits = serialize_bits(model.vectors, codec)
        assert bits.size == model.vectors.size * 32
        back = deserialize_bits(bits, codec, model.vectors.shape)
        assert np.array_equal(back, model.vectors)

    def test_single_param_is_32_bits(self):
        bits = serialize_bits(np.array([1.5]), CodecConfig("float32"))
        assert bits.size == 32

    def test_quantized_round_trip_odd_width(self):
        codec = CodecConfig("quantized_int", bitwidth=5)
        values = np.array([-16.0, -1.0, 0.0, 7.0, 15.0])
        bits = serialize_bits(values, codec)
        assert bits.size == 5 * 5
        back = deserialize_bits(bits, codec, (5,))
        assert np.array_equal(back, values)

    def test_nonfinite_floats_decode_to_zero(self):
        codec = CodecConfig("float32")
        bits = serialize_bits(np.array([np.inf, -np.inf, np.nan, 2.0], dtype=np.float64), codec)
        back = deserialize_bits(bits, codec, (4,))
        assert np.array_equal(back, [0.0, 0.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "codec",
        [CodecConfig("float32")] + [CodecConfig("quantized_int", bitwidth=w) for w in range(2, 33)],
        ids=lambda c: f"{c.representation}{c.bitwidth}",
    )
    def test_integer_arrays_give_the_words_of_their_floats(self, codec):
        top = 2 ** (codec.value_bits - 1)
        rng = np.random.default_rng(codec.value_bits)
        ints = np.concatenate([[-top, top - 1, 0, -1], rng.integers(-top, top, size=50)])
        words = value_words(ints, codec)
        assert np.array_equal(words, value_words(ints.astype(np.float64), codec))
        assert words.dtype == value_words(ints.astype(np.float64), codec).dtype
        if codec.representation == "float32":
            return
        for bad in ([top], [-top - 1]):  # out of range, as integers and as floats
            for values in (np.array(bad, dtype=np.int64), np.array(bad, dtype=np.float64)):
                with pytest.raises(CodecError, match="overflow"):
                    value_words(values, codec)
        for bad in (0.5, np.inf, np.nan):
            with pytest.raises(CodecError, match="integral finite"):
                value_words(np.array([1.0, bad]), codec)


class TestBsc:
    def test_zero_rate_is_identity(self):
        bits = np.random.default_rng(0).integers(0, 2, size=100).astype(np.uint8)
        out = bsc_flip(bits, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, bits)

    def test_rate_one_inverts_everything(self):
        bits = np.random.default_rng(0).integers(0, 2, size=100).astype(np.uint8)
        out = bsc_flip(bits, 1.0, np.random.default_rng(1))
        assert np.array_equal(out, 1 - bits)

    def test_half_rate_uniform_error_vectors(self):
        # At p = 1/2 every 4-bit error pattern has probability 1/16.
        rng = np.random.default_rng(2)
        counts = np.zeros(16, dtype=int)
        trials = 32_000
        for _ in range(trials):
            out = bsc_flip(np.zeros(4, dtype=np.uint8), 0.5, rng)
            counts[int(out[0]) + 2 * int(out[1]) + 4 * int(out[2]) + 8 * int(out[3])] += 1
        freqs = counts / trials
        assert np.all(np.abs(freqs - 1.0 / 16.0) < 0.01)

    def test_expected_flip_fraction(self):
        rng = np.random.default_rng(3)
        bits = np.zeros(100_000, dtype=np.uint8)
        out = bsc_flip(bits, 0.05, rng)
        assert np.mean(out) == pytest.approx(0.05, rel=0.1)

    @pytest.mark.parametrize(
        "n",
        [0, 1, 7, 8, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 5],
    )
    def test_chunked_draw_equals_one_draw(self, n):
        cfg = ChannelConfig(kind="bsc", bit_error_rate=0.3)
        rng, one_shot = np.random.default_rng(11), np.random.default_rng(11)
        hits = _channel_hits(np.array([n]), cfg, rng)
        expected = np.packbits(one_shot.random(n) < 0.3, bitorder="little")
        assert hits.dtype == np.uint8 and np.array_equal(hits, expected)
        assert rng.random() == one_shot.random()  # the stream is left at the same place

    def test_draw_memory_does_not_grow_with_the_frame(self):
        # One uniform per bit drawn at once would take 16 MB for 2^21 bits.
        cfg = ChannelConfig(kind="bsc", bit_error_rate=1e-3)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            hits = _channel_hits(np.array([1 << 21]), cfg, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hits.size == 1 << 18
        assert peak < 1 << 20


class TestQuantizer:
    def test_hand_computed_example(self):
        ints, gain = quantize(np.array([3.0, -5.0, 7.0]), bitwidth=8)
        assert gain == pytest.approx(127.0 / 7.0)
        assert np.array_equal(ints, [54, -90, 127])

    def test_single_nonzero_hits_ceiling(self):
        ints, _ = quantize(np.array([0.0, -2.5, 0.0]), bitwidth=8)
        assert np.array_equal(ints, [0, -127, 0])

    def test_bitwidth_two_alphabet(self):
        ints, _ = quantize(np.array([0.3, -0.8, 0.9]), bitwidth=2)
        assert set(np.unique(ints)) <= {-1, 0, 1}

    def test_round_trip_error_bound(self):
        values = np.array([3.0, -5.0, 7.0])
        ints, gain = quantize(values, bitwidth=8)
        back = ints / gain
        assert np.max(np.abs(back - values)) <= 7.0 / 127.0

    def test_reported_damping_ratios(self):
        # Unscaled single-bit corruption can blow a parameter up by ~295.9x;
        # on scaled-up values the same class of corruption lands near 1.2x.
        assert 2071.0 / 7.0 == pytest.approx(295.9, abs=0.1)
        assert 12005.0 / 9973.0 == pytest.approx(1.2, abs=0.01)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        flip_bit=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_flip_damping_bound(self, seed, flip_bit):
        # For 16-bit scaled integers with magnitude >= 2^14, any single bit
        # flip moves the descaled parameter by at most 3x.
        rng = np.random.default_rng(seed)
        magnitude = int(rng.integers(2**14, 2**15 - 1))
        original = magnitude if rng.random() < 0.5 else -magnitude
        unsigned = original & 0xFFFF
        corrupted_unsigned = unsigned ^ (1 << flip_bit)
        corrupted = corrupted_unsigned - 0x10000 if corrupted_unsigned >= 0x8000 else corrupted_unsigned
        assert abs(corrupted / original) <= 3.0

    def test_subnormal_maximum_sends_zeros_at_gain_one(self):
        # The gain (2^15 - 1) / 5e-324 overflows; the block is sent like an
        # all-zero one instead of as +/-32767 at an infinite gain.
        with np.errstate(all="raise"):
            ints, gain = quantize(np.array([5e-324, -5e-324, 0.0]), 16)
        assert ints.tolist() == [0, 0, 0] and gain == 1.0

    @pytest.mark.parametrize("lengths", [[3, 3], [2, 4]], ids=["equal", "unequal"])
    @pytest.mark.parametrize("bitwidth", [2, 8, 16, 32])
    def test_non_finite_values_stay_in_range(self, lengths, bitwidth):
        # A NaN or infinite value must not abort the uplink: every integer
        # stays within the codec's range, and infinities sit at the ceiling.
        values = np.array([np.inf, 1.0, -np.inf, 2.0, np.nan, np.nan])
        with np.errstate(all="ignore"):
            ints, _ = quantize_segments(values, lengths, bitwidth)
        top = 2 ** (bitwidth - 1) - 1
        assert np.all(np.abs(ints) <= top)
        assert ints[0] == top and ints[2] == -top

    @pytest.mark.parametrize(
        "chan",
        [dict(kind="bsc", bit_error_rate=0.0), dict(kind="packet_loss", packet_bits=8, packet_loss_prob=0.0)],
        ids=["bsc", "packet_loss"],
    )
    def test_subnormal_row_crosses_a_bit_channel(self, chan):
        codec = CodecConfig("quantized_int", bitwidth=16)
        model = ClassPrototypes(np.array([[5e-324, -5e-324, 0.0], [1.0, -2.0, 3.0]]))
        cfg = ChannelConfig(codec=codec, **chan)
        frame = write_model_bytes(model, codec)
        received, _ = read_model_bytes(corrupt_frame(frame, cfg, np.random.default_rng(0)))
        assert np.array_equal(received.vectors[0], [0.0, 0.0, 0.0])
        assert np.allclose(received.vectors[1], [1.0, -2.0, 3.0], atol=3.0 / 32767)

    def test_zero_rows_send_zeros_at_gain_one(self):
        model = ClassPrototypes(np.array([[0.0, 0.0], [1.0, -2.0]]))
        ints, gains = quantize_segments(model.vectors, np.full(2, 2), 8)
        assert np.array_equal(ints[:2], [0, 0])
        assert gains[0] == 1.0
        back, _ = read_model_bytes(write_model_bytes(model, CodecConfig("quantized_int", bitwidth=8)))
        assert np.array_equal(back.vectors[0], [0.0, 0.0])


class TestPacketLoss:
    def test_zero_rate_drops_nothing(self):
        bits = np.ones(1000, dtype=np.uint8)
        out, dropped = packetize_and_drop(bits, 100, 0.0, np.random.default_rng(0))
        assert dropped == []
        assert np.array_equal(out, bits)

    def test_packet_error_probability_value(self):
        assert packet_error_probability(1e-3, 100) == pytest.approx(0.09521, abs=1e-5)

    def test_drop_all_zero_fills(self):
        bits = np.ones(256, dtype=np.uint8)
        out, dropped = packetize_and_drop(
            bits, 64, 0.0, np.random.default_rng(0), packet_loss_prob=1.0
        )
        assert dropped == [0, 1, 2, 3]
        assert not out.any()

    def test_all_dropped_model_decodes_to_zeros(self):
        model = ClassPrototypes(np.ones((2, 4)))
        cfg = ChannelConfig(kind="packet_loss", packet_bits=32, packet_loss_prob=1.0)
        out = through_frame(model, cfg, np.random.default_rng(0))
        assert np.array_equal(out.vectors, np.zeros((2, 4)))

    def test_empirical_drop_fraction(self):
        cfg_prob = 0.2
        rng = np.random.default_rng(5)
        total, dropped_count = 0, 0
        for _ in range(200):
            _, dropped = packetize_and_drop(
                np.zeros(5000, dtype=np.uint8), 100, 0.0, rng, packet_loss_prob=cfg_prob
            )
            total += 50
            dropped_count += len(dropped)
        assert dropped_count / total == pytest.approx(0.2, abs=0.02)


class TestApplyChannel:
    def test_ideal_identity(self):
        model = random_model(np.random.default_rng(0))
        out = apply_channel(model, ChannelConfig(), np.random.default_rng(1))
        assert np.array_equal(out.vectors, model.vectors)

    def test_ideal_passes_the_input_through(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        signs = np.where(rng.random((3, 8)) < 0.5, 1.0, -1.0)
        assert apply_channel(model, ChannelConfig(), rng).vectors is model.vectors
        assert corrupt_values(model.vectors, ChannelConfig(), rng) is model.vectors
        assert corrupt_signs(signs, ChannelConfig(), rng) is signs

    @pytest.mark.parametrize(
        "chan",
        [dict(kind="bsc", bit_error_rate=0.0), dict(kind="packet_loss", packet_bits=8, packet_loss_prob=0.0)],
        ids=["bsc", "packet_loss"],
    )
    def test_bit_channels_act_on_frames_not_models(self, chan):
        model = random_model(np.random.default_rng(0))
        with pytest.raises(ChannelConfigError):
            apply_channel(model, ChannelConfig(**chan), np.random.default_rng(1))

    def test_bsc_zero_rate_identity(self):
        model = random_model(np.random.default_rng(0))
        cfg = ChannelConfig(kind="bsc", bit_error_rate=0.0)
        out = through_frame(model, cfg, np.random.default_rng(1))
        assert np.array_equal(out.vectors, model.vectors)

    def test_bsc_quantized_stays_bounded(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, k=4, d=128, float32=False)
        cfg = ChannelConfig(
            kind="bsc",
            bit_error_rate=0.01,
            codec=CodecConfig("quantized_int", bitwidth=16),
        )
        out = through_frame(model, cfg, rng)
        # scaled-integer corruption cannot exceed the per-class gain ceiling
        limit = np.abs(model.vectors).max(axis=1) * (2**15) / (2**15 - 1)
        assert np.all(np.abs(out.vectors) <= limit[:, None] + 1e-9)

    def test_shapes_always_preserved(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, k=3, d=64)
        for cfg in [ChannelConfig(), ChannelConfig(kind="awgn", snr_db=0.0)]:
            assert apply_channel(model, cfg, rng).vectors.shape == (3, 64)
        bit_channels = [
            ChannelConfig(kind="bsc", bit_error_rate=0.05),
            ChannelConfig(kind="packet_loss", packet_bits=64, bit_error_rate=1e-3),
            ChannelConfig(
                kind="bsc",
                bit_error_rate=0.05,
                codec=CodecConfig("quantized_int", bitwidth=8),
            ),
        ]
        for cfg in bit_channels:
            assert through_frame(model, cfg, rng).vectors.shape == (3, 64)

    def test_corrupt_values_vector_paths(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(100).astype(np.float32).astype(np.float64)
        ideal = corrupt_values(values, ChannelConfig(), rng)
        assert np.array_equal(ideal, values)
        noisy = corrupt_values(values, ChannelConfig(kind="awgn", snr_db=20.0), rng)
        assert noisy.shape == values.shape and not np.array_equal(noisy, values)
        # Bit channels corrupt frames (corrupt_frame), never raw values.
        with pytest.raises(ChannelConfigError):
            corrupt_values(values, ChannelConfig(kind="bsc", bit_error_rate=0.0), rng)

class TestPartialInformation:
    def test_masked_dot_product_linearity(self):
        # Expected kept dot-product is the keep fraction times the full one.
        rng = np.random.default_rng(6)
        d = 2000
        c = rng.standard_normal(d)
        h = c + 0.5 * rng.standard_normal(d)  # correlated query, large dot
        full = np.dot(c, h)
        keep = 0.5
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            mask = np.zeros(d)
            mask[rng.choice(d, size=int(round(keep * d)), replace=False)] = 1.0
            total += np.dot(c * mask, h)
        assert total / trials == pytest.approx(keep * full, rel=0.02)

    def test_mask_prototypes_keeps_exact_fraction(self):
        model = ClassPrototypes(np.ones((3, 100)))
        out = mask_prototypes(model, 0.2, np.random.default_rng(0))
        assert np.count_nonzero(out.vectors[0]) == 20
        # same mask across classes
        assert np.array_equal(out.vectors[0] != 0, out.vectors[2] != 0)


class TestModelFrames:
    def test_float32_frame_round_trip(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, k=4, d=32)
        blob = write_model_bytes(model, CodecConfig("float32"))
        back, codec = read_model_bytes(blob)
        assert codec.representation == "float32"
        assert np.array_equal(back.vectors, model.vectors)

    def test_frame_size_formula(self):
        model = ClassPrototypes(np.zeros((26, 1000)))
        blob = write_model_bytes(model, CodecConfig("float32"))
        assert len(blob) == 14 + 26 * 1000 * 4

    def test_quantized_frame_round_trip_within_step(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, k=3, d=50, float32=False)
        blob = write_model_bytes(model, CodecConfig("quantized_int", bitwidth=16))
        back, codec = read_model_bytes(blob)
        assert codec.bitwidth == 16
        step = np.abs(model.vectors).max(axis=1) / (2**15 - 1)
        assert np.all(np.abs(back.vectors - model.vectors) <= step[:, None] + 1e-12)

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            read_model_bytes(b"JUNK" + bytes(20))
