"""Wire-level invariants of the uplink.

* The packed codec and every bit channel agree, bit for bit, with the
  unpacked reference: serialize_bits -> bsc_flip / packetize_and_drop ->
  deserialize_bits, drawn from the same seeded generator. The bit view is
  in reference.py and the two channels are defined here; the library
  corrupts packed frames only.
* The bytes counted on the uplink are the bytes the channel corrupts and
  the bytes the strategy's parser decodes, for every strategy.
* The vectorized sparse uplink (partition select, one-pass frame codec,
  corruption of the frame's value bits) agrees, bit for bit, with the
  per-row and per-class references it replaced.
* Frame parsers fail closed with their module's own error type.
"""

import functools
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdfed import federated, strategies
from hdfed.channel import (
    HEADER_BYTES,
    ChannelConfig,
    ChannelConfigError,
    CodecConfig,
    CodecError,
    corrupt_frame,
    frame_header,
    pack_words,
    packet_error_probability,
    quantize_segments,
    read_model_bytes,
    unpack_words,
    write_model_bytes,
)
from hdfed.data import HDDS_MAGIC, HDDS_VERSION, DataFormatError, load_binary
from hdfed.federated import RoundConfig, partition_iid, run_training
from hdfed.hdc import ClassPrototypes
from hdfed.seeding import STREAM_STRATEGY, derived_rng
from hdfed.strategies import (
    TAG_SPARSE,
    TAG_SUBSAMPLE,
    SparseClassModel,
    SparseFormatError,
    StrategyConfig,
    StrategyConfigError,
    SubsamplePayload,
    csc_decompress,
    deserialize_sign_matrix,
    deserialize_sparse,
    deserialize_subsample,
    serialize_sign_matrix,
    serialize_sparse,
    serialize_subsample,
    sparsify,
    subsample,
    subsample_stream_key,
    wire_bytes,
)
from reference import by_class, deserialize_bits, serialize_bits

CODECS = st.one_of(
    st.just(CodecConfig("float32")),
    st.integers(2, 32).map(lambda w: CodecConfig("quantized_int", bitwidth=w)),
)
# bsc at the rates the paper sweeps plus both extremes; packet sizes that do
# and do not align with bytes.
CHANNELS = st.sampled_from(
    [dict(kind="bsc", bit_error_rate=p) for p in (0.0, 1e-3, 0.5, 1.0)]
    + [dict(kind="packet_loss", packet_bits=b, packet_loss_prob=0.3) for b in (1, 8, 13, 100)]
    + [dict(kind="packet_loss", packet_bits=13, bit_error_rate=0.02)]
)


def bsc_flip(bits: np.ndarray, p_e: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p_e."""
    if not 0.0 <= p_e <= 1.0:
        raise ChannelConfigError(f"bit error rate {p_e} outside [0, 1]")
    bits = np.asarray(bits, dtype=np.uint8)
    flips = rng.random(bits.size) < p_e
    return bits ^ flips.astype(np.uint8)


def packetize_and_drop(
    bits: np.ndarray,
    packet_bits: int,
    p_e: float,
    rng: np.random.Generator,
    packet_loss_prob: float | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Split into packets of packet_bits and erase whole packets.

    Each packet drops independently with 1 - (1 - p_e)^packet_bits, or with
    packet_loss_prob when given directly. Dropped packets arrive zero-filled.
    Returns the received bits and the dropped packet indices.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    p_drop = (
        packet_loss_prob
        if packet_loss_prob is not None
        else packet_error_probability(p_e, packet_bits)
    )
    n_packets = -(-bits.size // packet_bits)  # ceil
    received = bits.copy()
    dropped: list[int] = []
    if n_packets == 0:
        return received, dropped
    drops = rng.random(n_packets) < p_drop
    for idx in np.flatnonzero(drops):
        start = int(idx) * packet_bits
        received[start : start + packet_bits] = 0
        dropped.append(int(idx))
    return received, dropped


def reference_bits(values, codec):
    """Unpacked codec bits built independently: one 0/1 byte per bit."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if codec.representation == "float32":
        raw = np.frombuffer(flat.astype("<f4").tobytes(), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")
    width = codec.value_bits
    unsigned = flat.astype(np.int64) & ((1 << width) - 1)
    return ((unsigned[:, None] >> np.arange(width)) & 1).reshape(-1).astype(np.uint8)


def reference_values(bits, codec):
    """Values of unpacked codec bits, decoded independently; float32
    patterns of NaN or infinity decode to zero."""
    width = codec.value_bits
    words = (bits.reshape(-1, width).astype(np.int64) << np.arange(width)).sum(axis=1)
    if codec.representation == "float32":
        with np.errstate(invalid="ignore"):  # signalling-NaN patterns widen with FE_INVALID
            floats = words.astype("<u4").view("<f4").astype(np.float64)
        return np.nan_to_num(floats, nan=0.0, posinf=0.0, neginf=0.0)
    half = 1 << (width - 1)
    return np.where(words >= half, words - 2 * half, words).astype(np.float64)


def reference_channel(bits, cfg, rng):
    if cfg.kind == "bsc":
        return bsc_flip(bits, cfg.bit_error_rate, rng)
    received, _ = packetize_and_drop(
        bits, cfg.packet_bits, cfg.bit_error_rate or 0.0, rng, cfg.packet_loss_prob
    )
    return received


def reference_value_block(values, cfg, rng):
    """One value block through the unpacked reference: quantized as one
    block whose gain rides the reliable side, then bit by bit."""
    values = np.asarray(values, dtype=np.float64)
    codec, gain = cfg.codec, 1.0
    if codec.representation == "quantized_int":
        values, gains = quantize_segments(values, [values.size], codec.bitwidth)
        gain = gains[0]
    bits = reference_channel(serialize_bits(values, codec), cfg, rng)
    return deserialize_bits(bits, codec, values.shape) / gain


def codec_values(rng, shape):
    """Values the codec can carry: any floats, at a random scale."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)


def model_for(rng, codec, k, d):
    values = codec_values(rng, (k, d))
    values[rng.random(k) < 0.25] = 0.0  # untrained classes
    return ClassPrototypes(values)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPackedCodec:
    @given(codec=CODECS, seed=st.integers(0, 2**32 - 1), n=st.integers(0, 70))
    @settings(max_examples=150, deadline=None)
    def test_serialize_matches_unpacked_reference(self, codec, seed, n):
        rng = np.random.default_rng(seed)
        values = codec_values(rng, n)
        if codec.representation == "quantized_int":
            top = 2 ** (codec.bitwidth - 1)
            values = rng.integers(-top, top, size=n).astype(np.float64)
        bits = serialize_bits(values, codec)
        assert np.array_equal(bits, reference_bits(values, codec))
        back = deserialize_bits(bits, codec, (n,))
        # Integer codecs carry no negative zero.
        expected = values.astype(np.float32) if codec.representation == "float32" else values + 0.0
        assert same_bits(back, expected)

    @given(codec=CODECS, seed=st.integers(0, 2**32 - 1), n=st.integers(0, 70))
    @settings(max_examples=100, deadline=None)
    def test_any_bit_pattern_decodes_like_the_reference(self, codec, seed, n):
        bits = np.random.default_rng(seed).integers(0, 2, size=n * codec.value_bits)
        got = deserialize_bits(bits.astype(np.uint8), codec, (n,))
        assert same_bits(got, reference_values(bits, codec))

    @given(codec=CODECS, seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_frame_is_header_gains_and_packed_reference_bits(self, codec, seed, k, d):
        model = model_for(np.random.default_rng(seed), codec, k, d)
        tag = 0 if codec.representation == "float32" else 128 + codec.bitwidth
        expected = frame_header(k, d, tag)
        values = model.vectors
        if codec.representation == "quantized_int":
            values, gains = quantize_segments(values, np.full(k, d), codec.bitwidth)
            expected += gains.astype("<f8").tobytes()
        expected += np.packbits(serialize_bits(values, codec), bitorder="little").tobytes()
        assert write_model_bytes(model, codec) == expected


class TestChannelEquivalence:
    @given(
        codec=CODECS,
        chan=CHANNELS,
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 4),
        d=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_model_frame_matches_unpacked_reference(self, codec, chan, seed, k, d):
        cfg = ChannelConfig(codec=codec, **chan)
        model = model_for(np.random.default_rng(seed), codec, k, d)
        sent = write_model_bytes(model, codec)
        got, _ = read_model_bytes(corrupt_frame(sent, cfg, np.random.default_rng(seed + 1)))
        values, gains = model.vectors, np.ones(k)
        if codec.representation == "quantized_int":
            values, gains = quantize_segments(values, np.full(k, d), codec.bitwidth)
        bits = reference_channel(serialize_bits(values, codec), cfg, np.random.default_rng(seed + 1))
        expected = deserialize_bits(bits, codec, (k, d))
        if codec.representation == "quantized_int":
            expected = expected / gains[:, None]
        assert same_bits(got.vectors, expected)

    @given(codec=CODECS, chan=CHANNELS, seed=st.integers(0, 2**32 - 1), n=st.integers(0, 90))
    @settings(max_examples=150, deadline=None)
    def test_subsample_frame_matches_unpacked_reference(self, codec, chan, seed, n):
        cfg = ChannelConfig(codec=codec, **chan)
        values = codec_values(np.random.default_rng(seed), n)
        key = subsample_stream_key(seed % 7, seed % 5)
        sent = serialize_subsample(SubsamplePayload(key, np.arange(n), values, (3, 30)), codec)
        arrived = corrupt_frame(sent, cfg, np.random.default_rng(seed + 1))
        got = deserialize_subsample(arrived, codec, seed=11, shape=(3, 30))
        expected = reference_value_block(values, cfg, np.random.default_rng(seed + 1))
        assert same_bits(got.values, expected)
        # The indices are the client's draw for this key, regenerated.
        rng = derived_rng(11, STREAM_STRATEGY, seed % 7, seed % 5)
        assert np.array_equal(got.indices, np.sort(rng.choice(90, size=n, replace=False)))

    @given(chan=CHANNELS, seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), d=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_sign_frame_matches_unpacked_reference(self, chan, seed, k, d):
        cfg = ChannelConfig(**chan)
        signs = np.where(np.random.default_rng(seed).random((k, d)) < 0.5, 1.0, -1.0)
        arrived = corrupt_frame(serialize_sign_matrix(signs), cfg, np.random.default_rng(seed + 1))
        got = deserialize_sign_matrix(arrived, (k, d))
        bits = (signs.reshape(-1) > 0).astype(np.uint8)
        bits = reference_channel(bits, cfg, np.random.default_rng(seed + 1))
        assert same_bits(got, np.where(bits == 1, 1.0, -1.0).reshape(k, d))


def reference_quantize_block(values, bitwidth):
    """The per-block quantizer that quantize_segments replaced."""
    values = np.asarray(values, dtype=np.float64)
    if not np.any(values != 0.0):
        return np.zeros(values.shape, dtype=np.int64), 1.0
    max_abs = float(np.max(np.abs(values)))
    top = 2 ** (bitwidth - 1) - 1
    gain = top / max_abs
    ints = np.trunc(values * gain).astype(np.int64)
    extremes = np.abs(values) == max_abs
    ints[extremes] = np.where(values[extremes] >= 0, top, -top)
    np.clip(ints, -top, top, out=ints)
    return ints, gain


def reference_sparsify(model, sparsity):
    """The per-row stable-argsort selection that sparsify replaced, as
    per-class index and value lists."""
    n_zero = int(round(sparsity * model.vectors.shape[1]))
    indices, values = [], []
    for row in model.vectors:
        order = np.argsort(np.abs(row), kind="stable")
        dense = row.copy()
        dense[order[:n_zero]] = 0.0
        nz = np.flatnonzero(dense)
        indices.append(nz.astype(np.int64))
        values.append(dense[nz])
    return indices, values


def reference_csc_decompress(sparse):
    """The per-class loop that the one-scatter csc_decompress replaced."""
    vectors = np.zeros(sparse.shape)
    for row, (idx, val) in enumerate(zip(*by_class(sparse))):
        vectors[row, idx] = val
    return ClassPrototypes(vectors)


def random_layout(rng, k, d, row=0):
    """Flat indices, values and lengths of a valid (k, d) sparse model, with
    empty classes and -0.0 values; class `row` holds at least min(d, 2) pairs."""
    lengths = rng.integers(0, d + 1, size=k)
    lengths[rng.random(k) < 0.3] = 0  # empty classes
    lengths[row] = max(lengths[row], min(d, 2))
    indices = np.concatenate([np.sort(rng.choice(d, size=n, replace=False)) for n in lengths])
    values = np.where(rng.random(indices.size) < 0.3, -0.0, rng.standard_normal(indices.size))
    return indices, values, lengths


# Faults of the sparse layout: in the lengths, in the flat arrays' sizes, or
# in one class's indices.
LENGTH_FAULTS = ["negative", "fewer_indices", "more_indices", "fewer_values", "more_values"]
LAYOUT_FAULTS = ["lengths", *LENGTH_FAULTS, "low", "at_d", "above_d", "repeat", "swap"]


def first_short_class(lengths, held):
    """The first class with a negative length or with pairs past the `held`
    pairs of the flat arrays; the last class when the arrays hold more."""
    end = 0
    for row, n in enumerate(lengths):
        end += n
        if n < 0 or end > held:
            return row
    return len(lengths) - 1


def reference_sparse_frame(sparse, codec):
    """The sparse frame written one class at a time from unpacked bits."""
    k, d = sparse.shape
    out = bytearray(frame_header(k, d, TAG_SPARSE))
    for idx, val in zip(*by_class(sparse)):
        out += struct.pack("<I", idx.size)
        if not idx.size:
            continue
        if codec.representation == "quantized_int":
            val, gain = reference_quantize_block(val, codec.bitwidth)
            out += struct.pack("<d", gain)
        gaps = np.diff(idx, prepend=-1) - 1
        gap_bits = (gaps[:, None] >> np.arange(32)) & 1
        value_bits = reference_bits(val, codec).reshape(idx.size, codec.value_bits)
        pair_bits = np.hstack([gap_bits, value_bits]).astype(np.uint8)
        out += np.packbits(pair_bits.reshape(-1), bitorder="little").tobytes()
    return bytes(out)


def reference_sparse_uplink(sparse, cfg, rng):
    """Each class's values through the unpacked reference in turn, the
    per-class loop that the frame path replaced."""
    values = [reference_value_block(v, cfg, rng) for v in by_class(sparse)[1]]
    return reference_csc_decompress(replace(sparse, values=np.concatenate(values)))


def value_bit_mask(frame, codec):
    """One flag per frame bit, set on the value bits of the sparse pairs;
    walked from the format description, not from the library's parser."""
    k, width = struct.unpack_from("<I", frame, 5)[0], 32 + codec.value_bits
    mask = np.zeros(8 * len(frame), dtype=bool)
    offset = HEADER_BYTES
    for _ in range(k):
        (count,) = struct.unpack_from("<I", frame, offset)
        offset += 4 + (8 if count and codec.representation == "quantized_int" else 0)
        for j in range(count):
            start = 8 * offset + j * width + 32
            mask[start : start + codec.value_bits] = True
        offset += -(-count * width // 8)
    assert offset == len(frame)
    return mask


def frame_bits(frame):
    return np.unpackbits(np.frombuffer(frame, dtype=np.uint8), bitorder="little")


# Every value width that frames write as byte records (8, 16 and 32 bits, so
# 40-, 48- and 64-bit sparse pairs), and two that they pack bit by bit: one
# under a byte and 24 bits, whole bytes that are no numpy type (56-bit pairs).
CODEC_CASES = [
    CodecConfig("float32"),
    CodecConfig("quantized_int", bitwidth=16),
    CodecConfig("quantized_int", bitwidth=7),
    CodecConfig("quantized_int", bitwidth=8),
    CodecConfig("quantized_int", bitwidth=32),
    CodecConfig("quantized_int", bitwidth=24),
]
SPARSITIES = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99]), st.floats(0.0, 0.999))
# Continuous values, or small integers: many ties at the threshold and
# incidental zeros.
VALUE_KINDS = st.sampled_from(["continuous", "integers"])
SPARSE_CHANNEL_CASES = (
    [dict(kind="bsc", bit_error_rate=p) for p in (0.0, 1e-3, 0.5, 1.0)]
    + [dict(kind="packet_loss", packet_bits=b, packet_loss_prob=0.3) for b in (1, 7, 13, 100)]
    + [dict(kind="packet_loss", packet_bits=13, bit_error_rate=0.02)]
)
SPARSE_CHANNELS = st.sampled_from(SPARSE_CHANNEL_CASES)


def codec_id(codec):
    return f"{codec.representation}{codec.bitwidth}"


def channel_id(chan):
    return "-".join(str(v) for v in chan.values())


def sparse_input(rng, codec, k, d, kind):
    """A model whose rows cover empty (all-zero) classes and tied magnitudes."""
    if kind == "integers":
        values = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
    else:
        values = codec_values(rng, (k, d))
    values[rng.random(k) < 0.25] = 0.0
    return ClassPrototypes(values)


class TestSparseUplink:
    @given(
        seed=st.integers(0, 2**32 - 1),
        sparsity=SPARSITIES,
        kind=VALUE_KINDS,
        k=st.integers(2, 5),
        d=st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_sparsify_matches_stable_argsort_reference(self, seed, sparsity, kind, k, d):
        model = sparse_input(np.random.default_rng(seed), CodecConfig(), k, d, kind)
        got = sparsify(model, sparsity)
        assert got.shape == model.vectors.shape
        got_indices, got_values = by_class(got)
        indices, values = reference_sparsify(model, sparsity)
        for gi, ei, gv, ev in zip(got_indices, indices, got_values, values):
            assert gi.dtype == ei.dtype and np.array_equal(gi, ei)
            assert same_bits(gv, ev)
        assert len(got_indices) == len(got_values) == k

    def test_sparsify_all_tied_rows_zero_lowest_indices_first(self):
        model = ClassPrototypes(np.array([[2.0, -2.0, 2.0, -2.0, 2.0], [0.0] * 5]))
        indices, values = by_class(sparsify(model, 0.6))
        assert indices[0].tolist() == [3, 4] and values[0].tolist() == [-2.0, 2.0]
        assert indices[1].size == 0

    @given(
        codec=CODECS,
        seed=st.integers(0, 2**32 - 1),
        sparsity=SPARSITIES,
        kind=VALUE_KINDS,
        k=st.integers(2, 5),
        d=st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_serialize_sparse_matches_per_class_reference(self, codec, seed, sparsity, kind, k, d):
        sparse = sparsify(sparse_input(np.random.default_rng(seed), codec, k, d, kind), sparsity)
        frame = serialize_sparse(sparse, codec)
        assert frame == reference_sparse_frame(sparse, codec)
        back = deserialize_sparse(frame, codec, sparse.shape)
        assert np.array_equal(back.lengths, sparse.lengths)
        assert np.array_equal(back.indices, sparse.indices)

    @given(
        codec=CODECS,
        chan=SPARSE_CHANNELS,
        seed=st.integers(0, 2**32 - 1),
        sparsity=SPARSITIES,
        kind=VALUE_KINDS,
        k=st.integers(2, 5),
        d=st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_corrupted_frame_decodes_like_per_class_reference(
        self, codec, chan, seed, sparsity, kind, k, d
    ):
        cfg = ChannelConfig(codec=codec, **chan)
        sparse = sparsify(sparse_input(np.random.default_rng(seed), codec, k, d, kind), sparsity)
        frame = serialize_sparse(sparse, codec)
        arrived = corrupt_frame(frame, cfg, np.random.default_rng(seed + 1))
        received = deserialize_sparse(arrived, codec, sparse.shape)
        expected = reference_sparse_uplink(sparse, cfg, np.random.default_rng(seed + 1))
        assert same_bits(csc_decompress(received).vectors, expected.vectors)

    @pytest.mark.parametrize("codec", CODEC_CASES, ids=codec_id)
    @pytest.mark.parametrize("chan", SPARSE_CHANNEL_CASES, ids=channel_id)
    def test_codec_cases_match_per_class_reference_on_every_channel(self, codec, chan):
        cfg = ChannelConfig(codec=codec, **chan)
        model = sparse_input(np.random.default_rng(6), codec, 4, 37, "continuous")
        model.vectors[1] = 0.0  # an empty class
        sparse = sparsify(model, 0.6)
        frame = serialize_sparse(sparse, codec)
        assert frame == reference_sparse_frame(sparse, codec)
        arrived = corrupt_frame(frame, cfg, np.random.default_rng(3))
        received = deserialize_sparse(arrived, codec, sparse.shape)
        expected = reference_sparse_uplink(sparse, cfg, np.random.default_rng(3))
        assert same_bits(csc_decompress(received).vectors, expected.vectors)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), d=st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_csc_decompress_matches_per_class_reference(self, seed, k, d):
        rng = np.random.default_rng(seed)
        sparse = SparseClassModel(*random_layout(rng, k, d), (k, d))
        got, expected = csc_decompress(sparse), reference_csc_decompress(sparse)
        assert same_bits(got.vectors, expected.vectors)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        d=st.integers(1, 30),
        row=st.integers(0, 4),
        fault=st.sampled_from([None, *LAYOUT_FAULTS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_sparse_layout_is_checked_on_construction(self, seed, k, d, row, fault):
        rng = np.random.default_rng(seed)
        row %= k
        indices, values, lengths = random_layout(rng, k, d, row)
        start, end = lengths[:row].sum(), lengths[: row + 1].sum()
        if fault in ("repeat", "swap"):
            assume(d >= 2)
        if fault == "negative":
            lengths[row] = -1
        elif fault == "lengths":
            lengths = np.append(lengths, 0) if rng.random() < 0.5 else lengths[1:]
        elif fault in ("fewer_indices", "more_indices"):
            indices = indices[:-1] if fault == "fewer_indices" else np.append(indices, d - 1)
        elif fault in ("fewer_values", "more_values"):
            values = values[:-1] if fault == "fewer_values" else np.append(values, 1.0)
        elif fault == "low":
            indices[start] = -1
        elif fault in ("at_d", "above_d"):
            indices[end - 1] = d if fault == "at_d" else d + rng.integers(1, 2**40)
        elif fault == "repeat":
            indices[start + 1] = indices[start]
        elif fault == "swap":
            indices[start : start + 2] = indices[start + 1], indices[start]
        if fault is None:  # indices may fall across a class boundary
            SparseClassModel(indices, values, lengths, (k, d))
            return
        if fault == "lengths":
            bad = f"{lengths.size} pair lengths for {k} classes$"
        elif fault in LENGTH_FAULTS:
            bad = f"class {first_short_class(lengths, min(indices.size, values.size))}: "
        else:
            bad = f"class {row}: "
        with pytest.raises(SparseFormatError, match=f"^{bad}"):
            SparseClassModel(indices, values, lengths, (k, d))

    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(0, 9), min_size=1, max_size=5),
        bitwidth=st.integers(2, 32),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
    )
    @settings(max_examples=200, deadline=None)
    def test_segmented_quantizer_matches_per_block_reference(self, seed, lengths, bitwidth, scale):
        rng = np.random.default_rng(seed)
        values = np.round(rng.standard_normal(sum(lengths)) * 4.0) * scale  # ties at the max
        values[rng.random(values.size) < 0.2] = 0.0
        ints, gains = quantize_segments(values, lengths, bitwidth)
        for segment, (start, n) in enumerate(zip(np.cumsum([0, *lengths]), lengths)):
            want_ints, want_gain = reference_quantize_block(values[start : start + n], bitwidth)
            assert np.array_equal(ints[start : start + n], want_ints)
            assert gains[segment] == want_gain

    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 64),
        lengths=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_segmented_packing_pads_each_segment_like_separate_packs(self, seed, width, lengths):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**63, size=sum(lengths), dtype=np.uint64) >> np.uint64(64 - width)
        starts = np.cumsum([0, *lengths])
        separate = b"".join(
            pack_words(words[a : a + n], width).tobytes() for a, n in zip(starts, lengths)
        )
        packed = pack_words(words, width, np.array(lengths))
        assert packed.tobytes() == separate
        assert np.array_equal(unpack_words(packed, words.size, width, np.array(lengths)), words)

    @pytest.mark.parametrize(
        "codec",
        CODEC_CASES,
        ids=lambda c: f"{c.representation}{c.bitwidth}",
    )
    @pytest.mark.parametrize(
        "chan",
        [
            dict(kind="bsc", bit_error_rate=1.0),
            dict(kind="packet_loss", packet_bits=7, packet_loss_prob=1.0),
        ],
        ids=["flip_all", "drop_all"],
    )
    def test_only_value_bits_are_hit(self, codec, chan):
        model = sparse_input(np.random.default_rng(5), codec, 4, 23, "continuous")
        model.vectors[1] = 0.0  # an empty class
        sent = serialize_sparse(sparsify(model, 0.6), codec)
        cfg = ChannelConfig(codec=codec, **chan)
        received = corrupt_frame(sent, cfg, np.random.default_rng(0))
        exposed = value_bit_mask(sent, codec)
        before, after = frame_bits(sent), frame_bits(received)
        assert exposed.any()
        # Header, counts, gains, gaps and padding arrive as sent.
        assert np.array_equal(after[~exposed], before[~exposed])
        if chan["kind"] == "bsc":
            assert np.array_equal(after[exposed], 1 - before[exposed])
        else:
            assert not after[exposed].any()

    @pytest.mark.parametrize("kind", ["bsc", "packet_loss", "ideal"])
    def test_wire_bytes_is_the_length_of_the_corrupted_sparse_frame(self, kind, monkeypatch):
        codec = CodecConfig("quantized_int", bitwidth=16)
        chan = dict(
            bsc=dict(kind="bsc", bit_error_rate=1e-2),
            packet_loss=dict(kind="packet_loss", packet_bits=100, packet_loss_prob=0.1),
            ideal={},
        )[kind]
        corrupted = []

        def spy(frame, cfg, rng):
            corrupted.append(len(frame))
            return corrupt_frame(frame, cfg, rng)

        monkeypatch.setattr(federated, "corrupt_frame", spy)
        rng = np.random.default_rng(0)
        hvs, labels = rng.standard_normal((60, 64)), rng.integers(0, 3, size=60)
        cfg = RoundConfig(num_clients=3, participation=1.0, rounds=2, seed=1)
        _, records = run_training(
            hvs, labels, hvs, labels, 3, partition_iid(60, 3, seed=1), cfg,
            ChannelConfig(codec=codec, **chan), StrategyConfig(kind="sparsify", sparsity=0.9),
        )
        if kind == "ideal":  # values bypass the codec; nothing corrupts the frame
            assert corrupted == []
        else:
            assert len(corrupted) == 6
            assert sum(r.uplink_bytes for r in records) == sum(corrupted)

    def test_wire_bytes_checks_the_frame_tag(self):
        codec = CodecConfig("float32")
        sparse = sparsify(model_for(np.random.default_rng(0), codec, 2, 9), 0.5)
        frame = serialize_sparse(sparse, codec)
        assert wire_bytes(frame, StrategyConfig(kind="sparsify", sparsity=0.5), codec) == len(frame)
        with pytest.raises(StrategyConfigError):
            wire_bytes(frame, StrategyConfig(), codec)
        with pytest.raises(TypeError):  # only serialized frames are sized
            wire_bytes(sparse, StrategyConfig(kind="sparsify", sparsity=0.5), codec)


STRATEGY_CASES = [
    StrategyConfig(),
    StrategyConfig(kind="binary_diff"),
    StrategyConfig(kind="subsample", rate=0.3),
    StrategyConfig(kind="sparsify", sparsity=0.8),
]
# Each strategy's server-side parser, at the name the uplink looks it up.
PARSERS = [
    (federated, "read_model_bytes"),
    (strategies, "deserialize_sign_matrix"),
    (strategies, "deserialize_subsample"),
    (strategies, "deserialize_sparse"),
]


def received_frame(model, cfg):
    """A model's HDFM frame as the bit channel delivers it to the parser."""
    return corrupt_frame(write_model_bytes(model, cfg.codec), cfg, np.random.default_rng(1))


class TestCountedBytesAreCorrupted:
    @pytest.mark.parametrize("codec", CODEC_CASES, ids=lambda c: f"{c.representation}{c.bitwidth}")
    def test_wire_bytes_is_the_length_of_the_corrupted_frame(self, codec):
        model = model_for(np.random.default_rng(0), codec, 3, 11)
        cfg = ChannelConfig(kind="bsc", bit_error_rate=1e-3, codec=codec)
        received = received_frame(model, cfg)
        assert len(received) == wire_bytes(write_model_bytes(model, codec), StrategyConfig(), codec)

    @pytest.mark.parametrize("codec", CODEC_CASES, ids=codec_id)
    @pytest.mark.parametrize("chan", SPARSE_CHANNEL_CASES, ids=channel_id)
    def test_codec_cases_match_unpacked_reference_on_every_channel(self, codec, chan):
        cfg = ChannelConfig(codec=codec, **chan)
        k, d = 3, 21
        model = model_for(np.random.default_rng(8), codec, k, d)
        tag = 0 if codec.representation == "float32" else 128 + codec.bitwidth
        expected_frame, values, gains = frame_header(k, d, tag), model.vectors, np.ones(k)
        if codec.representation == "quantized_int":
            values, gains = quantize_segments(values, np.full(k, d), codec.bitwidth)
            expected_frame += gains.astype("<f8").tobytes()
        bits = reference_bits(values, codec)
        sent = write_model_bytes(model, codec)
        assert sent == expected_frame + np.packbits(bits, bitorder="little").tobytes()
        got, _ = read_model_bytes(corrupt_frame(sent, cfg, np.random.default_rng(3)))
        arrived = reference_channel(bits, cfg, np.random.default_rng(3))
        assert same_bits(got.vectors, reference_values(arrived, codec).reshape(k, d) / gains[:, None])

    @pytest.mark.parametrize("codec", CODEC_CASES, ids=lambda c: f"{c.representation}{c.bitwidth}")
    def test_rate_one_flips_every_payload_bit_and_nothing_else(self, codec):
        k, d = 3, 11
        model = model_for(np.random.default_rng(2), codec, k, d)
        sent = write_model_bytes(model, codec)
        cfg = ChannelConfig(kind="bsc", bit_error_rate=1.0, codec=codec)
        received = received_frame(model, cfg)
        assert len(received) == len(sent)
        protected = HEADER_BYTES + (8 * k if codec.representation == "quantized_int" else 0)
        assert received[:protected] == sent[:protected]  # header and gains
        n_bits = k * d * codec.value_bits
        before = np.unpackbits(np.frombuffer(sent[protected:], dtype=np.uint8), bitorder="little")
        after = np.unpackbits(np.frombuffer(received[protected:], dtype=np.uint8), bitorder="little")
        assert np.array_equal(after[:n_bits], 1 - before[:n_bits])
        assert np.array_equal(after[n_bits:], before[n_bits:])  # padding untouched

    def test_all_packets_dropped_zero_only_the_payload(self):
        codec = CodecConfig("quantized_int", bitwidth=12)
        model = model_for(np.random.default_rng(4), codec, 2, 9)
        cfg = ChannelConfig(kind="packet_loss", packet_bits=13, packet_loss_prob=1.0, codec=codec)
        received = received_frame(model, cfg)
        protected = HEADER_BYTES + 8 * 2
        assert received[:protected] == write_model_bytes(model, codec)[:protected]
        assert not any(received[protected:])

    @pytest.mark.parametrize("strategy", STRATEGY_CASES, ids=lambda s: s.kind)
    @pytest.mark.parametrize(
        "chan",
        [
            dict(kind="bsc", bit_error_rate=0.01),
            dict(kind="packet_loss", packet_bits=13, packet_loss_prob=0.2),
        ],
        ids=["bsc", "packet_loss"],
    )
    def test_every_strategy_parses_the_counted_bytes_as_corrupted(self, strategy, chan, monkeypatch):
        counted, corrupted, arrived, parsed = [], [], [], []

        def spy(fn, log, out=None):
            """Log the bytes fn receives (and, with out, what it returns)."""

            def wrapped(*args, **kwargs):
                log.append(bytes(args[0]))
                result = fn(*args, **kwargs)
                if out is not None:
                    out.append(bytes(result))
                return result

            return wrapped

        monkeypatch.setattr(strategies, "wire_bytes", spy(strategies.wire_bytes, counted))
        monkeypatch.setattr(
            federated, "corrupt_frame", spy(federated.corrupt_frame, corrupted, out=arrived)
        )
        for module, name in PARSERS:
            monkeypatch.setattr(module, name, spy(getattr(module, name), parsed))
        rng = np.random.default_rng(0)
        hvs, labels = rng.standard_normal((60, 32)), rng.integers(0, 3, size=60)
        cfg = RoundConfig(num_clients=3, participation=1.0, rounds=2, seed=1)
        codec = CodecConfig("quantized_int", bitwidth=9)
        _, records = run_training(
            hvs, labels, hvs, labels, 3, partition_iid(60, 3, seed=1), cfg,
            ChannelConfig(codec=codec, **chan), strategy,
        )
        assert len(counted) == 6
        assert corrupted == counted
        assert parsed == arrived
        assert [len(p) for p in parsed] == [len(c) for c in counted]
        assert sum(r.uplink_bytes for r in records) == sum(len(c) for c in counted)


class TestParsersFailClosed:
    def sign_frame(self):
        signs = np.where(np.random.default_rng(0).random((3, 20)) < 0.5, 1.0, -1.0)
        return serialize_sign_matrix(signs)

    def sparse_frame(self, codec):
        values = np.random.default_rng(1).standard_normal((3, 30))
        return serialize_sparse(sparsify(ClassPrototypes(values), 0.5), codec)

    def subsample_frame(self, codec):
        model = ClassPrototypes(np.random.default_rng(2).standard_normal((3, 30)))
        indices, values = subsample(model, 0.4, np.random.default_rng(0))
        return serialize_subsample(SubsamplePayload(9, indices, values, (3, 30)), codec)

    @pytest.mark.parametrize(
        "codec",
        [CodecConfig("float32"), CodecConfig("quantized_int", bitwidth=5)],
        ids=["float32", "quantized5"],
    )
    def test_every_truncation_of_a_subsample_frame(self, codec):
        blob = self.subsample_frame(codec)
        assert deserialize_subsample(blob, codec, seed=0, shape=(3, 30)).values.size == 36
        for cut in range(len(blob)):
            with pytest.raises(SparseFormatError):
                deserialize_subsample(blob[:cut], codec, seed=0, shape=(3, 30))

    def test_subsample_count_above_model_size_rejected(self):
        codec = CodecConfig("float32")
        blob = self.subsample_frame(codec)
        with pytest.raises(SparseFormatError):
            blob = frame_header(3, 10, TAG_SUBSAMPLE) + blob[HEADER_BYTES:]
            deserialize_subsample(blob, codec, 0, (3, 10))

    @pytest.mark.parametrize("gain", [0.0, -1.0, np.inf, np.nan])
    def test_subsample_bad_gain_rejected(self, gain):
        codec = CodecConfig("quantized_int", bitwidth=8)
        blob = bytearray(self.subsample_frame(codec))
        struct.pack_into("<d", blob, HEADER_BYTES + 12, gain)
        with pytest.raises(SparseFormatError):
            deserialize_subsample(bytes(blob), codec, seed=0, shape=(3, 30))

    @pytest.mark.parametrize(
        "codec",
        [CodecConfig("float32"), CodecConfig("quantized_int", bitwidth=5)],
        ids=["float32", "quantized5"],
    )
    @pytest.mark.parametrize("kind", ["model", "sign", "subsample", "sparse"])
    def test_a_byte_past_the_frame_rejected(self, kind, codec):
        model = ClassPrototypes(np.random.default_rng(3).standard_normal((3, 30)))
        partial = functools.partial
        blob, parse, error = {
            "model": (write_model_bytes(model, codec), read_model_bytes, CodecError),
            "sign": (
                self.sign_frame(), partial(deserialize_sign_matrix, shape=(3, 20)),
                SparseFormatError,
            ),
            "subsample": (
                self.subsample_frame(codec),
                partial(deserialize_subsample, codec=codec, seed=0, shape=(3, 30)),
                SparseFormatError,
            ),
            "sparse": (
                self.sparse_frame(codec), partial(deserialize_sparse, codec=codec, shape=(3, 30)),
                SparseFormatError,
            ),
        }[kind]
        parse(blob)
        for extra in (b"\x00", b"\xff"):
            with pytest.raises(error):
                parse(blob + extra)

    def test_truncated_sign_frame_header(self):
        with pytest.raises(SparseFormatError):
            deserialize_sign_matrix(self.sign_frame()[:10], (3, 20))

    def test_truncated_sign_frame_payload(self):
        with pytest.raises(SparseFormatError):
            deserialize_sign_matrix(self.sign_frame()[:-1], (3, 20))

    @pytest.mark.parametrize(
        "codec",
        [CodecConfig("float32"), CodecConfig("quantized_int", bitwidth=5)],
        ids=["float32", "quantized5"],
    )
    def test_every_truncation_of_a_sparse_frame(self, codec):
        blob = self.sparse_frame(codec)
        deserialize_sparse(blob, codec, (3, 30))
        for cut in range(len(blob)):
            with pytest.raises(SparseFormatError):
                deserialize_sparse(blob[:cut], codec, (3, 30))

    @pytest.mark.parametrize("index", [10, 1000])
    def test_sparse_index_beyond_d_rejected(self, index):
        codec = CodecConfig("float32")
        sparse = SparseClassModel(
            np.array([index, 2]), np.ones(2), np.array([1, 1]), (2, 2000)
        )
        blob = serialize_sparse(sparse, codec)
        shrunk = frame_header(2, 10, TAG_SPARSE) + blob[HEADER_BYTES:]
        with pytest.raises(SparseFormatError):
            deserialize_sparse(shrunk, codec, (2, 10))

    @pytest.mark.parametrize("k,d", [(3, 31), (3, 2**31), (2**20, 30), (2, 30)])
    def test_sparse_frame_of_another_shape_rejected_before_allocation(self, k, d):
        # A header d mutated upward once parsed into a model whose dense form
        # needs K x d floats; the parser now takes the broadcast model's shape.
        blob = frame_header(k, d, TAG_SPARSE) + self.sparse_frame(CodecConfig())[HEADER_BYTES:]
        tracemalloc.start()
        try:
            with pytest.raises(SparseFormatError, match="declares"):
                deserialize_sparse(blob, CodecConfig(), (3, 30))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("k,d", [(3, 31), (3, 2**31), (2**20, 30), (2, 30)])
    @pytest.mark.parametrize("which", ["model", "subsample", "sign"])
    def test_frame_of_another_shape_rejected_before_allocation(self, which, k, d):
        # A re-headed frame once parsed into a model of its declared shape,
        # or failed only in the server's fold; every server-side parser now
        # takes the broadcast model's shape.
        codec, shape = CodecConfig("quantized_int", bitwidth=16), (3, 30)
        values = np.random.default_rng(2).standard_normal(shape)
        if which == "model":
            blob = write_model_bytes(ClassPrototypes(values), codec)
            parse = functools.partial(read_model_bytes, shape=shape)
        elif which == "subsample":
            blob = self.subsample_frame(codec)
            parse = functools.partial(deserialize_subsample, codec=codec, seed=0, shape=shape)
        else:
            blob = serialize_sign_matrix(np.where(values >= 0.0, 1.0, -1.0))
            parse = functools.partial(deserialize_sign_matrix, shape=shape)
        error = CodecError if which == "model" else SparseFormatError
        parse(blob)
        blob = frame_header(k, d, blob[HEADER_BYTES - 1]) + blob[HEADER_BYTES:]
        tracemalloc.start()
        try:
            with pytest.raises(error, match="expected 3 x 30"):
                parse(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_sparse_count_above_d_rejected(self):
        codec = CodecConfig("float32")
        sparse = SparseClassModel(
            np.r_[np.arange(5), 0], np.ones(6), np.array([5, 1]), (2, 10)
        )
        blob = serialize_sparse(sparse, codec)
        with pytest.raises(SparseFormatError):
            deserialize_sparse(frame_header(2, 3, TAG_SPARSE) + blob[HEADER_BYTES:], codec, (2, 3))

    @pytest.mark.parametrize("gain", [0.0, -1.0, np.inf, np.nan])
    def test_sparse_bad_gain_rejected(self, gain):
        codec = CodecConfig("quantized_int", bitwidth=8)
        blob = bytearray(self.sparse_frame(codec))
        struct.pack_into("<d", blob, HEADER_BYTES + 4, gain)  # first class gain
        with pytest.raises(SparseFormatError):
            deserialize_sparse(bytes(blob), codec, (3, 30))

    @pytest.mark.parametrize("gain", [0.0, -1.0, np.inf, np.nan])
    def test_model_frame_bad_gain_rejected(self, gain):
        codec = CodecConfig("quantized_int", bitwidth=12)
        blob = bytearray(write_model_bytes(model_for(np.random.default_rng(2), codec, 2, 7), codec))
        struct.pack_into("<d", blob, HEADER_BYTES + 8, gain)  # second class gain
        with pytest.raises(CodecError):
            read_model_bytes(bytes(blob))

    def test_model_frame_overflow_decodes_as_zero(self):
        codec = CodecConfig("quantized_int", bitwidth=16)
        model = ClassPrototypes(np.random.default_rng(3).standard_normal((3, 7)))
        blob = bytearray(write_model_bytes(model, codec))
        sent, _ = read_model_bytes(bytes(blob))
        struct.pack_into("<d", blob, HEADER_BYTES, 1e-310)  # first class gain
        got, _ = read_model_bytes(bytes(blob))
        assert same_bits(got.vectors[0], np.zeros(7))
        assert same_bits(got.vectors[1:], sent.vectors[1:])
        # A gain that small is legal: the quantizer writes it for a row near float max.
        tiny = ClassPrototypes(np.array([[1.7e308, -1.0], [1.0, 2.0]]))
        got, _ = read_model_bytes(write_model_bytes(tiny, CodecConfig("quantized_int", bitwidth=2)))
        assert got.vectors[0, 0] == pytest.approx(1.7e308, rel=1e-12) and got.vectors[0, 1] == 0.0

    def test_subsample_overflow_decodes_as_zero(self):
        codec = CodecConfig("quantized_int", bitwidth=16)
        blob = bytearray(self.subsample_frame(codec))
        struct.pack_into("<d", blob, HEADER_BYTES + 12, 1e-310)
        got = deserialize_subsample(bytes(blob), codec, seed=0, shape=(3, 30))
        assert same_bits(got.values, np.zeros(36))

    def test_sparse_overflow_decodes_as_zero(self):
        codec = CodecConfig("quantized_int", bitwidth=16)
        blob = bytearray(self.sparse_frame(codec))
        sent = deserialize_sparse(bytes(blob), codec, (3, 30))
        struct.pack_into("<d", blob, HEADER_BYTES + 4, 1e-310)  # first class gain
        got = by_class(deserialize_sparse(bytes(blob), codec, (3, 30)))[1]
        assert same_bits(got[0], np.zeros(15))
        assert same_bits(np.concatenate(got[1:]), np.concatenate(by_class(sent)[1][1:]))

    @given(
        codec=st.sampled_from(CODEC_CASES),
        seed=st.integers(0, 2**32 - 1),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(["set", "truncate", "append"]),
                st.one_of(st.integers(0, 48), st.integers(0, 2**16)),  # headers and gains first
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(  # zeroes the top byte of the first class gain
        codec=CodecConfig("quantized_int", bitwidth=16),
        seed=1,
        mutations=[("set", HEADER_BYTES + 4 + 7, 0)],
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_sparse_frames_raise_or_parse_finite(self, codec, seed, mutations):
        model = sparse_input(np.random.default_rng(seed), codec, 3, 20, "continuous")
        blob = bytearray(serialize_sparse(sparsify(model, 0.5), codec))
        for kind, pos, byte in mutations:
            if kind == "set" and blob:
                blob[pos % len(blob)] = byte
            elif kind == "truncate":
                del blob[pos % (len(blob) + 1) :]
            elif kind == "append":
                blob += bytes([byte]) * (1 + pos % 8)
        try:
            parsed = deserialize_sparse(bytes(blob), codec, (3, 20))
        except SparseFormatError:
            return
        assert np.all(np.isfinite(parsed.values))

    def test_huge_declared_model_rejected_before_allocation(self):
        blob = frame_header(4_000_000_000, 10, 128 + 16) + bytes(100)
        with pytest.raises(CodecError):
            read_model_bytes(blob)

    def test_every_truncation_of_a_model_frame(self):
        codec = CodecConfig("quantized_int", bitwidth=12)
        blob = write_model_bytes(model_for(np.random.default_rng(2), codec, 3, 7), codec)
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                read_model_bytes(blob[:cut])

    @given(
        which=st.sampled_from(["model", "sparse", "sign", "subsample"]),
        edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=6),
        cut=st.integers(0, 10_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_frames_parse_or_raise_their_own_error(self, which, edits, cut):
        codec = CodecConfig("quantized_int", bitwidth=11)
        if which == "model":
            blob = write_model_bytes(model_for(np.random.default_rng(3), codec, 3, 9), codec)
            parse, error = read_model_bytes, CodecError
        elif which == "sparse":
            blob = self.sparse_frame(codec)
            parse, error = (lambda b: deserialize_sparse(b, codec, (3, 30))), SparseFormatError
        elif which == "sign":
            blob = self.sign_frame()
            parse = functools.partial(deserialize_sign_matrix, shape=(3, 20))
            error = SparseFormatError
        else:
            blob = self.subsample_frame(codec)
            parse = functools.partial(deserialize_subsample, codec=codec, seed=0, shape=(3, 30))
            error = SparseFormatError
        mutated = bytearray(blob)
        for pos, value in edits:
            mutated[pos % len(mutated)] = value
        try:
            with np.errstate(all="ignore"):  # hostile gains may divide by zero
                parse(bytes(mutated[: len(mutated) - cut % 4]))
        except error:
            pass


class TestSubsampleStreamKey:
    def test_key_layout_unchanged(self):
        assert subsample_stream_key(3, 5) == (3 << 20) | 5
        assert subsample_stream_key(2**44 - 1, 2**20 - 1) == 2**64 - 1

    def test_client_id_bound(self):
        with pytest.raises(StrategyConfigError):
            subsample_stream_key(0, 2**20)
        with pytest.raises(StrategyConfigError):
            subsample_stream_key(0, -1)

    def test_round_bound(self):
        with pytest.raises(StrategyConfigError):
            subsample_stream_key(2**44, 0)
        with pytest.raises(StrategyConfigError):
            subsample_stream_key(-1, 0)

    def test_keys_distinct_across_the_valid_range(self):
        keys = {subsample_stream_key(t, c) for t in (0, 1, 2**43) for c in (0, 1, 2**19, 2**20 - 1)}
        assert len(keys) == 12


# (offset, struct format) of each count a parser reads from its header.
HDFM_COUNTS = [(5, "<I"), (9, "<I")]  # K, d
SUBSAMPLE_COUNTS = HDFM_COUNTS + [(HEADER_BYTES + 8, "<I")]  # and the value count
HDDS_COUNTS = [(5, "<I"), (9, "<I"), (13, "<I")]  # n, m, K


class TestParserMutationFuzz:
    """Model frames, sign and subsample frames and HDDS datasets with
    truncations, header bit flips, inflated counts and appended bytes (which
    can back an inflated count): each parser raises its own error or parses
    finite values of the shape the input declares. It never surfaces another
    error, numpy's included, and never allocates more than the input's bytes
    can describe. Appended bytes alone always raise."""

    @staticmethod
    def source(which, codec, rng):
        """The input bytes, its counts, its parser and its own error."""
        if which == "model":
            blob = write_model_bytes(model_for(rng, codec, 3, 200), codec)
            return blob, HDFM_COUNTS, read_model_bytes, CodecError
        if which == "sign":
            blob = serialize_sign_matrix(np.where(rng.random((3, 200)) < 0.5, 1.0, -1.0))
            parse = functools.partial(deserialize_sign_matrix, shape=(3, 200))
            return blob, HDFM_COUNTS, parse, SparseFormatError
        if which == "subsample":
            model = ClassPrototypes(rng.standard_normal((3, 200)))
            indices, values = subsample(model, 0.4, rng)
            blob = serialize_subsample(SubsamplePayload(9, indices, values, (3, 200)), codec)
            parse = functools.partial(deserialize_subsample, codec=codec, seed=0, shape=(3, 200))
            return blob, SUBSAMPLE_COUNTS, parse, SparseFormatError
        features = rng.standard_normal((40, 6)).astype(np.float32)
        head = HDDS_MAGIC + struct.pack("<BIIIB", HDDS_VERSION, 40, 6, 5, 1)
        blob = head + features.tobytes() + rng.integers(0, 5, 40).astype("<u2").tobytes()
        return blob, HDDS_COUNTS, None, DataFormatError

    @staticmethod
    def check(which, blob, parsed):
        """The parsed values are finite and of the declared shape."""
        if which == "hdds":
            n, m, k = struct.unpack_from("<III", blob, 5)
            assert parsed.features.shape == (n, m) and np.all(np.isfinite(parsed.features))
            assert np.all((parsed.labels >= 0) & (parsed.labels < k))
        elif which == "model":
            model, _ = parsed
            assert model.vectors.shape == struct.unpack_from("<II", blob, 5)
            assert np.all(np.isfinite(model.vectors))
        elif which == "sign":
            assert parsed.shape == (3, 200) and np.all(np.abs(parsed) == 1.0)
        else:
            (count,) = struct.unpack_from("<I", blob, HEADER_BYTES + 8)
            assert parsed.values.shape == parsed.indices.shape == (count,)
            assert np.all(np.isfinite(parsed.values))
            assert np.all((parsed.indices >= 0) & (parsed.indices < 600))

    @given(
        which=st.sampled_from(["model", "sign", "subsample", "hdds"]),
        codec=CODECS,
        seed=st.integers(0, 2**32 - 1),
        mutations=st.lists(
            st.one_of(
                st.tuples(st.just("truncate"), st.integers(0, 2**16)),
                st.tuples(st.just("flip"), st.integers(0, 40), st.integers(0, 7)),
                st.tuples(
                    st.just("inflate"),
                    st.integers(0, 2),
                    st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([2**32 - 1, 2**31, 601])),
                ),
                st.tuples(st.just("append"), st.integers(1, 4096), st.integers(0, 255)),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_inputs_raise_their_own_error_or_parse_finite(
        self, which, codec, seed, mutations, tmp_path_factory
    ):
        blob, counts, parse, error = self.source(which, codec, np.random.default_rng(seed))
        blob = bytearray(blob)
        for kind, pos, *rest in mutations:
            if kind == "truncate":
                del blob[pos % (len(blob) + 1) :]
            elif kind == "flip" and pos < len(blob):
                blob[pos] ^= 1 << rest[0]
            elif kind == "inflate":
                offset, fmt = counts[pos % len(counts)]
                if offset + struct.calcsize(fmt) <= len(blob):
                    struct.pack_into(fmt, blob, offset, rest[0])
            elif kind == "append":
                blob += bytes([rest[0]]) * pos
        blob = bytes(blob)
        if parse is None:
            path = tmp_path_factory.mktemp("hdds") / "mutated.hdds"
            path.write_bytes(blob)
            parse = lambda _: load_binary(str(path))
        tracemalloc.start()
        try:
            parsed = parse(blob)
        except error:
            parsed = None
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < (1 << 16) + 512 * len(blob)
        if all(kind == "append" for kind, *_ in mutations):
            assert parsed is None  # no parser reads past what the input declares
        if parsed is not None:
            self.check(which, blob, parsed)
