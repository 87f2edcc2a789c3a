"""Uplink size reduction: binarized differences, subsampling, sparsification.

Three interchangeable client-to-server payloads, each with its own frame
codec (serialize_*/deserialize_*), plus exact wire-size accounting. Every
serializer returns a channel.Frame, so a bit channel corrupts exactly the
bytes counted on the uplink and the server parses what arrives:

* binary_diff: one sign bit per parameter of (local - broadcast), every bit
  exposed; the server sums the signs as they arrive and adds the sum onto
  the previous global model.
* subsample: a random fraction of parameter positions; only the values
  travel, exposed, after a 64-bit stream key from which the server
  regenerates the index set.
* sparsify: the smallest-magnitude fraction of each class row is zeroed and
  the survivors ship as gap-encoded (index distance, value) pairs; only the
  value bits of the pairs are exposed. Every stage reads and writes one
  flat layout, SparseClassModel, whose constructor is the one check of a
  sparse model's layout; the frame parser checks only the frame structure.

Strategy none sends the HDFM model frame (channel.write_model_bytes).
Payload frames reuse the HDFM header (magic, version, K, d, tag byte) with
tag values outside the codec range, so every uplink message remains
self-describing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .channel import (
    HEADER_BYTES,
    CodecConfig,
    Frame,
    codec_tag,
    decode_values,
    encode_values,
    frame_header,
    pack_words,
    parse_frame_header,
    quantize_segments,
    scale_down,
    unpack_words,
    value_type,
    value_words,
    words_to_values,
)
from .hdc import ClassPrototypes, DimensionError
from .seeding import STREAM_STRATEGY, derived_rng

_STRATEGY_KINDS = ("none", "binary_diff", "subsample", "sparsify")

TAG_BINARY_DIFF = 64
TAG_SUBSAMPLE = 65
TAG_SPARSE = 66


class StrategyConfigError(ValueError):
    """Strategy configuration is malformed."""


class SparseFormatError(ValueError):
    """A sparse payload violates its index invariants."""


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = "none"
    rate: float | None = None  # subsample keep-fraction
    sparsity: float | None = None  # fraction zeroed
    step: float = 1.0  # binary_diff server step multiplier

    def __post_init__(self) -> None:
        if self.kind not in _STRATEGY_KINDS:
            raise StrategyConfigError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "subsample":
            if self.rate is None or not 0.0 < self.rate <= 1.0:
                raise StrategyConfigError(f"subsample rate must be in (0, 1], got {self.rate}")
        elif self.rate is not None:
            raise StrategyConfigError("rate applies only to the subsample strategy")
        if self.kind == "sparsify":
            if self.sparsity is None or not 0.0 <= self.sparsity < 1.0:
                raise StrategyConfigError(f"sparsity must be in [0, 1), got {self.sparsity}")
        elif self.sparsity is not None:
            raise StrategyConfigError("sparsity applies only to the sparsify strategy")
        if self.step <= 0.0:
            raise StrategyConfigError(f"step must be positive, got {self.step}")


@dataclass
class SubsamplePayload:
    """Sampled flat positions and their values for a (K, d) model."""

    stream_key: int
    indices: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]


@dataclass
class SparseClassModel:
    """Surviving (index, value) pairs of a (K, d) model in one CSR layout:
    class r holds the lengths[r] pairs after the first r classes'. The
    constructor is the one layout check: it raises SparseFormatError, naming
    the first bad class, unless lengths holds one non-negative length per
    class, indices and values are both lengths.sum() long, and each class's
    indices are strictly increasing within [0, d)."""

    indices: np.ndarray  # int64, flat
    values: np.ndarray  # float64, flat
    lengths: np.ndarray  # pairs per class
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        k, d = self.shape
        if self.lengths.shape != (k,):
            raise SparseFormatError(f"{self.lengths.size} pair lengths for {k} classes")
        held = min(self.indices.size, self.values.size)
        ends = np.cumsum(self.lengths)
        short = np.flatnonzero((self.lengths < 0) | (ends > held))
        if short.size or not self.indices.shape == self.values.shape == (self.lengths.sum(),):
            raise SparseFormatError(f"class {short[0] if short.size else k - 1}: wrong pair count")
        floor = np.concatenate([[-1], self.indices[:-1]])
        floor[(ends - self.lengths)[self.lengths > 0]] = -1
        bad = (self.indices <= floor) | (self.indices >= d)
        if bad.any():
            row = np.searchsorted(ends, bad.argmax(), side="right")
            raise SparseFormatError(f"class {row}: index outside [0, {d}) or not increasing")


# ---------------------------------------------------------------------------
# Binarized differential transmission


def diff_binarize(new_model: ClassPrototypes, old_model: ClassPrototypes) -> np.ndarray:
    """Element-wise sign of (new - old), with sign(0) = +1.

    The +1 convention at zero keeps the alphabet strictly one bit.
    """
    if new_model.vectors.shape != old_model.vectors.shape:
        raise DimensionError("model shapes differ")
    diff = new_model.vectors - old_model.vectors
    return np.where(diff >= 0.0, 1.0, -1.0)


def diff_fold(total: np.ndarray, signs: np.ndarray) -> None:
    """Add one client's sign matrix onto a round's running sum, in place."""
    if signs.shape != total.shape:
        raise DimensionError("sign matrix shape differs from global model")
    total += signs


def diff_apply(
    global_model: ClassPrototypes, total: np.ndarray, step: float = 1.0
) -> ClassPrototypes:
    """Add the summed client sign matrices (diff_fold) onto the global model.

    Each client moves each parameter by one step unit; a sum that no client
    added to leaves the global model unchanged.
    """
    if total.shape != global_model.vectors.shape:
        raise DimensionError("sign matrix shape differs from global model")
    return ClassPrototypes(global_model.vectors + step * total)


# ---------------------------------------------------------------------------
# Subsampling


def subsample(
    model: ClassPrototypes, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pick round(rate * K * d) flat parameter positions uniformly.

    Returns sorted flat indices and the values at those positions. The
    selection is independent per call, which is what makes averaging many
    subsamples an unbiased estimate of the model.
    """
    if not 0.0 < rate <= 1.0:
        raise StrategyConfigError(f"rate must be in (0, 1], got {rate}")
    total = model.vectors.size
    indices = _subsample_indices(total, int(round(rate * total)), rng)
    return indices, model.vectors.reshape(-1)[indices].copy()


def _subsample_indices(total: int, keep: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(total, size=keep, replace=False))


def subsample_stream_key(round_index: int, client_id: int) -> int:
    """64-bit subsample index-stream key: the round in the high 44 bits and
    the client in the low 20, so no two valid pairs share a key."""
    if not (0 <= client_id < 2**20 and 0 <= round_index < 2**44):
        raise StrategyConfigError(f"round {round_index} or client {client_id} overflows its field")
    return (round_index << 20) | client_id


def subsample_fold(
    sums: np.ndarray, hits: np.ndarray, indices: np.ndarray, values: np.ndarray
) -> None:
    """Add one client's report onto a round's running per-position sums and
    report counts (flat, K * d long), in place."""
    if indices.shape != values.shape:
        raise DimensionError("indices and values must align")
    np.add.at(sums, indices, values)
    np.add.at(hits, indices, 1)


def subsample_aggregate(
    sums: np.ndarray, hits: np.ndarray, prev_global: ClassPrototypes
) -> ClassPrototypes:
    """Average the reports per position (subsample_fold's sums over its
    counts); unreported positions keep the previous global value."""
    shape = prev_global.vectors.shape
    merged = prev_global.vectors.reshape(-1).copy()
    reported = hits > 0
    merged[reported] = sums[reported] / hits[reported]
    return ClassPrototypes(merged.reshape(shape))


# ---------------------------------------------------------------------------
# Sparsification and compressed storage


def sparsify(model: ClassPrototypes, sparsity: float) -> SparseClassModel:
    """Zero the round(S * d) smallest-magnitude entries of each class row.

    Ties zero the lowest index first. Only surviving non-zero entries are
    stored; incidental zeros also vanish since they decompress to zero anyway.
    """
    if not 0.0 <= sparsity < 1.0:
        raise StrategyConfigError(f"sparsity must be in [0, 1), got {sparsity}")
    k, d = model.vectors.shape
    n_zero = int(round(sparsity * d))
    magnitudes = np.abs(model.vectors)
    threshold = np.zeros(k)  # without n_zero, every non-zero entry survives
    if n_zero:
        threshold = np.partition(magnitudes, n_zero - 1, axis=1)[:, n_zero - 1]
    keep = magnitudes > threshold[:, None]
    flat = np.flatnonzero(keep)
    lengths = np.diff(np.searchsorted(flat, np.arange(k + 1) * d))
    # More ties at a non-zero threshold than room: the lowest-index ones go.
    crowded = np.flatnonzero((lengths < d - n_zero) & (threshold > 0.0))
    if crowded.size:
        rows, level = magnitudes[crowded], threshold[crowded, None]
        ties = rows == level
        room = n_zero - np.count_nonzero(rows < level, axis=1, keepdims=True)
        keep[crowded] |= ties & (np.cumsum(ties, axis=1) > room)
        flat, lengths = np.flatnonzero(keep), np.count_nonzero(keep, axis=1)
    values = model.vectors.reshape(-1)[flat]
    indices = flat - np.repeat(np.arange(k) * d, lengths)
    return SparseClassModel(indices, values, lengths, (k, d))


def csc_decompress(sparse: SparseClassModel) -> ClassPrototypes:
    """Rebuild the dense post-sparsification model, bit for bit, with one
    scatter through the flat positions row * d + index. The pairs need no
    check here: SparseClassModel validated its layout when it was built.
    """
    k, d = sparse.shape
    vectors = np.zeros((k, d))
    vectors.reshape(-1)[np.repeat(np.arange(k) * d, sparse.lengths) + sparse.indices] = sparse.values
    return ClassPrototypes(vectors)


# ---------------------------------------------------------------------------
# Wire formats and exact size accounting


def serialize_sign_matrix(signs: np.ndarray) -> Frame:
    """One bit per parameter (1 encodes +1), row-major, after the frame header."""
    k, d = signs.shape
    bits = np.packbits(signs.reshape(-1) > 0, bitorder="little")
    return Frame.tail(frame_header(k, d, TAG_BINARY_DIFF) + bits.tobytes(), k * d, 1)


def deserialize_sign_matrix(blob: bytes, shape: tuple[int, int]) -> np.ndarray:
    """Parse a sign frame of a `shape` (K, d) model; it must end where its bits do."""
    k, d, _ = parse_frame_header(blob, SparseFormatError, TAG_BINARY_DIFF, shape)
    if len(blob) != HEADER_BYTES + -(-k * d // 8):
        raise SparseFormatError(f"sign frame of {len(blob)} bytes does not hold {k} x {d} bits")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=HEADER_BYTES)
    bits = np.unpackbits(payload, count=k * d, bitorder="little")
    return np.where(bits == 1, 1.0, -1.0).reshape(k, d)


def serialize_subsample(payload: SubsamplePayload, codec: CodecConfig) -> Frame:
    """Header, 64-bit index-stream key, 32-bit count, for scaled integers
    the block's 8-byte gain, then the values.

    The server regenerates the index set from the key, so the index overhead
    is constant regardless of the keep rate.
    """
    k, d = payload.shape
    head = frame_header(k, d, TAG_SUBSAMPLE)
    head += struct.pack("<QI", payload.stream_key, payload.values.size)
    values = payload.values
    if codec.representation == "quantized_int":
        values, gains = quantize_segments(values, [values.size], codec.bitwidth)
        head += struct.pack("<d", gains[0])
    data = head + encode_values(values, codec).tobytes()
    return Frame.tail(data, payload.values.size, codec.value_bits)


def deserialize_subsample(
    blob: bytes, codec: CodecConfig, seed: int, shape: tuple[int, int]
) -> SubsamplePayload:
    """Parse a subsample frame of a `shape` (K, d) model. The indices are
    regenerated from the run seed and the frame's stream key, the draw the
    client made.

    Raises SparseFormatError on a frame that declares another shape, a
    truncated frame or bytes past its values, a count above K * d or a
    non-positive or non-finite gain, before allocating anything the blob
    cannot hold.
    """
    k, d, _ = parse_frame_header(blob, SparseFormatError, TAG_SUBSAMPLE, shape)
    quantized = codec.representation == "quantized_int"
    offset = HEADER_BYTES + 12 + (8 if quantized else 0)
    if len(blob) < offset:
        raise SparseFormatError(f"subsample frame of {len(blob)} bytes is truncated")
    key, count = struct.unpack_from("<QI", blob, HEADER_BYTES)
    gain = struct.unpack_from("<d", blob, HEADER_BYTES + 12)[0] if quantized else 1.0
    size = offset + -(-count * codec.value_bits // 8)
    if count > k * d or len(blob) != size or not (gain > 0.0 and np.isfinite(gain)):
        raise SparseFormatError(f"subsample frame: bad count {count}, gain {gain} or size {size}")
    values = decode_values(np.frombuffer(blob, dtype=np.uint8, offset=offset), codec, count)
    if quantized:
        values = scale_down(values, gain)
    rng = derived_rng(seed, STREAM_STRATEGY, key >> 20, key & (2**20 - 1))
    return SubsamplePayload(key, _subsample_indices(k * d, count, rng), values, (k, d))


def serialize_sparse(sparse: SparseClassModel, codec: CodecConfig) -> Frame:
    """Per class: a 32-bit count, then (gap, value) pairs.

    The gap is the index distance from the previous stored index minus one,
    as 32 bits; the value follows at the codec width. Pairs are packed back
    to back and each class block pads to a byte boundary. Scaled-integer
    codecs prefix each non-empty class block with its 8-byte gain. All
    classes are quantized and packed in one pass, values with a value_type
    as (gap, value) records; the frame exposes the value bits of its pairs.
    """
    k, d = sparse.shape
    lengths, indices, values = sparse.lengths, sparse.indices, sparse.values
    quantized = codec.representation == "quantized_int"
    gains = np.ones(lengths.size)
    if quantized:
        values, gains = quantize_segments(values, lengths, codec.bitwidth)
    gaps = indices - 1
    gaps[1:] -= indices[:-1]
    firsts = (np.cumsum(lengths) - lengths)[lengths > 0]
    gaps[firsts] = indices[firsts]
    words = value_words(values, codec)
    width = 32 + codec.value_bits
    if value_type(codec) is None:
        blocks = pack_words(gaps.astype(np.uint64) | (words << np.uint64(32)), width, lengths)
    else:
        pairs = np.empty(gaps.size, [("gap", "<u4"), ("value", f"<u{codec.value_bits // 8}")])
        pairs["gap"], pairs["value"] = gaps, words
        blocks = pairs.view(np.uint8)
    sizes = -(-lengths * width // 8)
    ends = np.cumsum(sizes).tolist()
    out = [frame_header(k, d, TAG_SPARSE)]
    for count, gain, end, size in zip(lengths.tolist(), gains.tolist(), ends, sizes.tolist()):
        head = struct.pack("<Id", count, gain)  # the gain goes only before quantized pairs
        out += [head if count and quantized else head[:4], blocks[end - size : end]]
    starts = HEADER_BYTES + np.cumsum(4 + 8 * (quantized & (lengths > 0)) + sizes) - sizes
    return Frame(b"".join(out), starts, lengths, width, codec.value_bits)


def deserialize_sparse(blob: bytes, codec: CodecConfig, shape: tuple[int, int]) -> SparseClassModel:
    """Parse a sparse frame of a `shape` (K, d) model into indices and values.

    Raises SparseFormatError on a frame that declares another shape, a
    truncated frame or bytes past its last class, a count above d or a
    non-positive or non-finite gain, before allocating anything the blob
    cannot hold; an index the gaps carry outside [0, d) fails the
    SparseClassModel layout check. Values with a value_type are read as
    (gap, value) records.
    """
    k, d, _ = parse_frame_header(blob, SparseFormatError, TAG_SPARSE, shape)
    if len(blob) < HEADER_BYTES + 4 * k:
        raise SparseFormatError(f"sparse frame of {len(blob)} bytes cannot hold {k} classes")
    width = 32 + codec.value_bits
    kind = value_type(codec)
    counts, gains, blocks = [], [], []
    offset = HEADER_BYTES
    try:
        for row in range(k):
            (count,), gain = struct.unpack_from("<I", blob, offset), 1.0
            offset += 4
            if count and codec.representation == "quantized_int":
                (gain,) = struct.unpack_from("<d", blob, offset)
                offset += 8
            n_bytes = -(-count * width // 8)
            bad_gain = not 0.0 < gain < np.inf  # NaN fails too
            if count > d or bad_gain or len(blob) < offset + n_bytes:
                raise SparseFormatError(f"class {row}: bad count {count} or gain {gain}")
            counts.append(count)
            gains.append(gain)
            blocks.append(np.frombuffer(blob, np.uint8, n_bytes, offset))
            offset += n_bytes
    except struct.error:
        raise SparseFormatError(f"sparse frame truncated at byte {offset}") from None
    if offset != len(blob):
        raise SparseFormatError(f"sparse frame has {len(blob) - offset} bytes past its last class")
    counts = np.array(counts, dtype=np.int64)
    pairs = np.concatenate(blocks or [np.empty(0, np.uint8)])
    if kind is None:  # as uint64 words: the gap in the low 32 bits, then the value
        pairs, kind = unpack_words(pairs, int(counts.sum()), width, counts), "<u4"
    pairs = pairs.view([("gap", "<u4"), ("value", kind)])
    steps = np.cumsum(pairs["gap"].astype(np.int64) + 1)
    before = np.concatenate([[0], steps])[np.cumsum(counts) - counts]
    indices = steps - np.repeat(before, counts) - 1
    values = words_to_values(pairs["value"], codec)
    if codec.representation == "quantized_int":
        values = scale_down(values, np.repeat(gains, counts))
    return SparseClassModel(indices, values, counts, (k, d))


_FRAME_TAGS = dict(binary_diff=TAG_BINARY_DIFF, subsample=TAG_SUBSAMPLE, sparsify=TAG_SPARSE)


def wire_bytes(frame: Frame, strategy: StrategyConfig, codec: CodecConfig) -> int:
    """Exact uplink size of a serialized frame, headers and metadata
    included, after checking that its tag is the strategy's."""
    parse_frame_header(frame, StrategyConfigError, _FRAME_TAGS.get(strategy.kind, codec_tag(codec)))
    return len(frame)
