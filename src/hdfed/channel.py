"""Unreliable uplink models and the model bit codec.

One function per corruption concept:

* corrupt_values: a raw channel on parameter values. ideal passes them
  through as they are; awgn adds white Gaussian noise at a target SNR
  (uncoded transmission). apply_channel is the same on a whole model, and
  corrupt_signs on a +/-1 matrix, whose signal power is one per entry.
* corrupt_frame: the one bit channel, on serialized frames. bsc flips
  independent bits; packet_loss erases whole packets with zero-fill.
* quantize_segments: the one scale-up / truncate quantizer, a gain per
  segment; every parser divides it out again with scale_down. It bounds how
  much a single bit flip can move a parameter relative to its original
  value.

Wire frame ("HDFM"): magic, version byte, K and d as 32-bit little-endian
unsigned, a codec tag byte, optional per-class gains as 64-bit floats, then
row-major parameters. The tag byte is 0 for float32 and 128 + bitwidth for
scaled integers, so a frame is self-describing. Bits within the payload are
little-endian: least-significant bit of the first byte first, values packed
back to back at the codec width. encode_values and decode_values are that
payload codec; the unpacked 0/1-bit view that the tests' reference channels
act on is built from them in the tests. Values that fill a numpy type
(value_type: float32, 8-, 16- and 32-bit integers) are written and read as
records of that type, in the same bytes as the bit packer (pack_words)
writes; other widths go through the packer.

Every serializer returns a Frame: the bytes counted on the uplink plus the
bits a bit channel may hit in them. corrupt_frame hits only those bits, and
the receiver parses what arrives; headers, gains and (in sparse frames)
index gaps ride the reliable side of the link. The raw
channels (ideal, awgn) act on values, not on frames.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .hdc import ClassPrototypes

HDFM_MAGIC = b"HDFM"
HDFM_VERSION = 1
HEADER_BYTES = 4 + 1 + 4 + 4 + 1  # magic, version, K, d, codec tag

_REPRESENTATIONS = ("float32", "quantized_int")
_CHANNEL_KINDS = ("ideal", "awgn", "bsc", "packet_loss")
BIT_CHANNELS = ("bsc", "packet_loss")  # act on frame bits; ideal and awgn on raw values


class ChannelConfigError(ValueError):
    """Channel or codec configuration is malformed."""


class CodecError(ValueError):
    """Values cannot be represented by the selected codec."""


@dataclass(frozen=True)
class CodecConfig:
    """Wire representation of model parameters."""

    representation: str = "float32"
    bitwidth: int = 16  # quantized_int only

    def __post_init__(self) -> None:
        if self.representation not in _REPRESENTATIONS:
            raise ChannelConfigError(f"unknown representation {self.representation!r}")
        if self.representation == "quantized_int" and not (2 <= self.bitwidth <= 32):
            raise ChannelConfigError(
                f"quantized bitwidth must be in [2, 32], got {self.bitwidth}"
            )

    @property
    def value_bits(self) -> int:
        return self.bitwidth if self.representation == "quantized_int" else 32


@dataclass(frozen=True)
class ChannelConfig:
    """Corruption model selector plus the parameters its kind requires."""

    kind: str = "ideal"
    snr_db: float | None = None
    bit_error_rate: float | None = None
    packet_bits: int | None = None
    packet_loss_prob: float | None = None  # direct override of the derived rate
    codec: CodecConfig = field(default_factory=CodecConfig)

    def __post_init__(self) -> None:
        if self.kind not in _CHANNEL_KINDS:
            raise ChannelConfigError(f"unknown channel kind {self.kind!r}")
        if self.kind == "awgn" and self.snr_db is None:
            raise ChannelConfigError("awgn channel requires snr_db")
        if self.kind == "bsc":
            if self.bit_error_rate is None:
                raise ChannelConfigError("bsc channel requires bit_error_rate")
        if self.kind == "packet_loss":
            if self.packet_bits is None or self.packet_bits < 1:
                raise ChannelConfigError("packet_loss channel requires packet_bits >= 1")
            if self.bit_error_rate is None and self.packet_loss_prob is None:
                raise ChannelConfigError(
                    "packet_loss channel requires bit_error_rate or packet_loss_prob"
                )
        for rate in (self.bit_error_rate, self.packet_loss_prob):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ChannelConfigError(f"probability {rate} outside [0, 1]")


# ---------------------------------------------------------------------------
# Packed bit codec


def value_words(values: np.ndarray, codec: CodecConfig) -> np.ndarray:
    """Codec bit patterns of a flat value array as unsigned words (uint64, or
    the unsigned type of a value_type's width): float32 bits, or the low
    two's-complement bits of an integer. Integer codecs take integer arrays
    as they are and raise on non-integral, non-finite or out-of-range values."""
    flat = np.asarray(values).reshape(-1)
    if codec.representation == "float32":
        return flat.astype(np.float64, copy=False).astype("<f4").view("<u4")
    if flat.dtype.kind == "f" and (not np.all(np.isfinite(flat)) or np.any(flat != np.trunc(flat))):
        raise CodecError("integer codecs require integral finite values")
    width = codec.value_bits
    if flat.size and (flat.min() < -(2 ** (width - 1)) or flat.max() >= 2 ** (width - 1)):
        raise CodecError(f"value overflow for {width}-bit integers")
    words = flat.astype(np.int64, copy=False)
    if value_type(codec):
        return words.astype(f"<u{width // 8}")  # the cast keeps the low bits
    return words.view(np.uint64) & np.uint64((1 << width) - 1)


def value_type(codec: CodecConfig) -> str | None:
    """The numpy type that a codec value fills exactly, if there is one."""
    if codec.representation == "float32":
        return "<f4"
    return f"<i{codec.value_bits // 8}" if codec.value_bits in (8, 16, 32) else None


def words_to_values(words: np.ndarray, codec: CodecConfig) -> np.ndarray:
    """Invert value_words, from its uint64 words or from values read in their
    value_type. Float32 patterns that decode to NaN or infinity become zero;
    corrupted streams must never poison server-side arithmetic."""
    if words.dtype.kind == "u":
        shift = 64 - codec.value_bits  # sign-extend from the top of an int64
        return ((words.astype(np.int64) << shift) >> shift).astype(np.float64)
    # Corrupted patterns may form signaling NaNs; the widening cast then
    # raises FE_INVALID, which is exactly the case nan_to_num cleans up.
    with np.errstate(invalid="ignore"):
        values = words.astype(np.float64)
    return values if words.dtype.kind == "i" else np.nan_to_num(values, posinf=0.0, neginf=0.0)


def pack_words(words: np.ndarray, width: int, lengths: np.ndarray | None = None) -> np.ndarray:
    """Pack a 1-D array of `width`-bit words (1..64) back to back,
    least-significant bit first, into bytes. With `lengths`, the words form
    consecutive segments of those sizes and each segment ends on a byte
    boundary, zero-padded."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    bits = bits.reshape(-1, 64)[:, :width].reshape(-1)
    data = None if lengths is None else _data_bits(lengths, width)
    if data is not None:
        padded = np.zeros(data.size, dtype=np.uint8)
        padded[data] = bits
        bits = padded
    return np.packbits(bits, bitorder="little")


def unpack_words(
    payload: np.ndarray, count: int, width: int, lengths: np.ndarray | None = None
) -> np.ndarray:
    """The first `count` words of `width` bits in a 1-D uint8 payload, as
    uint64; with `lengths`, read across the padding pack_words puts after
    each segment."""
    data = None if lengths is None else _data_bits(lengths, width)
    if data is None:
        bits = np.unpackbits(payload, count=count * width, bitorder="little")
    else:
        bits = np.unpackbits(payload, count=data.size, bitorder="little")[data]
    words = np.zeros((count, 64), dtype=np.uint8)
    words[:, :width] = bits.reshape(-1, width)
    return np.packbits(words, bitorder="little").view("<u8").astype(np.uint64)


def _data_bits(lengths: np.ndarray, width: int) -> np.ndarray | None:
    """Mask of the word bits in a stream of byte-padded segments of `lengths`
    words, or None when no segment needs padding."""
    bits = np.asarray(lengths, dtype=np.int64) * width
    pads = -bits % 8
    if not pads.any():
        return None
    return np.repeat(np.tile([True, False], bits.size), np.column_stack([bits, pads]).ravel())


def encode_values(values: np.ndarray, codec: CodecConfig) -> np.ndarray:
    """Packed codec payload of a value array, row-major."""
    words = value_words(values, codec)
    return words.view(np.uint8) if value_type(codec) else pack_words(words, codec.value_bits)


def decode_values(payload: np.ndarray, codec: CodecConfig, count: int) -> np.ndarray:
    """The first `count` values of a packed codec payload."""
    kind, bits = value_type(codec), codec.value_bits
    words = payload[: count * bits // 8].view(kind) if kind else unpack_words(payload, count, bits)
    return words_to_values(words, codec)


def packet_error_probability(p_e: float, packet_bits: int) -> float:
    """Probability that an packet_bits-bit packet sees at least one bit error."""
    if packet_bits < 1:
        raise ChannelConfigError("packet_bits must be >= 1")
    if not 0.0 <= p_e <= 1.0:
        raise ChannelConfigError(f"bit error rate {p_e} outside [0, 1]")
    if p_e == 1.0:
        return 1.0
    return -math.expm1(packet_bits * math.log1p(-p_e))


# ---------------------------------------------------------------------------
# Scale-up / round / scale-down quantizer


def quantize_segments(
    values: np.ndarray, lengths: np.ndarray, bitwidth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize consecutive segments of a flat array, each with its own gain.

    Per segment, the gain is (2^(B-1) - 1) / max|values| and elements are
    truncated toward zero after scaling. An all-zero segment has no defined
    gain, and a tiny (e.g. subnormal) maximum overflows it; such a segment
    transmits as zeros at gain 1, so live traffic never aborts.
    Returns the int64 integers and the per-segment gains.
    """
    if bitwidth < 2:
        raise ChannelConfigError(f"bitwidth must be >= 2, got {bitwidth}")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64)
    magnitudes = np.abs(values)
    max_abs = np.zeros(lengths.size)
    filled = lengths > 0
    if filled.any():
        max_abs[filled] = np.maximum.reduceat(magnitudes, (np.cumsum(lengths) - lengths)[filled])
    top = 2 ** (bitwidth - 1) - 1
    with np.errstate(divide="ignore", over="ignore"):
        gains = top / max_abs
    live = np.isfinite(gains)
    gains[~live] = 1.0
    ceilings = np.where(live, max_abs, np.nan)
    if lengths.size and (lengths == lengths[0]).all():  # equal segments: broadcast per row
        values, magnitudes = (a.reshape(lengths.size, lengths[0]) for a in (values, magnitudes))
        gains_at, ceilings = gains[:, None], ceilings[:, None]
    else:
        gains_at, ceilings = np.repeat(gains, lengths), np.repeat(ceilings, lengths)
    # The products are cast as they are written, truncating toward zero.
    ints = np.multiply(values, gains_at, out=np.empty(values.shape, np.int64), casting="unsafe")
    # Float rounding in values * gain must not push the extreme element off
    # the exact ceiling.
    extremes = magnitudes == ceilings
    ints[extremes] = np.where(values[extremes] >= 0, top, -top)
    if not np.isfinite(max_abs).all():  # only a NaN or infinity casts out of range
        np.clip(ints, -top, top, out=ints)
    return ints.reshape(-1), gains


def scale_down(values: np.ndarray, gains: np.ndarray | float) -> np.ndarray:
    """Quantized integers divided by their gain. A legal gain can be tiny, so a
    corrupted integer may overflow; it becomes zero, words_to_values' rule."""
    with np.errstate(over="ignore"):
        values = values / gains
    values[np.isinf(values)] = 0.0
    return values


# ---------------------------------------------------------------------------
# Frames and the bit channels


class Frame(bytes):
    """The bytes of one serialized frame, plus the bits a bit channel may hit.

    The exposed bits are the top `value_bits` of each `width`-bit word in
    segments of `lengths` words, each packed as pack_words(words, width)
    writes it and padded to a whole byte; segment r starts at byte
    `starts[r]` of the frame. Every other bit (header, counts, gains, index
    gaps, padding) rides the reliable side of the link.
    """

    def __new__(cls, data, starts, lengths, width: int, value_bits: int | None = None):
        frame = super().__new__(cls, data)
        frame.starts = np.asarray(starts, dtype=np.int64)
        frame.lengths = np.asarray(lengths, dtype=np.int64)
        frame.width = width
        frame.value_bits = width if value_bits is None else value_bits
        return frame

    @classmethod
    def tail(cls, data: bytes, count: int, width: int) -> "Frame":
        """A frame ending in `count` packed `width`-bit words, all bits exposed."""
        return cls(data, [len(data) - -(-count * width // 8)], [count], width)


# Uniforms a bsc draw holds at once. A multiple of 8, so every chunk but the
# last packs to whole bytes; the stream is consumed in the same order as one
# draw of all the bits, so the mask does not depend on it.
_DRAW_CHUNK = 1 << 16


def _channel_hits(
    segment_bits: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator
) -> np.ndarray:
    """The one draw site of the bit channels: a packed mask, least-significant
    bit first, of the bits the channel hits in a stream of segments of these
    bit lengths. bsc hits the bits it flips; packet_loss hits the bits of
    the packets it drops, and its packets restart at every segment. The
    draws are one uniform per bit (bsc) or per packet (packet_loss), in
    stream order; bsc draws its uniforms _DRAW_CHUNK at a time into one
    reused buffer."""
    segment_bits = np.asarray(segment_bits, dtype=np.int64)
    if cfg.kind == "bsc":
        n = int(segment_bits.sum())
        hits = np.empty(-(-n // 8), dtype=np.uint8)
        chunk = np.empty(min(n, _DRAW_CHUNK))
        for start in range(0, n, _DRAW_CHUNK):
            uniforms = chunk[: n - start]
            rng.random(out=uniforms)
            hits[start // 8 : -(-(start + uniforms.size) // 8)] = np.packbits(
                uniforms < cfg.bit_error_rate, bitorder="little"
            )
        return hits
    if cfg.kind != "packet_loss":
        raise ChannelConfigError(f"{cfg.kind} is not a bitstream channel")
    p_drop = cfg.packet_loss_prob
    if p_drop is None:
        p_drop = packet_error_probability(cfg.bit_error_rate or 0.0, cfg.packet_bits)
    packets = -(-segment_bits // cfg.packet_bits)
    drops = rng.random(int(packets.sum())) < p_drop
    sizes = np.full(drops.size, cfg.packet_bits)
    sent = packets > 0
    sizes[np.cumsum(packets)[sent] - 1] = (segment_bits - (packets - 1) * cfg.packet_bits)[sent]
    return np.packbits(np.repeat(drops, sizes), bitorder="little")


def corrupt_frame(frame: Frame, cfg: ChannelConfig, rng: np.random.Generator) -> bytes:
    """The bytes of a frame as they leave a bit channel (bsc or packet_loss).

    Only the frame's exposed bits are hit, drawn by _channel_hits segment by
    segment: bsc flips them, packet_loss zero-fills those of the packets it
    drops. Every other byte arrives as sent.
    """
    hits = _channel_hits(frame.lengths * frame.value_bits, cfg, rng)
    lengths, n, w = frame.lengths, frame.value_bits // 8, frame.width // 8
    if frame.value_bits not in (8, 16, 32):
        if frame.width != frame.value_bits or lengths.size > 1:
            # Move the hits to the top value_bits of each word; pad every segment.
            words = unpack_words(hits, int(lengths.sum()), frame.value_bits)
            words <<= np.uint64(frame.width - frame.value_bits)
            hits = pack_words(words, frame.width, lengths)
        lengths, n, w = -(-lengths * frame.width // 8), 1, 1  # the padded segments' bytes
    # Whole value bytes, the top n of each w-byte word: the mask is already
    # in value-byte order, so each segment's values take their slice of it.
    hits = hits.view(f"<u{n}")
    hit, hits = (np.bitwise_xor, hits) if cfg.kind == "bsc" else (np.bitwise_and, ~hits)
    data = np.frombuffer(bytearray(frame), dtype=np.uint8)
    for start, count, end in zip(frame.starts.tolist(), lengths.tolist(), lengths.cumsum().tolist()):
        if count:  # an empty segment may end the frame, where no view can start
            values = np.ndarray(count, hits.dtype, data, start + w - n, (w,))
            hit(values, hits[end - count : end], out=values)
    return data.tobytes()


# ---------------------------------------------------------------------------
# Raw channels and partial-information masking


def corrupt_values(values: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """A value array through a raw channel. ideal returns it as it is; awgn
    adds white Gaussian noise sized so that signal power / noise power
    matches cfg.snr_db: the signal power is the sum of squares over all
    values, and the noise budget P / 10^(snr_db/10) is split evenly across
    them. An all-zero array comes back as it is (its SNR is undefined).
    Bit channels act on frames instead (corrupt_frame)."""
    if cfg.kind in BIT_CHANNELS:
        raise ChannelConfigError(f"{cfg.kind} corrupts frames, not raw values")
    values = np.asarray(values, dtype=np.float64)
    if cfg.kind == "ideal":
        return values
    power = float(np.sum(values**2))
    if power == 0.0:
        return values
    per_param = power / (10.0 ** (cfg.snr_db / 10.0)) / values.size
    return values + rng.standard_normal(values.shape) * math.sqrt(per_param)


def corrupt_signs(signs: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """A +/-1 matrix through a raw channel: ideal returns it as it is, awgn
    adds noise at a signal power of one per entry. Bit channels act on the
    sign frame instead (corrupt_frame)."""
    if cfg.kind in BIT_CHANNELS:
        raise ChannelConfigError(f"{cfg.kind} corrupts frames, not raw values")
    signs = np.asarray(signs, dtype=np.float64)
    if cfg.kind == "ideal":
        return signs
    per_param = 1.0 / (10.0 ** (cfg.snr_db / 10.0))
    return signs + rng.standard_normal(signs.shape) * math.sqrt(per_param)


def apply_channel(model: ClassPrototypes, cfg: ChannelConfig, rng: np.random.Generator) -> ClassPrototypes:
    """A full model through a raw channel (corrupt_values on its vectors). A
    model crosses a bit channel as its HDFM frame:
    read_model_bytes(corrupt_frame(write_model_bytes(model, codec), cfg, rng))."""
    return ClassPrototypes(corrupt_values(model.vectors, cfg, rng))


# ---------------------------------------------------------------------------
# HDFM model frames


def codec_tag(codec: CodecConfig) -> int:
    """The HDFM tag byte of a model frame in this codec."""
    return 0 if codec.representation == "float32" else 128 + codec.bitwidth


def _codec_from_tag(tag: int) -> CodecConfig:
    if tag == 0:
        return CodecConfig("float32")
    if 130 <= tag <= 160:
        return CodecConfig("quantized_int", bitwidth=tag - 128)
    raise CodecError(f"unknown codec tag {tag}")


def frame_header(k: int, d: int, tag: int) -> bytes:
    """The HDFM header shared by model frames and strategy payload frames."""
    return HDFM_MAGIC + struct.pack("<BIIB", HDFM_VERSION, k, d, tag)


def parse_frame_header(
    blob: bytes,
    error: type[ValueError] = CodecError,
    tag: int | None = None,
    shape: tuple[int, int] | None = None,
) -> tuple[int, int, int]:
    """(K, d, tag) of a frame; raises `error` on a malformed header, a tag
    other than the expected one, or a (K, d) other than `shape`, if given."""
    if len(blob) < HEADER_BYTES or blob[:4] != HDFM_MAGIC:
        raise error("not an HDFM frame")
    version, k, d, got = struct.unpack("<BIIB", blob[4:HEADER_BYTES])
    if version != HDFM_VERSION:
        raise error(f"unsupported HDFM version {version}")
    if tag is not None and got != tag:
        raise error(f"unexpected frame tag {got}")
    if shape is not None and (k, d) != tuple(shape):
        raise error(f"frame declares {k} x {d}, expected {shape[0]} x {shape[1]}")
    return k, d, got


def write_model_bytes(model: ClassPrototypes, codec: CodecConfig | None = None) -> Frame:
    """Serialize a model to a self-describing HDFM frame; its parameters are
    the bits a bit channel may hit."""
    codec = codec or CodecConfig()
    k, d = model.vectors.shape
    head = frame_header(k, d, codec_tag(codec))
    values = model.vectors
    if codec.representation == "quantized_int":
        values, gains = quantize_segments(values, np.full(k, d), codec.bitwidth)
        head += gains.astype("<f8").tobytes()
    return Frame.tail(head + encode_values(values, codec).tobytes(), k * d, codec.value_bits)


def read_model_bytes(
    blob: bytes, shape: tuple[int, int] | None = None
) -> tuple[ClassPrototypes, CodecConfig]:
    """Parse an HDFM frame, of a `shape` (K, d) model if given. Declared
    sizes are checked against `shape` and the blob, which must end where the
    payload does, before anything is allocated."""
    k, d, tag = parse_frame_header(blob, shape=shape)
    codec = _codec_from_tag(tag)
    quantized = codec.representation == "quantized_int"
    offset = HEADER_BYTES + (8 * k if quantized else 0)
    size = offset + -(-k * d * codec.value_bits // 8)
    if k < 2 or len(blob) != size:
        raise CodecError(f"HDFM frame declares K={k} and {size} bytes, got {len(blob)} bytes")
    gains = np.frombuffer(blob, dtype="<f8", count=k if quantized else 0, offset=HEADER_BYTES)
    if not np.all(np.isfinite(gains) & (gains > 0.0)):
        raise CodecError("HDFM frame carries a non-positive or non-finite gain")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    values = decode_values(payload, codec, k * d).reshape(k, d)
    if quantized:
        values = scale_down(values, gains[:, None])
    return ClassPrototypes(values), codec


def write_model(model: ClassPrototypes, path: str, codec: CodecConfig | None = None) -> None:
    with open(path, "wb") as f:
        f.write(write_model_bytes(model, codec))


def read_model(path: str) -> tuple[ClassPrototypes, CodecConfig]:
    with open(path, "rb") as f:
        return read_model_bytes(f.read())
