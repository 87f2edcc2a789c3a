"""Config-space fuzz: tiny synthetic experiments across the key space.

Hypothesis draws flat overrides over strategy x channel x codec (float32 and
quantized q2..q32), iid and noniid partitions, participation, 0-3 local
epochs, batch size, the sign encoding on and off, K in [2, 6] and a small d
at or above the feature count. Each run either fails with a config error
before round 1 starts, or finishes with a finite accuracy and loss and a
final model frame that ``read_model_bytes`` parses back to the model, up to
the codec's precision. A second run of the same config gives the same
metrics CSV (without ``wall_ms``) and the same frame.

Every uplink frame of the first run is followed: the bytes ``wire_bytes``
counts add up to the CSV's uplink bytes, and over a bit channel they are the
length of the frame handed to ``corrupt_frame`` and of the blob that reaches
the server's parser. The raw channels (ideal, awgn) corrupt and parse no
frame.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdfed import federated, strategies
from hdfed.channel import BIT_CHANNELS, read_model_bytes, write_model_bytes
from hdfed.config import load_config
from hdfed.harness import format_metrics, run_experiment


@st.composite
def tiny_configs(draw):
    k = draw(st.integers(2, 6))
    features = draw(st.integers(1, 8))
    overrides = {
        "data.synth.classes": k,
        "data.synth.features": features,
        "data.synth.train_per_class": draw(st.integers(2, 10)),
        "data.synth.test_per_class": draw(st.integers(1, 4)),
        "data.synth.seed": draw(st.integers(0, 50)),
        "encoder.dim": draw(st.integers(features, 48)),
        "encoder.seed": draw(st.integers(0, 50)),
        "encoder.quantize": draw(st.booleans()),
        "round.clients": draw(st.integers(1, 8)),
        "round.participation": draw(st.sampled_from([0.25, 0.5, 1.0])),
        "round.epochs": draw(st.integers(0, 3)),
        "round.batch": draw(st.sampled_from(["full", 1, 3, 10])),
        "round.lr": draw(st.sampled_from([1.0, 0.5])),
        "round.rounds": draw(st.integers(1, 3)),
        "round.seed": draw(st.integers(0, 1000)),
        "partition.kind": draw(st.sampled_from(["iid", "noniid"])),
        "partition.shards_per_client": draw(st.integers(1, 3)),
    }
    channel = draw(st.sampled_from(["ideal", "awgn", "bsc", "packet_loss"]))
    overrides["channel.kind"] = channel
    if channel == "awgn":
        overrides["channel.snr_db"] = draw(st.sampled_from([0.0, 10.0, 30.0]))
    elif channel in ("bsc", "packet_loss"):
        overrides["channel.bit_error_rate"] = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    if channel == "packet_loss":
        overrides["channel.packet_bits"] = draw(st.sampled_from([8, 64, 1000]))
    if draw(st.booleans()):
        overrides["codec.representation"] = "quantized_int"
        overrides["codec.bitwidth"] = draw(st.integers(2, 32))
    strategy = draw(st.sampled_from(["none", "binary_diff", "subsample", "sparsify"]))
    overrides["strategy.kind"] = strategy
    if strategy == "subsample":
        overrides["strategy.rate"] = draw(st.sampled_from([0.1, 0.5, 1.0]))
    elif strategy == "sparsify":
        overrides["strategy.sparsity"] = draw(st.sampled_from([0.0, 0.5, 0.9]))
    elif strategy == "binary_diff":
        overrides["strategy.step"] = draw(st.sampled_from([1.0, 0.5]))
    return {key: str(value) for key, value in overrides.items()}


def run(overrides):
    """The run's config and result, its metrics CSV without wall_ms, and its
    final model frame."""
    config = load_config(None, overrides)
    result = run_experiment(config)
    csv = [line.rsplit(",", 1)[0] for line in format_metrics(result.records).splitlines()]
    return config, result, csv, bytes(write_model_bytes(result.model, config.channel.codec))


def tap(module, name, out, measure):
    """Patch ``module.name`` to append measure(first argument, result) to
    ``out`` on every call."""
    fn = getattr(module, name)

    def tapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        out.append(measure(args[0], result))
        return result

    return mock.patch.object(module, name, tapped)


@contextlib.contextmanager
def uplink_lengths():
    """Per uplink frame, in the order sent: the bytes ``wire_bytes`` counts,
    the length of the frame handed to ``corrupt_frame``, and the length of
    the blob that reaches a server parser."""
    counted, corrupted, received = [], [], []
    parsers = ["deserialize_sign_matrix", "deserialize_subsample", "deserialize_sparse"]
    with contextlib.ExitStack() as stack:
        stack.enter_context(tap(strategies, "wire_bytes", counted, lambda _, n: n))
        stack.enter_context(tap(federated, "corrupt_frame", corrupted, lambda f, _: len(f)))
        for module, name in [(federated, "read_model_bytes")] + [(strategies, p) for p in parsers]:
            stack.enter_context(tap(module, name, received, lambda blob, _: len(blob)))
        yield counted, corrupted, received


# A 27-bit model element whose decode lands just past one step by rounding.
PAST_ONE_STEP = {
    "data.synth.classes": "6", "data.synth.features": "2", "data.synth.train_per_class": "2",
    "data.synth.test_per_class": "1", "data.synth.seed": "0", "encoder.dim": "46",
    "encoder.seed": "0", "encoder.quantize": "False", "round.clients": "1",
    "round.participation": "0.25", "round.epochs": "1", "round.batch": "full",
    "round.lr": "1.0", "round.rounds": "1", "round.seed": "0", "partition.kind": "iid",
    "partition.shards_per_client": "1", "channel.kind": "bsc", "channel.bit_error_rate": "0.0",
    "codec.representation": "quantized_int", "codec.bitwidth": "27", "strategy.kind": "none",
}


@settings(max_examples=300, deadline=None)
@given(tiny_configs())
@example(PAST_ONE_STEP)
def test_tiny_configs_fail_early_or_finish_finite_and_reproducibly(overrides):
    rounds = mock.patch.object(federated, "sample_clients", wraps=federated.sample_clients)
    with rounds as started, uplink_lengths() as (counted, corrupted, received):
        try:
            config, result, csv, frame = run(overrides)
        except ValueError as exc:  # ConfigError, DimensionError, a partition error
            assert not started.called, f"{type(exc).__name__} after round 1 started: {exc}"
            return
    assert len(result.records) == config.round.rounds
    assert sum(counted) == sum(rec.uplink_bytes for rec in result.records)
    if config.channel.kind in BIT_CHANNELS:
        assert counted == corrupted == received
    else:
        assert corrupted == received == []
    for rec in result.records:
        assert np.isfinite(rec.test_accuracy) and 0.0 <= rec.test_accuracy <= 1.0
        assert np.isfinite(rec.train_loss) and rec.train_loss >= 0.0
    want = result.model.vectors
    parsed, codec = read_model_bytes(frame, want.shape)
    assert codec == config.channel.codec
    if codec.representation == "float32":
        assert np.array_equal(parsed.vectors, want.astype(np.float32))
    else:  # truncated toward zero, less than one step of the row's gain
        step = np.abs(want).max(axis=1, keepdims=True) / (2 ** (codec.bitwidth - 1) - 1)
        # Rounding values * gain (up to 2^(B-1)) and dividing again can move
        # an element by a few ulps of its integer: 2^(B-51) of a step bounds it.
        assert np.all(np.abs(parsed.vectors - want) <= step * (1 + 2.0 ** (codec.bitwidth - 51)))
    _, _, csv_again, frame_again = run(overrides)
    assert csv_again == csv
    assert frame_again == frame
