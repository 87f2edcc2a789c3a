"""Config-space fuzz: tiny synthetic experiments across the key space.

Hypothesis draws flat overrides over strategy x channel x codec (float32 and
quantized q2..q32), iid and noniid partitions, participation, 0-3 local
epochs, batch size, the sign encoding on and off, K in [2, 6] and a small d
at or above the feature count. Each run either fails with a config error
before round 1 starts, or finishes with a finite accuracy and loss and a
final model frame that ``read_model_bytes`` parses back to the model, up to
the codec's precision. A second run of the same config gives the same
metrics CSV (without ``wall_ms``) and the same frame.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hdfed import federated
from hdfed.channel import read_model_bytes, write_model_bytes
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


@settings(max_examples=300, deadline=None)
@given(tiny_configs())
def test_tiny_configs_fail_early_or_finish_finite_and_reproducibly(overrides):
    rounds = mock.patch.object(federated, "sample_clients", wraps=federated.sample_clients)
    with rounds as started:
        try:
            config, result, csv, frame = run(overrides)
        except ValueError as exc:  # ConfigError, DimensionError, a partition error
            assert not started.called, f"{type(exc).__name__} after round 1 started: {exc}"
            return
    assert len(result.records) == config.round.rounds
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
        assert np.all(np.abs(parsed.vectors - want) <= step * (1 + 1e-9))
    _, _, csv_again, frame_again = run(overrides)
    assert csv_again == csv
    assert frame_again == frame
