"""Federated hyperdimensional computing with unreliable-channel simulation."""

from .channel import (
    ChannelConfig,
    CodecConfig,
    apply_channel,
    corrupt_frame,
    corrupt_values,
    deserialize_bits,
    mask_prototypes,
    packet_error_probability,
    quantize_segments,
    read_model,
    read_model_bytes,
    serialize_bits,
    write_model,
    write_model_bytes,
)
from .data import (
    Dataset,
    load_binary,
    load_delimited,
    normalize_features,
    save_binary,
    synth_gaussian_mixture,
    synth_train_test,
)
from .federated import (
    Partition,
    RoundConfig,
    RoundRecord,
    aggregate_sum,
    aggregate_weighted,
    local_update,
    partition_iid,
    partition_noniid,
    run_training,
    sample_clients,
)
from .hdc import (
    ClassPrototypes,
    EncoderConfig,
    ProjectedQueries,
    ProjectionMatrix,
    binary_retrain,
    encode,
    encode_batch,
    fisher_direction,
    make_projection,
    one_shot_train,
    perceptron_loss,
    predict,
    predict_batch,
    reconstruct,
    retrain_epoch,
    similarity,
)
from .strategies import (
    SparseClassModel,
    StrategyConfig,
    csc_decompress,
    diff_apply,
    diff_binarize,
    sparsify,
    subsample,
    subsample_aggregate,
    wire_bytes,
)

__version__ = "0.1.0"
