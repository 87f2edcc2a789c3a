"""Federated hyperdimensional computing with unreliable-channel simulation."""

from .channel import (
    ChannelConfig,
    CodecConfig,
    apply_channel,
    corrupt_frame,
    corrupt_values,
    packet_error_probability,
    quantize_segments,
    read_model,
    read_model_bytes,
    write_model,
    write_model_bytes,
)
from .data import (
    Dataset,
    load_binary,
    load_delimited,
    normalize_features,
    save_binary,
    synth_train_test,
)
from .federated import (
    Partition,
    RoundConfig,
    RoundRecord,
    WeightedSum,
    aggregate_weighted,
    local_update,
    partition_iid,
    partition_noniid,
    run_training,
    sample_clients,
)
from .hdc import (
    ClassPrototypes,
    ProjectedQueries,
    ProjectionMatrix,
    encode_batch,
    make_projection,
    predict_batch,
    retrain_epoch,
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
