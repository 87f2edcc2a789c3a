"""Federated training loop: partitioning, client sampling, local updates,
and server aggregation over a configurable uplink.

One round: the server broadcasts the global prototypes, each sampled client
retrains its copy for a number of epochs on local data, client updates pass
through the active size-reduction strategy and then the corruption model,
and the server decodes them and averages them, weighted by each client's
share of the training samples (binary differential transmission and
subsampling have their own server steps). The server folds each update
into a running total as it arrives, so a round holds one client's update
at a time. The downlink is assumed reliable.

Everything is a pure function of (data, configs, seed): client-local work
draws from per-(round, client) derived streams, so serial and parallel
schedules produce identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import strategies as strat
from .channel import (
    BIT_CHANNELS,
    ChannelConfig,
    CodecConfig,
    apply_channel,
    corrupt_frame,
    corrupt_signs,
    corrupt_values,
    read_model_bytes,
    write_model_bytes,
)
from .hdc import (
    ClassPrototypes,
    ProjectedQueries,
    accuracy,
    encode_batch,
    feature_state,
    lockstep_epoch,
    multiclass_margin_loss,
    project_prototypes,
    replay_mistakes,
    retrain_epoch,
)
from .seeding import (
    STREAM_CHANNEL,
    STREAM_LOCAL,
    STREAM_PARTITION,
    STREAM_SAMPLING,
    STREAM_STRATEGY,
    derived_rng,
)


@dataclass(frozen=True)
class RoundConfig:
    """Federation parameters: cohort size, participation, local work, rounds."""

    num_clients: int
    participation: float = 0.2
    local_epochs: int = 1
    local_batch: int | None = 10  # None = full batch
    learning_rate: float = 1.0
    rounds: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError(f"participation must be in (0, 1], got {self.participation}")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.local_batch is not None and self.local_batch < 1:
            raise ValueError("local_batch must be positive or None for full batch")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Partition:
    """Disjoint covering assignment of sample indices to clients."""

    assignments: list[np.ndarray]
    weights: np.ndarray

    @property
    def num_clients(self) -> int:
        return len(self.assignments)


@dataclass
class ClientState:
    """A client's ``rows`` of the one (n, d) training matrix ``samples``,
    whose labels are ``labels``; both are shared, not copied."""

    client_id: int
    rows: np.ndarray
    samples: np.ndarray
    labels: np.ndarray


@dataclass
class RoundRecord:
    round_index: int
    participants: tuple[int, ...]
    test_accuracy: float
    train_loss: float
    uplink_bytes: int
    downlink_bytes: int
    wall_ms: float = 0.0  # hardware-dependent; excluded from any equality check


def partition_iid(n_samples: int, num_clients: int, seed: int) -> Partition:
    """Shuffle and split into near-equal chunks (sizes differ by at most 1)."""
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    if n_samples < num_clients:
        raise ValueError("need at least one sample per client")
    rng = derived_rng(seed, STREAM_PARTITION)
    order = rng.permutation(n_samples)
    chunks = np.array_split(order, num_clients)
    weights = np.array([len(c) / n_samples for c in chunks])
    return Partition([np.asarray(c) for c in chunks], weights)


def partition_noniid(
    labels: np.ndarray, num_clients: int, shards_per_client: int, seed: int
) -> Partition:
    """Sort by label, slice into equal contiguous shards, deal shards randomly.

    Each client receives shards_per_client shards, so it sees at most that
    many label runs. The trailing remainder joins the last shard.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    n_shards = num_clients * shards_per_client
    if num_clients < 1 or shards_per_client < 1:
        raise ValueError("num_clients and shards_per_client must be positive")
    if n_shards > n:
        raise ValueError(f"cannot cut {n} samples into {n_shards} shards")
    by_label = np.argsort(labels, kind="stable")
    shard_size = n // n_shards
    shards = [by_label[i * shard_size : (i + 1) * shard_size] for i in range(n_shards)]
    shards[-1] = by_label[(n_shards - 1) * shard_size :]
    rng = derived_rng(seed, STREAM_PARTITION, num_clients, shards_per_client)
    order = rng.permutation(n_shards)
    assignments = []
    for c in range(num_clients):
        mine = order[c * shards_per_client : (c + 1) * shards_per_client]
        assignments.append(np.concatenate([shards[s] for s in mine]))
    weights = np.array([len(a) / n for a in assignments])
    return Partition(assignments, weights)


def sample_clients(num_clients: int, fraction: float, round_index: int, seed: int) -> np.ndarray:
    """Uniform sample without replacement of max(1, round(C * N)) client ids.

    The stream is derived from (seed, round), so each round's draw is
    independent and reproducible.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    count = max(1, round(fraction * num_clients))
    rng = derived_rng(seed, STREAM_SAMPLING, round_index)
    return np.sort(rng.choice(num_clients, size=count, replace=False))


def _batched_order(
    n: int, batch: int | None, rng: np.random.Generator
) -> np.ndarray:
    """Sample order for one epoch: contiguous batches, batch order shuffled.

    The batch size controls shuffling granularity only; samples are still
    processed one by one inside each batch.
    """
    if batch is None or batch >= n:
        return np.arange(n)
    starts = np.arange(-(-n // batch))
    rng.shuffle(starts)
    order = (starts[:, None] * batch + np.arange(batch)).ravel()
    return order[order < n]  # the last batch is partial when batch does not divide n


def _epoch_visits(
    rows: np.ndarray, cfg: RoundConfig, round_index: int, client_id: int
) -> list[np.ndarray]:
    """The training-matrix rows a client visits in each local epoch, in
    visiting order: its ``rows`` in the batch order drawn in turn from its
    (seed, round, client) stream. ``local_update`` and the lockstep retrain
    of a linear split both take their visits from here."""
    rng = derived_rng(cfg.seed, STREAM_LOCAL, round_index, client_id)
    return [rows[_batched_order(len(rows), cfg.local_batch, rng)] for _ in range(cfg.local_epochs)]


def local_update(
    client: ClientState,
    global_model: ClassPrototypes,
    cfg: RoundConfig,
    round_index: int,
) -> ClassPrototypes:
    """Copy the broadcast model and retrain for the configured local epochs.

    Batch order is drawn from the (seed, round, client) stream. A client with
    no data returns a copy of the global model.
    """
    if len(client.rows) == 0 or cfg.local_epochs == 0:
        return global_model.copy()
    model = global_model  # retrain_epoch returns a new model; the broadcast is never written
    for visits in _epoch_visits(client.rows, cfg, round_index, client.client_id):
        model, _ = retrain_epoch(
            model, visits, client.samples, client.labels[visits], cfg.learning_rate
        )
    return model


def normalized_weights(weights: np.ndarray) -> np.ndarray:
    """Renormalize participant weights to sum to one."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("participant weights must have positive sum")
    return weights / total


class WeightedSum:
    """One round's weighted average, built one client model at a time.

    Holds the participants' weights, renormalized to sum to one, and the
    running float64 sum of weight * vectors.
    aggregate_weighted folds the next model in; average() ends the round
    once every weight has had its model.
    """

    def __init__(self, weights: np.ndarray, num_classes: int, hd_dim: int):
        if np.size(weights) == 0:
            raise ValueError("cannot aggregate an empty cohort")
        self.weights = normalized_weights(weights)
        self.vectors = np.zeros((num_classes, hd_dim))
        self.folded = 0

    def average(self) -> ClassPrototypes:
        """The weighted average."""
        if self.folded != self.weights.size:
            raise ValueError(
                f"one weight per model required: {self.weights.size} weights, {self.folded} models"
            )
        return ClassPrototypes(self.vectors)


def aggregate_weighted(total: WeightedSum, model: ClassPrototypes) -> None:
    """Fold the next model into a round's running sum, in place, at its
    weight: vectors += w * model.vectors."""
    if total.folded == total.weights.size:
        raise ValueError(f"one weight per model required: only {total.weights.size} weights")
    if model.vectors.shape != total.vectors.shape:
        raise ValueError("model shapes differ")
    w = total.weights[total.folded]
    total.vectors += w * model.vectors
    total.folded += 1


def _client_states(
    hvs: np.ndarray | ProjectedQueries, labels: np.ndarray, partition: Partition
) -> list[ClientState]:
    """Each client's assignment as its rows of the one training matrix,
    which every client shares with the labels: nothing is gathered.
    ``ProjectedQueries`` are encoded first: ``run_training`` passes them
    only for a one-row split, whose one row is a gemv that the padded
    gemm of ``replay_mistakes`` does not reproduce."""
    if isinstance(hvs, ProjectedQueries):
        hvs = encode_batch(hvs.projection, hvs.features)
    return [ClientState(c, idx, hvs, labels) for c, idx in enumerate(partition.assignments)]


def _lockstep_mistakes(
    train: ProjectedQueries,
    labels: np.ndarray,
    partition: Partition,
    participants: np.ndarray,
    global_model: ClassPrototypes,
    projected: np.ndarray,
    cfg: RoundConfig,
    round_index: int,
) -> list[list[list[tuple[int, int, int]]]]:
    """Each participant's mistake logs, one per local epoch: what
    ``local_update`` over its ``ProjectedQueries`` decides, for the whole
    cohort at once by ``lockstep_epoch``, over the visits of the one
    training matrix that ``local_update`` draws. Each later epoch starts
    from the client's own model: its logs so far are replayed, one client
    at a time, for the ``feature_state`` of that model, which is then
    dropped. With the replay on the uplink, a client of E epochs thus
    replays E(E+1)/2 logs a round, where ``local_update`` would replay E."""
    alpha, phi = cfg.learning_rate, train.projection
    visits = [
        _epoch_visits(partition.assignments[cid], cfg, round_index, int(cid))
        for cid in participants
    ]
    logs: list[list[list[tuple[int, int, int]]]] = [[] for _ in participants]
    for epoch in range(cfg.local_epochs):
        if epoch == 0:
            starts = [feature_state(global_model.vectors, phi, projected)] * len(visits)
        else:
            starts = [
                feature_state(_replayed(global_model, train, past, alpha).vectors, phi)
                for past in logs
            ]
        state = (np.stack(a) for a in zip(*starts))
        rows = [v[epoch] for v in visits]
        decided = lockstep_epoch(
            train.features, phi, rows, [labels[r] for r in rows], *state, alpha
        )
        for past, log in zip(logs, decided):
            past.append(log)
    return logs


def _replayed(
    global_model: ClassPrototypes, train: ProjectedQueries, logs, alpha: float
) -> ClassPrototypes:
    """A client's local model: its mistake logs replayed, epoch by epoch,
    on a copy of the broadcast model."""
    vectors = global_model.vectors.copy()
    for log in logs:
        replay_mistakes(vectors, train.features, train.projection, log, alpha)
    return ClassPrototypes(vectors)


class _Uplink:
    """One strategy's uplink, the same steps for every strategy.

    encode turns a client's local model into what it sends and the one frame
    counted on the uplink. Over bsc and packet_loss, corrupt_frame hits that
    frame and decode parses what arrives; over ideal and awgn, perturb acts
    on the raw values that were sent instead. The server keeps one running
    total a round: start opens it, fold adds each contribution as it
    arrives, and finish turns it into the next global model; by default the
    total is the weighted average. `shape` is the global model's (K, d),
    which decode checks.
    """

    def __init__(self, strategy: strat.StrategyConfig, codec: CodecConfig, seed: int, shape):
        self.strategy, self.codec, self.seed, self.shape = strategy, codec, seed, shape

    def start(self, global_model, weights):
        return WeightedSum(weights, *global_model.vectors.shape)

    def fold(self, total, model):
        aggregate_weighted(total, model)

    def finish(self, total, global_model):
        return total.average()


class _FullModel(_Uplink):
    def encode(self, local, global_model, round_index, client_id):
        return local, write_model_bytes(local, self.codec)

    def decode(self, blob):
        return read_model_bytes(blob, self.shape)[0]

    def perturb(self, local, channel, rng):
        return apply_channel(local, channel, rng)


class _SignDiff(_Uplink):
    def encode(self, local, global_model, round_index, client_id):
        signs = strat.diff_binarize(local, global_model)
        return signs, strat.serialize_sign_matrix(signs)

    def decode(self, blob):
        return strat.deserialize_sign_matrix(blob, self.shape)

    def perturb(self, signs, channel, rng):
        return corrupt_signs(signs, channel, rng)

    def start(self, global_model, weights):
        return np.zeros_like(global_model.vectors)

    def fold(self, total, signs):
        strat.diff_fold(total, signs)

    def finish(self, total, global_model):
        return strat.diff_apply(global_model, total, self.strategy.step)


class _Subsample(_Uplink):
    def encode(self, local, global_model, round_index, client_id):
        rng = derived_rng(self.seed, STREAM_STRATEGY, round_index, client_id)
        indices, values = strat.subsample(local, self.strategy.rate, rng)
        key = strat.subsample_stream_key(round_index, client_id)
        payload = strat.SubsamplePayload(key, indices, values, local.vectors.shape)
        return payload, strat.serialize_subsample(payload, self.codec)

    def decode(self, blob):
        received = strat.deserialize_subsample(blob, self.codec, self.seed, self.shape)
        return received.indices, received.values

    def perturb(self, payload, channel, rng):
        return payload.indices, corrupt_values(payload.values, channel, rng)

    def start(self, global_model, weights):
        size = global_model.vectors.size
        return np.zeros(size), np.zeros(size, dtype=np.int64)

    def fold(self, tally, sample):
        strat.subsample_fold(*tally, *sample)

    def finish(self, tally, global_model):
        return strat.subsample_aggregate(*tally, global_model)


class _Sparse(_Uplink):
    def encode(self, local, global_model, round_index, client_id):
        sparse = strat.sparsify(local, self.strategy.sparsity)
        return sparse, strat.serialize_sparse(sparse, self.codec)

    def decode(self, blob):
        return strat.deserialize_sparse(blob, self.codec, self.shape)

    def perturb(self, sparse, channel, rng):
        # One corrupt_values call per class keeps awgn's per-class SNR.
        blocks = np.split(sparse.values, np.cumsum(sparse.lengths)[:-1])
        values = np.concatenate([corrupt_values(v, channel, rng) for v in blocks])
        return replace(sparse, values=values)

    def fold(self, total, sparse):
        aggregate_weighted(total, strat.csc_decompress(sparse))


_UPLINKS = dict(none=_FullModel, binary_diff=_SignDiff, subsample=_Subsample, sparsify=_Sparse)


def run_training(
    train_hvs: np.ndarray | ProjectedQueries,
    train_labels: np.ndarray,
    test_hvs: np.ndarray | ProjectedQueries,
    test_labels: np.ndarray,
    num_classes: int,
    partition: Partition,
    cfg: RoundConfig,
    channel: ChannelConfig | None = None,
    strategy: strat.StrategyConfig | None = None,
) -> tuple[ClassPrototypes, list[RoundRecord]]:
    """Run the full federated loop over encoded data for cfg.rounds rounds.

    Clients retrain on the rows of ``train_hvs``, and each round scores the
    train loss on them and the test accuracy on ``test_hvs``. Either may be
    ``ProjectedQueries`` of a linear encoder, which are retrained on and
    scored without their encoded rows: a round's clients then retrain in
    lockstep (``_lockstep_mistakes``), and each one's local model is
    replayed from its mistakes when its turn on the uplink comes, so a
    round holds one client's model at a time. Under one projection, each
    broadcast model's ``project_prototypes`` is computed once and serves
    the round's eval and the next round's clients.

    Returns the final global model and one record per round. Configuration
    errors surface before round 1; channel corruption never aborts a run.
    Binarized differential transmission defaults to full participation since
    clients must difference against the broadcast they all share.
    """
    channel = channel or ChannelConfig()
    strategy = strategy or strat.StrategyConfig()
    if partition.num_clients != cfg.num_clients:
        raise ValueError(
            f"partition has {partition.num_clients} clients, config says {cfg.num_clients}"
        )
    if strategy.kind == "subsample":
        # The last round and client give the largest stream key.
        strat.subsample_stream_key(cfg.rounds - 1, cfg.num_clients - 1)
    phi = clients = None
    if isinstance(train_hvs, ProjectedQueries):
        phi = train_hvs.projection
    else:
        # Held once: the clients' rows and the train-loss eval read this
        # matrix. The encoder's output is already C-ordered float64, so
        # this copies nothing.
        train_hvs = np.ascontiguousarray(train_hvs, dtype=np.float64)
    if phi is None or len(train_hvs) == 1:
        # Encoded rows and a lone linear row (see _client_states) retrain
        # client by client; any other linear split retrains in lockstep.
        clients = _client_states(train_hvs, train_labels, partition)
    hd_dim = train_hvs.shape[1]
    global_model = ClassPrototypes.zeros(num_classes, hd_dim)
    # V P of the broadcast model, when the training split is projected.
    projected = project_prototypes(global_model.vectors, phi) if phi is not None else None
    test_shares = isinstance(test_hvs, ProjectedQueries) and test_hvs.projection is phi
    participation = 1.0 if strategy.kind == "binary_diff" else cfg.participation
    uplink = _UPLINKS[strategy.kind](strategy, channel.codec, cfg.seed, global_model.vectors.shape)
    records: list[RoundRecord] = []
    downlink_frame = len(write_model_bytes(global_model, CodecConfig("float32")))
    for t in range(cfg.rounds):
        tic = time.perf_counter()
        participants = sample_clients(cfg.num_clients, participation, t, cfg.seed)
        total = uplink.start(global_model, partition.weights[participants])
        uplink_bytes = 0
        if clients is None:
            logs = _lockstep_mistakes(
                train_hvs, train_labels, partition, participants, global_model, projected, cfg, t
            )
        for i, cid in enumerate(participants):
            if clients is None:
                local = _replayed(global_model, train_hvs, logs[i], cfg.learning_rate)
            else:
                local = local_update(clients[cid], global_model, cfg, t)
            sent, frame = uplink.encode(local, global_model, t, int(cid))
            uplink_bytes += strat.wire_bytes(frame, strategy, channel.codec)
            chan_rng = None  # the ideal channel draws nothing, so it gets no stream
            if channel.kind != "ideal":
                chan_rng = derived_rng(cfg.seed, STREAM_CHANNEL, t, cid)
            if channel.kind in BIT_CHANNELS:
                received = uplink.decode(corrupt_frame(frame, channel, chan_rng))
            else:
                frame = None  # only counted: freed before the raw path allocates (peak RSS)
                received = uplink.perturb(sent, channel, chan_rng)
            # Each contribution is folded as it arrives, and nothing else of
            # the client's is kept: a round holds one contribution and the total.
            del local, sent, frame
            uplink.fold(total, received)
            del received
        global_model = uplink.finish(total, global_model)
        if phi is not None:
            projected = project_prototypes(global_model.vectors, phi)
        records.append(
            RoundRecord(
                round_index=t,
                participants=tuple(int(c) for c in participants),
                test_accuracy=accuracy(
                    global_model, test_hvs, test_labels, projected if test_shares else None
                ),
                train_loss=multiclass_margin_loss(
                    global_model, train_hvs, train_labels, projected
                ),
                uplink_bytes=uplink_bytes,
                downlink_bytes=downlink_frame * cfg.num_clients,
                wall_ms=(time.perf_counter() - tic) * 1000.0,
            )
        )
    return global_model, records
