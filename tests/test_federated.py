import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdfed import federated
from hdfed.channel import ChannelConfig, CodecConfig
from hdfed.config import load_config
from hdfed.data import synth_train_test
from hdfed.federated import (
    ClientState,
    Partition,
    RoundConfig,
    WeightedSum,
    _batched_order,
    _client_states,
    _lockstep_mistakes,
    _replayed,
    aggregate_weighted,
    local_update,
    normalized_weights,
    partition_iid,
    partition_noniid,
    run_training,
    sample_clients,
)
from hdfed.hdc import (
    ClassPrototypes,
    ProjectedQueries,
    accuracy,
    encode_batch,
    make_projection,
    project_prototypes,
    retrain_epoch,
)
from hdfed.harness import run_experiment
from hdfed.seeding import STREAM_LOCAL, derived_rng
from hdfed.strategies import StrategyConfig
from reference import feature_space_pass, one_shot_train, projected_retrain_epoch


class TestPartitionIid:
    def test_even_split(self):
        part = partition_iid(4, 2, seed=0)
        assert sorted(len(a) for a in part.assignments) == [2, 2]
        assert np.allclose(part.weights, [0.5, 0.5])

    def test_near_equal_split(self):
        part = partition_iid(5, 2, seed=0)
        assert [len(a) for a in part.assignments] == [3, 2]
        assert np.allclose(part.weights, [0.6, 0.4])

    def test_deterministic(self):
        a = partition_iid(100, 7, seed=3)
        b = partition_iid(100, 7, seed=3)
        for x, y in zip(a.assignments, b.assignments):
            assert np.array_equal(x, y)

    def test_disjoint_and_covering(self):
        part = partition_iid(103, 10, seed=1)
        union = np.concatenate(part.assignments)
        assert np.array_equal(np.sort(union), np.arange(103))
        assert abs(part.weights.sum() - 1.0) < 1e-12

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            partition_iid(10, 0, seed=0)


class TestPartitionNoniid:
    def test_sorted_labels_split_in_half(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        part = partition_noniid(labels, 2, shards_per_client=1, seed=0)
        got = {tuple(sorted(labels[a])) for a in part.assignments}
        assert got == {(0, 0, 0), (1, 1, 1)}

    def test_label_diversity_bounded_by_shards(self):
        # two shards per client over contiguous label runs: each client sees
        # at most two distinct labels
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=400)
        part = partition_noniid(labels, 2, shards_per_client=2, seed=5)
        for a in part.assignments:
            assert len(np.unique(labels[a])) <= 2

    def test_deterministic(self):
        labels = np.random.default_rng(1).integers(0, 5, size=200)
        a = partition_noniid(labels, 10, 2, seed=9)
        b = partition_noniid(labels, 10, 2, seed=9)
        for x, y in zip(a.assignments, b.assignments):
            assert np.array_equal(x, y)

    def test_covering_with_remainder(self):
        labels = np.random.default_rng(2).integers(0, 3, size=101)
        part = partition_noniid(labels, 4, 2, seed=0)
        union = np.concatenate(part.assignments)
        assert np.array_equal(np.sort(union), np.arange(101))

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_noniid(np.zeros(5, dtype=int), 3, 2, seed=0)


class TestSampleClients:
    def test_full_participation(self):
        assert np.array_equal(sample_clients(10, 1.0, 0, seed=0), np.arange(10))

    def test_fraction_gives_exact_count(self):
        ids = sample_clients(100, 0.2, round_index=3, seed=0)
        assert ids.size == 20
        assert np.unique(ids).size == 20

    def test_deterministic_per_round(self):
        a = sample_clients(50, 0.3, 7, seed=11)
        b = sample_clients(50, 0.3, 7, seed=11)
        assert np.array_equal(a, b)

    def test_rounds_draw_differently(self):
        draws = {tuple(sample_clients(50, 0.3, r, seed=11)) for r in range(10)}
        assert len(draws) > 1

    def test_at_least_one_client(self):
        assert sample_clients(10, 0.01, 0, seed=0).size == 1


class TestClientStates:
    def test_each_client_holds_its_rows_in_assignment_order(self):
        rng = np.random.default_rng(0)
        hvs, labels = rng.standard_normal((7, 5)), rng.integers(0, 3, size=7)
        assignments = [np.array([4, 0, 6]), np.array([], dtype=np.int64), np.array([2, 1, 5, 3])]
        clients = _client_states(hvs, labels, Partition(assignments, np.array([0.4, 0.0, 0.6])))
        assert [c.client_id for c in clients] == [0, 1, 2]
        for client, idx in zip(clients, assignments):
            assert np.array_equal(client.rows, idx)
            # Every client reads the one matrix and labels in place.
            assert client.samples is hvs and client.labels is labels

    def test_projected_clients_hold_their_feature_rows(self, monkeypatch):
        # Under a linear encoder a client's rows are its assignment into the
        # one training matrix: the lockstep step gathers them from it, and
        # no client states or per-client feature copies are built.
        rng = np.random.default_rng(0)
        phi = make_projection(3, 40, seed=1)
        train, labels = ProjectedQueries(rng.standard_normal((7, 3)), phi), rng.integers(0, 3, 7)
        assignments = [np.array([4, 0, 6]), np.array([5]), np.array([2, 1, 3])]
        part = Partition(assignments, np.array([3, 1, 3]) / 7)
        seen = []

        def lockstep(features, projection, visits, visit_labels, *rest):
            seen.append((features, [v.copy() for v in visits], visit_labels))
            return real(features, projection, visits, visit_labels, *rest)

        def no_states(*args):
            raise AssertionError("client states built for a linear split")

        real = federated.lockstep_epoch
        monkeypatch.setattr(federated, "lockstep_epoch", lockstep)
        monkeypatch.setattr(federated, "_client_states", no_states)
        cfg = RoundConfig(
            num_clients=3, participation=1.0, local_epochs=2, local_batch=1, rounds=1
        )
        run_training(train, labels, train, labels, 3, part, cfg)
        assert len(seen) == 2  # one lockstep step per epoch
        for features, visits, visit_labels in seen:
            assert features is train.features
            for visit, idx, got in zip(visits, assignments, visit_labels):
                assert sorted(visit) == sorted(idx)
                assert np.array_equal(got, labels[visit])

    def test_one_row_split_is_encoded(self):
        # One row alone is encoded by a gemv, whose bytes the replay of a
        # feature-space retrain (a gemm) does not reproduce; the lone client
        # retrains on the encoded row, as on the d-space path.
        phi = make_projection(3, 40, seed=1)
        train = ProjectedQueries(np.array([[0.5, -1.0, 2.0]]), phi)
        [client] = _client_states(train, np.array([1]), Partition([np.array([0])], np.ones(1)))
        assert np.array_equal(client.samples[client.rows], encode_batch(phi, train.features))


def old_batched_order(n, batch, rng):
    """The epoch order as a Python list of per-batch ranges."""
    if batch is None or batch >= n:
        return np.arange(n)
    starts = np.arange(-(-n // batch))
    rng.shuffle(starts)
    return np.concatenate([np.arange(s * batch, min((s + 1) * batch, n)) for s in starts])


class TestBatchedOrder:
    @pytest.mark.parametrize(
        "n, batch",
        [(37, 10), (40, 10), (1, 1), (5, 1), (11, 3), (10, 10), (7, 10), (7, None), (0, 4)],
        ids=str,
    )
    def test_equals_the_list_of_batch_ranges(self, n, batch):
        # Partial last batch (37, 10), whole batches, batch >= n and None.
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            got, want = _batched_order(n, batch, got_rng), old_batched_order(n, batch, want_rng)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()  # the same draws were taken


class TestLocalUpdate:
    def make_client(self, seed=0, n=12, d=16, k=2):
        # n rows, out of order, of a shared matrix that holds 3 more.
        rng = np.random.default_rng(seed)
        hvs = rng.standard_normal((n + 3, d))
        labels = rng.integers(0, k, size=n + 3)
        return ClientState(0, rng.permutation(n + 3)[:n], hvs, labels)

    def test_zero_epochs_returns_global(self):
        client = self.make_client()
        g = ClassPrototypes(np.ones((2, 16)))
        cfg = RoundConfig(num_clients=1, participation=1.0, local_epochs=0, rounds=1)
        out = local_update(client, g, cfg, round_index=0)
        assert np.array_equal(out.vectors, g.vectors)

    def test_empty_dataset_returns_global(self):
        client = ClientState(0, np.empty(0, dtype=int), np.empty((0, 4)), np.empty(0, int))
        g = ClassPrototypes(np.ones((2, 4)))
        cfg = RoundConfig(num_clients=1, participation=1.0, rounds=1)
        out = local_update(client, g, cfg, round_index=0)
        assert np.array_equal(out.vectors, g.vectors)

    def test_perfectly_classified_data_unchanged(self):
        g = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        client = ClientState(0, np.arange(2), np.diag([2.0, 3.0]), np.array([0, 1]))
        cfg = RoundConfig(num_clients=1, participation=1.0, local_epochs=1, rounds=1)
        out = local_update(client, g, cfg, round_index=0)
        assert np.array_equal(out.vectors, g.vectors)

    def test_delegates_to_retrain_epoch(self):
        # single full batch: identical to one direct retraining pass
        g = ClassPrototypes(np.array([[1.0, 0.0], [0.0, 1.0]]))
        client = ClientState(0, np.array([0]), np.array([[1.0, 0.0]]), np.array([1]))
        cfg = RoundConfig(
            num_clients=1, participation=1.0, local_epochs=1, local_batch=None, rounds=1
        )
        out = local_update(client, g, cfg, round_index=0)
        expected, _ = retrain_epoch(g, client.rows, client.samples, client.labels[client.rows], 1.0)
        assert np.array_equal(out.vectors, expected.vectors)

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_batched_epochs_equal_retrain_on_gathered_rows(self, epochs):
        # local_update visits the client's rows of the shared matrix in
        # place; the result is the retrain of the gathered copy, bit for bit.
        client = self.make_client(seed=4, n=37, d=64, k=4)
        g = ClassPrototypes(np.random.default_rng(1).standard_normal((4, 64)))
        cfg = RoundConfig(
            num_clients=1, participation=1.0, local_epochs=epochs, local_batch=10,
            learning_rate=0.7, rounds=3, seed=9,
        )
        before = g.vectors.copy()
        out = local_update(client, g, cfg, round_index=2)
        rng = derived_rng(cfg.seed, STREAM_LOCAL, 2, client.client_id)
        expected = g
        for _ in range(epochs):
            order = _batched_order(37, 10, rng)
            assert not np.array_equal(order, np.arange(37))
            rows = client.rows[order]
            gathered = client.samples[rows]
            expected, _ = retrain_epoch(
                expected, np.arange(37), gathered, client.labels[rows], 0.7
            )
        assert np.array_equal(out.vectors.view(np.uint64), expected.vectors.view(np.uint64))
        assert np.array_equal(g.vectors, before)

    def test_client_state_holds_no_model_copy(self):
        client = self.make_client()
        g = ClassPrototypes(np.zeros((2, 16)))
        cfg = RoundConfig(num_clients=1, participation=1.0, rounds=1)
        local_update(client, g, cfg, round_index=0)
        assert not hasattr(client, "model")


@st.composite
def cohort_cases(draw):
    """A round's cohort over one linear split: unequal and empty clients,
    1-3 epochs, a broadcast model with zero and duplicate classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, m = draw(st.integers(2, 12)), draw(st.integers(1, 64))
    d = draw(st.sampled_from([8, 64, 200]))
    sizes = draw(st.lists(st.integers(0, 30), min_size=1, max_size=7))
    n = sum(sizes)
    features, labels = rng.standard_normal((n, m)), rng.integers(0, k, n)
    cut = np.cumsum(sizes)[:-1]
    part = Partition(np.split(rng.permutation(n), cut), np.ones(len(sizes)) / len(sizes))
    vectors = rng.standard_normal((k, d)) * draw(st.sampled_from([0.0, 0.5, 3.0]))
    zeros = draw(st.integers(0, k - 1))
    vectors[rng.choice(k, zeros, replace=False)] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        vectors[rng.integers(k)] = vectors[rng.integers(k)]
    cfg = RoundConfig(
        num_clients=len(sizes), participation=1.0, local_epochs=draw(st.integers(1, 3)),
        local_batch=draw(st.sampled_from([None, 1, 4, 10])),
        learning_rate=draw(st.sampled_from([1.0, 0.3])), rounds=5, seed=3,
    )
    participants = np.sort(rng.choice(len(sizes), draw(st.integers(1, len(sizes))), replace=False))
    phi = make_projection(m, d, seed=int(rng.integers(100)))
    model = ClassPrototypes(vectors)
    return ProjectedQueries(features, phi), labels, part, participants, model, cfg


class TestLockstepRetrain:
    """A round's cohort retrained in lockstep, then replayed client by
    client, gives each client the model and the mistakes of its own
    feature-space passes, one client at a time, bit for bit, and the
    decisions of a pass that scores one sample at a time by its own gemv."""

    @settings(max_examples=150, deadline=None)
    @given(cohort_cases())
    def test_lockstep_equals_per_client_passes(self, case):
        train, labels, part, participants, model, cfg = case
        before = model.vectors.tobytes()
        projected = project_prototypes(model.vectors, train.projection)
        logs = _lockstep_mistakes(train, labels, part, participants, model, projected, cfg, 2)
        assert len(logs) == len(participants)
        for cid, epochs in zip(participants, logs):
            idx = part.assignments[cid]
            rng = derived_rng(cfg.seed, STREAM_LOCAL, 2, int(cid))
            want = model
            for log in epochs:
                visits = idx[_batched_order(len(idx), cfg.local_batch, rng)]
                # The pass one sample at a time, each scored by its own gemv.
                oracle = feature_space_pass(
                    want.vectors, train.features, train.projection, visits,
                    labels[visits], cfg.learning_rate,
                )
                assert log == oracle
                want, count = projected_retrain_epoch(
                    want, visits, train, labels[visits], cfg.learning_rate
                )
                assert count == len(log)
            got = _replayed(model, train, epochs, cfg.learning_rate)
            assert len(epochs) == cfg.local_epochs
            assert np.array_equal(got.vectors.view(np.uint64), want.vectors.view(np.uint64))
        assert model.vectors.tobytes() == before


def fold_weighted(models, weights):
    """A round's weighted average, folded one model at a time as run_training does."""
    total = WeightedSum(weights, *models[0].vectors.shape)
    for model in models:
        aggregate_weighted(total, model)
    return total.average()


class TestAggregation:
    def test_identical_models_fixed_point(self):
        rng = np.random.default_rng(0)
        g = ClassPrototypes(rng.standard_normal((3, 8)))
        out = fold_weighted([g.copy(), g.copy(), g.copy()], np.array([0.2, 0.5, 0.3]))
        assert np.allclose(out.vectors, g.vectors)

    def test_weighted_mean(self):
        a = ClassPrototypes(np.array([[2.0], [0.0]]))
        b = ClassPrototypes(np.array([[0.0], [2.0]]))
        out = fold_weighted([a, b], np.array([0.5, 0.5]))
        assert np.array_equal(out.vectors, [[1.0], [1.0]])

    def test_single_participant_unchanged(self):
        a = ClassPrototypes(np.array([[2.0, 1.0], [3.0, 4.0]]))
        out = fold_weighted([a], np.array([0.37]))
        assert np.array_equal(out.vectors, a.vectors)

    def test_weights_renormalized(self):
        a = ClassPrototypes(np.array([[4.0], [0.0]]))
        b = ClassPrototypes(np.array([[0.0], [4.0]]))
        # raw weights sum to 0.5: renormalized to 0.5 / 0.5 each
        out = fold_weighted([a, b], np.array([0.25, 0.25]))
        assert np.array_equal(out.vectors, [[2.0], [2.0]])

    def test_fold_matches_the_list_average_bitwise(self):
        # The list form the fold replaced: zeros, then w * model added in
        # cohort order.
        rng = np.random.default_rng(3)
        models = [
            ClassPrototypes(rng.standard_normal((4, 33)))
            for _ in range(7)
        ]
        weights = rng.uniform(0.01, 1.0, 7)
        vectors = np.zeros((4, 33))
        for model, w in zip(models, normalized_weights(weights)):
            vectors += w * model.vectors
        out = fold_weighted(models, weights)
        assert np.array_equal(out.vectors.view(np.uint64), vectors.view(np.uint64))

    def test_normalized_weights_sum_to_one(self):
        w = normalized_weights(np.array([0.1, 0.4, 0.2]))
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="empty cohort"):
            WeightedSum(np.array([]), 2, 3)

    def test_nonpositive_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="positive sum"):
            WeightedSum(np.array([0.0, 0.0]), 2, 3)

    def test_shape_mismatch_rejected(self):
        total = WeightedSum(np.array([0.5, 0.5]), 2, 3)
        aggregate_weighted(total, ClassPrototypes.zeros(2, 3))
        with pytest.raises(ValueError, match="shapes differ"):
            aggregate_weighted(total, ClassPrototypes.zeros(2, 4))

    def test_one_weight_per_model(self):
        g = ClassPrototypes.zeros(2, 3)
        total = WeightedSum(np.array([0.5, 0.5]), 2, 3)
        aggregate_weighted(total, g)
        with pytest.raises(ValueError, match="one weight per model"):
            total.average()  # a weight without its model
        aggregate_weighted(total, g)
        with pytest.raises(ValueError, match="one weight per model"):
            aggregate_weighted(total, g)  # a model without its weight
        assert np.array_equal(total.average().vectors, g.vectors)


def encoded_task(seed=0, classes=3, separation=4.0, d=512, n_train=90, n_test=60):
    train, test = synth_train_test(
        classes, 12, n_train // classes, n_test // classes, separation, seed
    )
    phi = make_projection(12, d, seed=1)
    return (
        encode_batch(phi, train.features),
        train.labels,
        encode_batch(phi, test.features),
        test.labels,
        classes,
    )


MEMORY_CHANNELS = {"ideal": ChannelConfig(), "bsc": ChannelConfig(kind="bsc", bit_error_rate=1e-3)}
MEMORY_STRATEGIES = [
    StrategyConfig(),
    StrategyConfig(kind="binary_diff"),
    StrategyConfig(kind="subsample", rate=0.5),
    StrategyConfig(kind="sparsify", sparsity=0.5),
]
MEMORY_CASES = [
    (strategy, channel, linear)
    for linear in (False, True)
    for channel in MEMORY_CHANNELS.values()
    for strategy in MEMORY_STRATEGIES
]
MEMORY_IDS = [
    "-".join([strategy.kind, name] + ["linear"] * linear)
    for linear in (False, True)
    for name in MEMORY_CHANNELS
    for strategy in MEMORY_STRATEGIES
]


class TestRunTraining:
    def test_degenerate_federation_equals_centralized(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task()
        cfg = RoundConfig(
            num_clients=1, participation=1.0, local_epochs=2, local_batch=10, rounds=3, seed=4
        )
        part = partition_iid(train_hvs.shape[0], 1, seed=cfg.seed)
        model, records = run_training(
            train_hvs, train_labels, test_hvs, test_labels, k, part, cfg
        )
        # centralized: the same client retrained round by round
        client = ClientState(0, part.assignments[0], train_hvs, train_labels)
        central = ClassPrototypes.zeros(k, train_hvs.shape[1])
        for t in range(cfg.rounds):
            central = local_update(client, central, cfg, t)
        assert np.array_equal(model.vectors, central.vectors)
        assert len(records) == 3

    def test_separable_data_reaches_full_train_accuracy(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(
            seed=2, separation=6.0
        )
        cfg = RoundConfig(
            num_clients=5, participation=1.0, local_epochs=1, local_batch=10, rounds=50, seed=0
        )
        part = partition_iid(train_hvs.shape[0], 5, seed=0)
        model, records = run_training(
            train_hvs, train_labels, test_hvs, test_labels, k, part, cfg
        )
        assert accuracy(model, train_hvs, train_labels) == 1.0
        assert any(r.train_loss == 0.0 for r in records)

    def test_identical_seeds_identical_records(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(seed=5)
        cfg = RoundConfig(num_clients=4, participation=0.5, rounds=5, seed=8)
        part = partition_iid(train_hvs.shape[0], 4, seed=8)

        def run():
            _, recs = run_training(
                train_hvs, train_labels, test_hvs, test_labels, k, part, cfg
            )
            return [
                (r.round_index, r.participants, r.test_accuracy, r.train_loss, r.uplink_bytes)
                for r in recs
            ]

        assert run() == run()

    def test_round_records_account_bytes(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(seed=6, d=128)
        cfg = RoundConfig(num_clients=4, participation=0.5, rounds=2, seed=1)
        part = partition_iid(train_hvs.shape[0], 4, seed=1)
        _, records = run_training(
            train_hvs, train_labels, test_hvs, test_labels, k, part, cfg
        )
        frame = 14 + k * 128 * 4
        for r in records:
            assert r.uplink_bytes == frame * len(r.participants)
            assert r.downlink_bytes == frame * 4

    def test_partition_size_mismatch_rejected_before_round_one(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(seed=7, d=64)
        cfg = RoundConfig(num_clients=3, participation=1.0, rounds=1)
        part = partition_iid(train_hvs.shape[0], 2, seed=0)
        with pytest.raises(ValueError):
            run_training(train_hvs, train_labels, test_hvs, test_labels, k, part, cfg)

    def test_strategy_uplink_byte_accounting(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(seed=9, d=128)
        cfg = RoundConfig(num_clients=3, participation=1.0, rounds=2, seed=2)
        part = partition_iid(train_hvs.shape[0], 3, seed=2)
        d = 128
        # closed-form per-client payload sizes, header included
        _, recs = run_training(
            train_hvs, train_labels, test_hvs, test_labels, k, part, cfg,
            strategy=StrategyConfig(kind="binary_diff"),
        )
        per_client = 14 + -(-k * d // 8)
        assert all(r.uplink_bytes == 3 * per_client for r in recs)
        _, recs = run_training(
            train_hvs, train_labels, test_hvs, test_labels, k, part, cfg,
            strategy=StrategyConfig(kind="subsample", rate=0.25),
        )
        per_client = 14 + 8 + 4 + round(0.25 * k * d) * 4
        assert all(r.uplink_bytes == 3 * per_client for r in recs)

    def test_binary_diff_forces_full_participation(self):
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(seed=8, d=64)
        cfg = RoundConfig(num_clients=4, participation=0.25, rounds=2, seed=3)
        part = partition_iid(train_hvs.shape[0], 4, seed=3)
        _, records = run_training(
            train_hvs,
            train_labels,
            test_hvs,
            test_labels,
            k,
            part,
            cfg,
            strategy=StrategyConfig(kind="binary_diff"),
        )
        assert all(len(r.participants) == 4 for r in records)

    def test_row_views_train_like_gathered_client_copies(self, monkeypatch):
        # d = 131 puts client rows at offsets that are not 64-byte aligned.
        train_hvs, train_labels, test_hvs, test_labels, k = encoded_task(seed=3, d=131)
        cfg = RoundConfig(
            num_clients=5, participation=0.6, local_epochs=2, local_batch=4, rounds=3, seed=6
        )
        part = partition_noniid(train_labels, 5, 2, seed=6)

        def run(hvs):
            model, recs = run_training(hvs, train_labels, test_hvs, test_labels, k, part, cfg)
            rows = [(r.participants, r.test_accuracy, r.train_loss, r.uplink_bytes) for r in recs]
            return model.vectors.view(np.uint64), rows

        def gathered_states(hvs, labels, partition):
            return [
                ClientState(cid, np.arange(len(idx)), hvs[idx], labels[idx])
                for cid, idx in enumerate(partition.assignments)
            ]

        views = run(train_hvs)
        fortran = run(np.asfortranarray(train_hvs))
        monkeypatch.setattr(federated, "_client_states", gathered_states)
        copies = run(train_hvs)
        for got in (views, fortran):
            assert np.array_equal(got[0], copies[0]) and got[1] == copies[1]

    @pytest.mark.parametrize(
        "n, clients",
        [(60, 6), (12, 12), (1, 1)],
        ids=["clients", "one_row_clients", "one_row_split"],
    )
    def test_linear_split_trains_like_its_encoded_rows(self, n, clients):
        # At m = 32, d = 2000 every gemm of >= 2 rows gives a row the bytes
        # it gets among the whole split, so the clients' feature-space
        # retrain replays the d-space one exactly.
        rng = np.random.default_rng(5)
        phi = make_projection(32, 2000, seed=2)
        xs, labels = rng.standard_normal((n, 32)), rng.integers(0, 4, n)
        labels[0] = 3  # the zero model predicts class 0: even one row is a mistake
        test = ProjectedQueries(rng.standard_normal((20, 32)), phi)
        test_labels = rng.integers(0, 4, 20)
        cfg = RoundConfig(
            num_clients=clients, participation=0.7, local_epochs=2, local_batch=3,
            learning_rate=0.6, rounds=3, seed=1,
        )
        part = partition_iid(n, clients, seed=1)
        runs = [
            run_training(train, labels, test, test_labels, 4, part, cfg)
            for train in (ProjectedQueries(xs, phi), encode_batch(phi, xs))
        ]
        (got, got_recs), (want, want_recs) = runs
        assert np.array_equal(got.vectors.view(np.uint64), want.vectors.view(np.uint64))
        assert [r.test_accuracy for r in got_recs] == [r.test_accuracy for r in want_recs]
        assert np.any(got.vectors != 0.0)

    def test_training_matrix_is_held_once(self):
        # Clients read row views of the caller's encoded matrix: no second
        # copy of the training set is made, so the traced peak stays far
        # below it.
        rng = np.random.default_rng(0)
        train_hvs, train_labels = rng.standard_normal((2000, 1000)), rng.integers(0, 4, 2000)
        test_hvs, test_labels = rng.standard_normal((100, 1000)), rng.integers(0, 4, 100)
        cfg = RoundConfig(num_clients=10, participation=1.0, rounds=2, seed=0)
        part = partition_iid(2000, 10, seed=0)
        tracemalloc.start()
        try:
            run_training(train_hvs, train_labels, test_hvs, test_labels, 4, part, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < train_hvs.nbytes / 4

    @pytest.mark.parametrize("strategy, channel, linear", MEMORY_CASES, ids=MEMORY_IDS)
    def test_round_memory_does_not_grow_with_the_cohort(self, strategy, channel, linear):
        # The server folds each client's update into the round's total as it
        # arrives, so a cohort of 32 holds no more than a cohort of 8; a
        # round that kept every update would hold 24 more, each about a model.
        # A linear split retrains the cohort in lockstep on its (K, m)
        # weights; holding each client's (K, d) model there would show too.
        k, d, n = 4, 20000, 64
        rng = np.random.default_rng(0)
        train_hvs, train_labels = rng.standard_normal((n, d)), rng.integers(0, k, n)
        test_hvs, test_labels = rng.standard_normal((8, d)), rng.integers(0, k, 8)
        if linear:
            phi = make_projection(16, d, seed=0)
            train_hvs = ProjectedQueries(rng.standard_normal((n, 16)), phi)
            test_hvs = ProjectedQueries(rng.standard_normal((8, 16)), phi)

        def peak(clients):
            cfg = RoundConfig(num_clients=clients, participation=1.0, rounds=1, seed=0)
            part = partition_iid(n, clients, seed=0)
            tracemalloc.start()
            try:
                run_training(
                    train_hvs, train_labels, test_hvs, test_labels, k, part, cfg,
                    channel=channel, strategy=strategy,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) - peak(8) < 2 * k * d * 8

    def test_linear_experiment_encodes_neither_split(self):
        # Under a linear encoder clients retrain on the raw features and the
        # eval scores them, so the experiment's peak stays below a quarter of
        # the (n, d) encoded training set, let alone the test split's rows.
        n, d = 2000, 1000
        config = load_config(
            None,
            {
                "data.kind": "synth",
                "data.synth.classes": "4",
                "data.synth.features": "16",
                "data.synth.train_per_class": str(n // 4),
                "data.synth.test_per_class": str(n // 4),
                "encoder.dim": str(d),
                "round.clients": "10",
                "round.participation": "1.0",
                "round.rounds": "2",
                "round.seed": "0",
            },
        )
        tracemalloc.start()
        try:
            run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4


def decaying_learning_rate(mu: float, gamma: float, t: int) -> float:
    """Schedule 2 / (mu * (gamma + t)), used by the convergence-rate checks."""
    return 2.0 / (mu * (gamma + t))


class TestLearningRateSchedule:
    def test_decay_shape(self):
        mu, gamma = 1.0, 8.0
        assert decaying_learning_rate(mu, gamma, 0) == pytest.approx(0.25)
        assert decaying_learning_rate(mu, gamma, 8) == pytest.approx(0.125)
        ratios = [
            decaying_learning_rate(mu, gamma, 2 * t) / decaying_learning_rate(mu, gamma, t)
            for t in (10, 20, 40)
        ]
        assert all(r < 1.0 for r in ratios)
