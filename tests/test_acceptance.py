"""Acceptance suite: one test per release criterion.

Each test prints a `[acceptance] criterion N: PASS` line with the measured
numbers (visible with `pytest -s` or on failure), so a run doubles as a
verification report. Heavy federated experiments are shared via module
fixtures; everything is seeded and deterministic apart from wall-clock
budgets.
"""

import time

import numpy as np
import pytest

from hdfed.channel import (
    ChannelConfig,
    CodecConfig,
    apply_channel,
)
from hdfed.data import synth_train_test
from hdfed.federated import (
    RoundConfig,
    partition_iid,
    run_training,
    sample_clients,
)
from hdfed.hdc import (
    ClassPrototypes,
    accuracy,
    encode_batch,
    make_projection,
    predict_batch,
    retrain_epoch,
)
from hdfed.seeding import derived_rng
from hdfed.strategies import (
    StrategyConfig,
    csc_decompress,
    sparsify,
    subsample,
)
from reference import (
    binary_retrain,
    deserialize_bits,
    mask_prototypes,
    one_shot_train,
    perceptron_loss,
    serialize_bits,
)
from test_federated import decaying_learning_rate


def report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): PASS  {detail}")


def encoded_task(
    classes, input_dim, sep, train_pc, test_pc, hd_dim, data_seed=0, enc_seed=1, quantize=False
):
    train, test = synth_train_test(classes, input_dim, train_pc, test_pc, sep, data_seed)
    phi = make_projection(input_dim, hd_dim, seed=enc_seed)
    return (
        encode_batch(phi, train.features, quantize),
        train.labels,
        encode_batch(phi, test.features, quantize),
        test.labels,
    )


def federated(tr_h, tr_y, te_h, te_y, classes, cfg, channel=None, strategy=None):
    part = partition_iid(tr_h.shape[0], cfg.num_clients, seed=cfg.seed)
    return run_training(tr_h, tr_y, te_h, te_y, classes, part, cfg, channel, strategy)


# ---------------------------------------------------------------------------
# Criteria 1 and 2: trainer equivalences


def test_c01_sgd_equivalence():
    """binary_retrain is bit-for-bit SGD on the perceptron loss."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    passes = 3
    for _ in range(100):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 65))
        hvs = rng.standard_normal((n, d))
        ys = rng.choice([-1.0, 1.0], size=n)
        eta = float(rng.uniform(0.05, 2.0))

        w_trainer = np.zeros(d)
        w_sgd = np.zeros(d)
        for _ in range(passes):
            w_trainer = binary_retrain(w_trainer, hvs, ys, eta=eta, passes=1)
            for h, y in zip(hvs, ys):
                margin = y * np.dot(w_sgd, h)
                loss = perceptron_loss(w_sgd, h, y)
                assert (loss > 0.0) == (margin < 0.0)
                if margin <= 0.0:  # subgradient -y h at the kink
                    w_sgd = w_sgd - eta * (-(y * h))
            assert np.array_equal(w_trainer, w_sgd)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, "sgd equivalence", f"100 datasets x {passes} passes bit-identical in {elapsed:.2f}s")


def test_c02_binary_prototype_coupling():
    """Tracking c_0 - c_1 under two-class retraining (rate a) reproduces the
    binary trainer (rate 2a) exactly.

    Instances start from nonzero antisymmetric half-integer prototypes with
    +/-1 samples and odd dimension: every quantity is exact in floats and
    every decision dot product is an odd integer, so the tie-at-zero corner
    (where the lowest-index tie break and the <=-at-zero update rule pull
    apart) cannot occur.
    """
    rng = np.random.default_rng(202)
    epochs = 3
    for _ in range(100):
        d = 2 * int(rng.integers(1, 32)) + 1
        n = int(rng.integers(1, 51))
        v = rng.choice([-1.0, 1.0], size=d)
        protos = ClassPrototypes(np.stack([0.5 * v, -0.5 * v]))
        hvs = rng.choice([-1.0, 1.0], size=(n, d))
        labels = rng.integers(0, 2, size=n)
        ys = np.where(labels == 0, 1.0, -1.0)
        alpha = 1.0
        w = protos.vectors[0] - protos.vectors[1]
        for _ in range(epochs):
            protos, _ = retrain_epoch(protos, np.arange(n), hvs, labels, alpha=alpha)
            w = binary_retrain(w, hvs, ys, eta=2.0 * alpha, passes=1)
            assert np.array_equal(protos.vectors[0] - protos.vectors[1], w)
    report(2, "binary/prototype coupling", f"100 instances x {epochs} epochs exact")


# ---------------------------------------------------------------------------
# Criterion 3: linear-discriminant equivalence


def test_c03_fisher_equivalence():
    started = time.monotonic()
    train, test = synth_train_test(
        2, 16, 1000, 2000, mean_separation=2.0, seed=11, symmetric=True
    )
    phi = make_projection(16, 2048, seed=2)
    tr_h = encode_batch(phi, train.features)
    te_h = encode_batch(phi, test.features)
    protos = one_shot_train(tr_h, train.labels, 2)
    hd_pred = predict_batch(protos, te_h)
    mu_0 = tr_h[train.labels == 0].mean(axis=0)
    mu_1 = tr_h[train.labels == 1].mean(axis=0)
    oracle = np.where(te_h @ (mu_0 - mu_1) >= 0.0, 0, 1)
    agreement = float(np.mean(hd_pred == oracle))
    elapsed = time.monotonic() - started
    assert agreement >= 0.999
    assert elapsed < 10.0
    report(3, "fisher equivalence", f"agreement={agreement:.5f} over {te_h.shape[0]} queries in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: dimensionality study (synthetic monotonicity branch)


def test_c04_dimensionality_monotonicity():
    # No benchmark download in this environment, so the synthetic branch
    # applies: reference scale N=100, C=0.2 with sign encoding, accuracy must
    # not degrade as the hyperspace grows and must clearly improve overall.
    train, test = synth_train_test(12, 256, 170, 80, mean_separation=4.0, seed=0)
    accs = {}
    for d in (1000, 2000, 10000):
        phi = make_projection(256, d, seed=1)
        tr_h = encode_batch(phi, train.features, True)
        te_h = encode_batch(phi, test.features, True)
        cfg = RoundConfig(
            num_clients=100, participation=0.2, local_epochs=1, local_batch=10,
            rounds=40, seed=3,
        )
        _, recs = federated(tr_h, train.labels, te_h, test.labels, 12, cfg)
        accs[d] = recs[-1].test_accuracy
    assert accs[2000] >= accs[1000] - 0.005
    assert accs[10000] >= accs[2000] - 0.005
    assert accs[10000] >= accs[1000] + 0.02
    report(
        4,
        "dimensionality",
        f"acc(d=1000)={accs[1000]:.3f} <= acc(d=2000)={accs[2000]:.3f} <= acc(d=10000)={accs[10000]:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: convergence-rate shape on a strongly convex surrogate


def test_c05_convergence_rate_shape():
    # Quadratic local objectives F_k(w) = 0.5 ||w - a_k||^2 (mu = L = 1),
    # heterogeneous optima, half the clients sampled per round, E local
    # steps with the 2 / (mu (gamma + t)) schedule.
    rng = np.random.default_rng(0)
    n_clients, dim, epochs = 20, 12, 2
    targets = rng.standard_normal((n_clients, dim)) * 3.0
    w_star = targets.mean(axis=0)

    def objective(w):
        return 0.5 * float(np.mean(np.sum((w - targets) ** 2, axis=1)))

    f_star = objective(w_star)
    mu = 1.0
    gamma = max(8.0 * 1.0, float(epochs))
    w = np.zeros(dim)
    gaps = []
    for t in range(80):
        chosen = sample_clients(n_clients, 0.5, t, seed=9)
        finals = []
        for cid in chosen:
            local = w.copy()
            for e in range(epochs):
                step = decaying_learning_rate(mu, gamma, t * epochs + e)
                local = local - step * (local - targets[cid])
            finals.append(local)
        w = np.mean(finals, axis=0)
        gaps.append(objective(w) - f_star)
    ratios = {}
    for horizon in (10, 20, 40):
        ratios[horizon] = gaps[2 * horizon - 1] / gaps[horizon - 1]
        assert gaps[2 * horizon - 1] <= 0.75 * gaps[horizon - 1]
    report(
        5,
        "convergence rate",
        "gap(2T)/gap(T) = " + ", ".join(f"T={h}: {r:.3f}" for h, r in ratios.items()),
    )


# ---------------------------------------------------------------------------
# Criteria 6-8: channel robustness


@pytest.fixture(scope="module")
def channel_runs():
    tr_h, tr_y, te_h, te_y = encoded_task(8, 32, 3.5, 375, 100, 4096)
    cfg = RoundConfig(
        num_clients=50, participation=1.0, local_epochs=1, local_batch=10, rounds=15, seed=3
    )
    out = {}
    for name, channel in (
        ("ideal", None),
        ("packet", ChannelConfig(kind="packet_loss", packet_bits=1024, packet_loss_prob=0.2)),
        ("awgn", ChannelConfig(kind="awgn", snr_db=-10.0)),
    ):
        _, recs = federated(tr_h, tr_y, te_h, te_y, 8, cfg, channel)
        out[name] = recs[-1].test_accuracy
    return out


def test_c06_packet_loss_robustness(channel_runs):
    diff = abs(channel_runs["ideal"] - channel_runs["packet"])
    assert diff <= 0.02
    report(
        6,
        "packet loss",
        f"ideal={channel_runs['ideal']:.4f} 20%-drop={channel_runs['packet']:.4f} diff={diff:.4f}",
    )


def test_c07_awgn_robustness(channel_runs):
    diff = abs(channel_runs["ideal"] - channel_runs["awgn"])
    assert diff <= 0.05
    report(
        7,
        "awgn -10dB",
        f"ideal={channel_runs['ideal']:.4f} awgn={channel_runs['awgn']:.4f} diff={diff:.4f}",
    )


def test_c08_bit_error_contrast():
    # Few aggregating clients: one exponent-corrupted float dominates the
    # average, so raw float32 transmission collapses while 16-bit scaled
    # integers hold the ideal accuracy.
    classes = 8
    tr_h, tr_y, te_h, te_y = encoded_task(classes, 32, 3.5, 375, 100, 1024)
    cfg = RoundConfig(
        num_clients=10, participation=1.0, local_epochs=1, local_batch=10, rounds=15, seed=3
    )
    _, recs = federated(tr_h, tr_y, te_h, te_y, classes, cfg)
    ideal = recs[-1].test_accuracy
    float_cfg = ChannelConfig(kind="bsc", bit_error_rate=1e-3, codec=CodecConfig("float32"))
    _, recs = federated(tr_h, tr_y, te_h, te_y, classes, cfg, float_cfg)
    float_acc = recs[-1].test_accuracy
    quant_cfg = ChannelConfig(
        kind="bsc", bit_error_rate=1e-3, codec=CodecConfig("quantized_int", bitwidth=16)
    )
    _, recs = federated(tr_h, tr_y, te_h, te_y, classes, cfg, quant_cfg)
    quant_acc = recs[-1].test_accuracy

    chance = 1.0 / classes
    assert float_acc <= chance + 0.10
    assert abs(ideal - quant_acc) <= 0.10
    report(
        8,
        "bit-error contrast",
        f"ideal={ideal:.4f} float32={float_acc:.4f} (<= {chance + 0.10:.3f}) quant16={quant_acc:.4f}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: communication strategy trade-offs


@pytest.fixture(scope="module")
def strategy_runs():
    tr_h, tr_y, te_h, te_y = encoded_task(10, 32, 3.6, 300, 100, 2000)
    cfg = RoundConfig(
        num_clients=20, participation=1.0, local_epochs=1, local_batch=10, rounds=60, seed=3
    )
    out = {}
    for name, strategy in (
        ("baseline", StrategyConfig()),
        ("binary_diff", StrategyConfig(kind="binary_diff")),
        ("subsample", StrategyConfig(kind="subsample", rate=0.1)),
        ("sparsify", StrategyConfig(kind="sparsify", sparsity=0.9)),
    ):
        _, recs = federated(tr_h, tr_y, te_h, te_y, 10, cfg, None, strategy)
        out[name] = recs[-1].test_accuracy
    return out


def test_c09_strategy_tradeoffs(strategy_runs):
    base = strategy_runs["baseline"]
    k, d = 10, 2000
    dense_bits = k * d * 32

    gaps = {}
    for name in ("binary_diff", "subsample", "sparsify"):
        gaps[name] = base - strategy_runs[name]
        assert abs(gaps[name]) <= 0.035

    # value-payload bits per uplink message, headers and O(1) metadata aside
    binary_bits = k * d
    assert dense_bits == 32 * binary_bits
    sub_bits = int(round(0.1 * k * d)) * 32
    assert dense_bits == 10 * sub_bits
    stored_per_class = d - int(round(0.9 * d))
    sparse_value_bits = k * stored_per_class * 32
    assert dense_bits == 10 * sparse_value_bits

    report(
        9,
        "strategy trade-offs",
        f"base={base:.4f}; gaps bindiff={gaps['binary_diff']:+.4f}@32x "
        f"sub10={gaps['subsample']:+.4f}@10x sparse90={gaps['sparsify']:+.4f}@10x",
    )


# ---------------------------------------------------------------------------
# Criterion 10: bundling SNR gain


def test_c10_bundling_snr_gain():
    n_copies = 100
    trials = 1000
    rng = np.random.default_rng(55)
    vectors = rng.standard_normal((2, 250))
    model = ClassPrototypes(vectors)
    signal_power = float(np.sum(vectors**2))
    channel = ChannelConfig(kind="awgn", snr_db=10.0)
    per_copy_noise = 0.0
    aggregate_noise = 0.0
    for _ in range(trials):
        noises = [
            apply_channel(model, channel, rng).vectors - vectors for _ in range(n_copies)
        ]
        per_copy_noise += float(np.mean([np.sum(n**2) for n in noises]))
        aggregate_noise += float(np.sum(np.sum(noises, axis=0) ** 2))
    snr_per = signal_power / (per_copy_noise / trials)
    snr_agg = (n_copies**2) * signal_power / (aggregate_noise / trials)
    gain = snr_agg / snr_per
    assert 0.8 * n_copies <= gain <= 1.2 * n_copies
    report(10, "bundling snr gain", f"gain={gain:.1f} for N={n_copies} over {trials} trials")


# ---------------------------------------------------------------------------
# Criterion 11: partial-information retention


def test_c11_partial_information_retention():
    train, test = synth_train_test(26, 64, 150, 40, mean_separation=4.0, seed=7)
    phi = make_projection(64, 4096, seed=3)
    tr_h = encode_batch(phi, train.features)
    te_h = encode_batch(phi, test.features)
    protos = one_shot_train(tr_h, train.labels, 26)
    for _ in range(3):
        protos, _ = retrain_epoch(protos, np.arange(len(tr_h)), tr_h, train.labels, 1.0)
    full = accuracy(protos, te_h, test.labels)
    assert full >= 0.85  # the task must be genuinely learned first
    ratios = []
    for mask_seed in range(5):
        masked = mask_prototypes(protos, 0.2, derived_rng(100 + mask_seed))
        ratios.append(accuracy(masked, te_h, test.labels) / full)
        assert ratios[-1] >= 0.85
    report(
        11,
        "partial information",
        f"full={full:.4f}; retention at 80% masking: min={min(ratios):.3f} mean={np.mean(ratios):.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 12: codec and compression exactness, subsampling unbiasedness


def test_c12_codec_and_compression_exactness():
    rng = np.random.default_rng(77)
    for i in range(1000):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 40))
        if i % 2 == 0:
            codec = CodecConfig("float32")
            values = rng.standard_normal((k, d)).astype(np.float32).astype(np.float64)
        else:
            width = int(rng.integers(2, 33))
            codec = CodecConfig("quantized_int", bitwidth=width)
            top = 2 ** (width - 1) - 1
            values = rng.integers(-top, top + 1, size=(k, d)).astype(np.float64)
        back = deserialize_bits(serialize_bits(values, codec), codec, (k, d))
        assert np.array_equal(back, values)

        model = ClassPrototypes(rng.standard_normal((k, d)))
        sparsity = float(rng.uniform(0.0, 0.9))
        sparse = sparsify(model, sparsity)
        dense = csc_decompress(sparse)
        again = csc_decompress(sparsify(dense, 0.0))
        assert np.array_equal(again.vectors, dense.vectors)

    # Subsampling unbiasedness: reported positions carry exact values, so the
    # per-position mean over many independent subsamples matches the model.
    model = ClassPrototypes(rng.standard_normal((2, 50)))
    truth = model.vectors.reshape(-1)
    sums = np.zeros(truth.size)
    hits = np.zeros(truth.size)
    for _ in range(10_000):
        idx, val = subsample(model, 0.1, rng)
        sums[idx] += val
        hits[idx] += 1
    assert hits.min() > 0
    rel = np.abs(sums / hits - truth) / np.abs(truth)
    assert rel.max() <= 0.01
    report(
        12,
        "codec/compression exactness",
        f"1000 round trips bit-exact; subsample max rel err={rel.max():.2e}",
    )
