"""Behaviour gate for the uplink: small federated runs over every strategy,
channel and codec must reproduce recorded results exactly.

Each digest is the sha256 of the metrics CSV without its wall_ms column,
the final model's float32 HDFM frame, its float64 values and K zero int64
words (the sample counts models once carried, all zero in every run).
The table was recorded before the four strategies shared one
encode/corrupt/decode path, so it pins that refactor (and any later one)
to the same numbers.

A second table pins the linear encoder's path, where clients retrain in
feature space on ``ProjectedQueries``: unequal noniid clients, half of
them a round, one and three local epochs, batches of 10 and full batches.
It was recorded before a round's clients were retrained in lockstep.

A third table runs the codecs whose frames are written through byte-wide
records (8- and 32-bit model words, 40- and 64-bit sparse pairs) over both
bit channels. It was recorded before those frames stopped going through the
generic bit packer. Its 32-bit rows cover every strategy and channel, the
width the raw int32 codec covered in the first table before that codec was
removed; those rows were recorded before the removal.

Print the tables for the current code with:

    PYTHONPATH=src python tests/test_behaviour_gate.py
"""

import hashlib
import itertools

import numpy as np
import pytest

from hdfed.channel import ChannelConfig, CodecConfig, write_model_bytes
from hdfed.federated import RoundConfig, partition_iid, partition_noniid, run_training
from hdfed.harness import format_metrics
from hdfed.hdc import ProjectedQueries, make_projection
from hdfed.strategies import StrategyConfig

STRATEGIES = {
    "none": StrategyConfig(),
    "binary_diff": StrategyConfig(kind="binary_diff"),
    "subsample": StrategyConfig(kind="subsample", rate=0.3),
    "sparsify": StrategyConfig(kind="sparsify", sparsity=0.7),
}
CHANNELS = {
    "ideal": {},
    "awgn": dict(kind="awgn", snr_db=10.0),
    "bsc": dict(kind="bsc", bit_error_rate=0.02),
    "packet_loss": dict(kind="packet_loss", packet_bits=13, bit_error_rate=0.01),
}
CODECS = {
    "float32": CodecConfig("float32"),
    "q16": CodecConfig("quantized_int", bitwidth=16),
    "q7": CodecConfig("quantized_int", bitwidth=7),
}


def task():
    """Three separable classes as bipolar hypervectors."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((3, 48))
    labels = rng.integers(0, 3, size=120)
    hvs = np.where(centers[labels] + 0.9 * rng.standard_normal((120, 48)) >= 0.0, 1.0, -1.0)
    return hvs[:90], labels[:90], hvs[90:], labels[90:]


RECORD_CODECS = {
    "q8": CodecConfig("quantized_int", bitwidth=8),
    "q32": CodecConfig("quantized_int", bitwidth=32),
}


def digest(strategy, chan, codec):
    train_hvs, train_labels, test_hvs, test_labels = task()
    cfg = RoundConfig(num_clients=3, participation=0.67, rounds=3, seed=4)
    channel = ChannelConfig(codec={**CODECS, **RECORD_CODECS}[codec], **CHANNELS[chan])
    model, records = run_training(
        train_hvs, train_labels, test_hvs, test_labels, 3,
        partition_iid(90, 3, seed=1), cfg, channel, STRATEGIES[strategy],
    )
    return run_digest(model, records)


def run_digest(model, records):
    csv = "".join(line.rsplit(",", 1)[0] + "\n" for line in format_metrics(records).splitlines())
    h = hashlib.sha256(csv.encode())
    h.update(write_model_bytes(model, CodecConfig("float32")))
    h.update(model.vectors.astype("<f8").tobytes())
    # The digests were recorded when models carried per-class sample counts,
    # which every run left at zero; those zeros are hashed in their place.
    h.update(np.zeros(model.num_classes, "<i8").tobytes())
    return h.hexdigest()


CASES = list(itertools.product(STRATEGIES, CHANNELS, CODECS))

EXPECTED = {
    ('none', 'ideal', 'float32'): 'f0a189e2c371cc0aabc2d7869cd11ad0671be5cd9c77b9a156cdffbe9c69040c',
    ('none', 'ideal', 'q16'): '760a69469a7314b90c21e84169334d23f7fd00ccc2d744e9cbb3d64a343e82d9',
    ('none', 'ideal', 'q7'): '604ea69e9892a2cf31d1a3cf92b8d58186103bb93d2fb8e754b912446d86dd4c',
    ('none', 'awgn', 'float32'): '2182f6312b5f20383aad7589716326fcd40f091b2f4385e88b000b4e01083ad1',
    ('none', 'awgn', 'q16'): '6d25bffbb012709310907b15a4378a739cc17d8aa65b235b0557e0e7720f5da0',
    ('none', 'awgn', 'q7'): '5c4af32344340f0b3c3fc7be98be293cd5af772aab977c1111e84babd203133f',
    ('none', 'bsc', 'float32'): '05b040f154b2c603d8cc54d22618564d6e3ac8bdae17e71a41df17899b2b45dc',
    ('none', 'bsc', 'q16'): '209367ec631449372547f3128ac9868120bef3d27ca952fabb97435fcf5c4724',
    ('none', 'bsc', 'q7'): '2185145a08ec38cced08a86b254e7608e4f2d3e48fa2893fdc90c0b351fd366a',
    ('none', 'packet_loss', 'float32'): 'd947395abbcc01675898c184b2c8bf84d34764c76b7b03c78f835c58e9045521',
    ('none', 'packet_loss', 'q16'): 'c608a32888371c6fb2f63c985b2def96fbb92819ee8cb7ca0470cfdea5a1f6b2',
    ('none', 'packet_loss', 'q7'): 'b7824bbaf99363076ee057855429e4d40162a27c65f637d83e179db30065f108',
    ('binary_diff', 'ideal', 'float32'): '0aef713797e089be35d9ad08937e38910c78456ae0519f2879c137174e6bc782',
    ('binary_diff', 'ideal', 'q16'): '0aef713797e089be35d9ad08937e38910c78456ae0519f2879c137174e6bc782',
    ('binary_diff', 'ideal', 'q7'): '0aef713797e089be35d9ad08937e38910c78456ae0519f2879c137174e6bc782',
    ('binary_diff', 'awgn', 'float32'): 'bd36c5042adbbd24cd5b7efb753dbd2e30133e74e036f71a687aec3a45ef7917',
    ('binary_diff', 'awgn', 'q16'): 'bd36c5042adbbd24cd5b7efb753dbd2e30133e74e036f71a687aec3a45ef7917',
    ('binary_diff', 'awgn', 'q7'): 'bd36c5042adbbd24cd5b7efb753dbd2e30133e74e036f71a687aec3a45ef7917',
    ('binary_diff', 'bsc', 'float32'): '3e929526fd88e8634c46fb799cac0b1e935792482f2f5c1ab79ea018b8bec5c5',
    ('binary_diff', 'bsc', 'q16'): '3e929526fd88e8634c46fb799cac0b1e935792482f2f5c1ab79ea018b8bec5c5',
    ('binary_diff', 'bsc', 'q7'): '3e929526fd88e8634c46fb799cac0b1e935792482f2f5c1ab79ea018b8bec5c5',
    ('binary_diff', 'packet_loss', 'float32'): '8094f697d1b3bbf7797ba47445ab0c176fdd157e56acfd74937d8c085efca35a',
    ('binary_diff', 'packet_loss', 'q16'): '8094f697d1b3bbf7797ba47445ab0c176fdd157e56acfd74937d8c085efca35a',
    ('binary_diff', 'packet_loss', 'q7'): '8094f697d1b3bbf7797ba47445ab0c176fdd157e56acfd74937d8c085efca35a',
    ('subsample', 'ideal', 'float32'): 'd65814b5940d9184f906443fe7f339ec4da8cc39879ea6ad7f8181a18d0b8f04',
    ('subsample', 'ideal', 'q16'): 'aa2e25b40578a22bdb5259aff11de33b4d8296cd8fb7a413aba7e3213ed66cf2',
    ('subsample', 'ideal', 'q7'): '183d15c78cd4e775973ba5d592627380bb9edd867fa743d51fa1881468df7dac',
    ('subsample', 'awgn', 'float32'): '63285f0663cb6ab345917d312da1beb22369a4f4bcdbc9ef39806466b1c4574f',
    ('subsample', 'awgn', 'q16'): '7ea98955f050f50e934fd613f7083c9e0955f4cfdb475ea8ded6ec32d7b03c21',
    ('subsample', 'awgn', 'q7'): '7344049f7c4c9dbea9ca7afb587e66cceef599918c72de3483728ef493656125',
    ('subsample', 'bsc', 'float32'): 'a04aa408c8c48a24b798ebd3e1b955c3e50b56e24390424574415634a5eb9f59',
    ('subsample', 'bsc', 'q16'): 'dd6fbecf2ca08969c06867cc0d8974b96522a92332379aebc023278e93bfad58',
    ('subsample', 'bsc', 'q7'): '7e131fa9576af533c434a3c76b425c2b18aa843095b2ab2b7b3a4ee0463e8168',
    ('subsample', 'packet_loss', 'float32'): 'd37b00e4c3bd9f6f59810d37622e53cf1cf13221df81c5050e86c186145bbac2',
    ('subsample', 'packet_loss', 'q16'): '03d49fd11fdbad81881bd3447ec7e4a4ee980bf4c683aa9ec64d36b631d71755',
    ('subsample', 'packet_loss', 'q7'): '83bc57c3f54c7571b2b36003666b3087d89ba98eb5db081b4e9473a4d00e0662',
    ('sparsify', 'ideal', 'float32'): '248a545912280cbc6be65617066a899c2c290da380ce5d6d85a0efcc5e5d8a3a',
    ('sparsify', 'ideal', 'q16'): '63ece24672b2a93a19c1c9cec7421d4f75395d21754543604d50caf15bf181c6',
    ('sparsify', 'ideal', 'q7'): '69d06be107c5eb0ed976de4a3b87dc775292930443040e6062c913f1edc91be3',
    ('sparsify', 'awgn', 'float32'): '42c4741b9339dfca93dc0515bed485d348459f29e11eb1fa0d677e4caa09acdb',
    ('sparsify', 'awgn', 'q16'): 'f6b0c8e9275c0b9b5cdc6b0fd3d5b157e88a8a9a3283f7588b3c9faaf528c4a9',
    ('sparsify', 'awgn', 'q7'): '97eb3248b9f841c4db209885e3d44c6cd13c5ba9027d6b52be65b4b25b2ad050',
    ('sparsify', 'bsc', 'float32'): 'a771e3b4e8af08f20805cdad83e20efe7d4ac239c0450a94864579b120fd65a5',
    ('sparsify', 'bsc', 'q16'): '5202359eb4dd9a48bf1d344b95bf6085a25938e5c5c843d6c69084bd6026c643',
    ('sparsify', 'bsc', 'q7'): '02dcbf219e963dbb3e61fdd46d451680190d1589b1a21ea643ecf991335cccbb',
    ('sparsify', 'packet_loss', 'float32'): '808eab0b5a260d554104486c467bf8ed5f9bdc5102f3598adbc4d3671b7fa8b0',
    ('sparsify', 'packet_loss', 'q16'): 'b1ffd9f9ba474a68e49bbe3407752823320041b4a3b7cd892abf0581be25fed9',
    ('sparsify', 'packet_loss', 'q7'): '593b099bbefa3a58c6fb18ee008062f3e4c59fb30e954366c7b69d63290a72b1',
}


@pytest.mark.parametrize("strategy,chan,codec", CASES, ids=["-".join(c) for c in CASES])
def test_results_match_recorded_digest(strategy, chan, codec):
    assert digest(strategy, chan, codec) == EXPECTED[strategy, chan, codec]


RECORD_CASES = list(itertools.product(("none", "sparsify"), ("bsc", "packet_loss"), RECORD_CODECS))
RECORD_CASES += [
    (strategy, chan, "q32")
    for strategy, chan in itertools.product(STRATEGIES, CHANNELS)
    if (strategy, chan, "q32") not in RECORD_CASES
]

RECORD_EXPECTED = {
    ('none', 'bsc', 'q8'): '53c6e416d7facbf75106944717751d063edd82cc5a2075eb533f5212c544472e',
    ('none', 'bsc', 'q32'): 'c1ee1035450a0d4fe4e0f2b666814d94512f922132fc8931977cad7f0d5337ae',
    ('none', 'packet_loss', 'q8'): '78c6bc2ffec61b8b5092b6830118c2ab0c2b479070e2ecd046d5ca4a624bd1d5',
    ('none', 'packet_loss', 'q32'): '5d46527fa1e5eb072d489740607e07871653694eb0ba4dcc48e751deeb539cc1',
    ('sparsify', 'bsc', 'q8'): '299cfb8a806d1de21229187dbe5eb4e5e0a5c567b639d689247a6557255adde1',
    ('sparsify', 'bsc', 'q32'): 'd877bcc359a7d7747bdd875175f9762ff6d14cea7b912fe278edeee357d241b1',
    ('sparsify', 'packet_loss', 'q8'): 'ddf4d034e2dbb3e26c02a82610f32cc0426492ba84b9ca253e5a8404baed1ec4',
    ('sparsify', 'packet_loss', 'q32'): 'a98812b3426460ab117b6eae086584c84df804142161e46a37b9c3d8b2d93f17',
    ('none', 'ideal', 'q32'): 'a2ebfdeb2ba95fd8b7277abfe70c1c20bad467995f9fab6bf5a54ac175ede3d5',
    ('none', 'awgn', 'q32'): '33ea582e40cfa5d6df3c8d4170adb76e6c4768a8c76ab3c189ad46b5087692fc',
    ('binary_diff', 'ideal', 'q32'): '0aef713797e089be35d9ad08937e38910c78456ae0519f2879c137174e6bc782',
    ('binary_diff', 'awgn', 'q32'): 'bd36c5042adbbd24cd5b7efb753dbd2e30133e74e036f71a687aec3a45ef7917',
    ('binary_diff', 'bsc', 'q32'): '3e929526fd88e8634c46fb799cac0b1e935792482f2f5c1ab79ea018b8bec5c5',
    ('binary_diff', 'packet_loss', 'q32'): '8094f697d1b3bbf7797ba47445ab0c176fdd157e56acfd74937d8c085efca35a',
    ('subsample', 'ideal', 'q32'): '7f9ae669cfd2156c117b7599f0512c49fdb85f772ba183a424e6d7ca9ea1d5df',
    ('subsample', 'awgn', 'q32'): '2fd43ab32f28f4bd2ab2416eca5dd059e0177b2be6b8cab9f76f898819cf8099',
    ('subsample', 'bsc', 'q32'): 'a5df0f341700df5f164e5d37ecf158f8fb51385eb499a678a120e7a579ffc503',
    ('subsample', 'packet_loss', 'q32'): '6292b83bae7fe264855624ed694c8d578805999bb978b5db2fbe242350d3caf3',
    ('sparsify', 'ideal', 'q32'): 'f3e9622215f29c0d078860e6e30c7a09464d0e7c2e9480616712da2c43fe244d',
    ('sparsify', 'awgn', 'q32'): 'a4058c86d867830d175731498bd9c866e1604835c0932c7c91e6279fcd5d7a92',
}


@pytest.mark.parametrize("strategy,chan,codec", RECORD_CASES, ids=["-".join(c) for c in RECORD_CASES])
def test_record_codec_results_match_recorded_digest(strategy, chan, codec):
    assert digest(strategy, chan, codec) == RECORD_EXPECTED[strategy, chan, codec]


LINEAR_UPLINKS = {
    "none-ideal": (StrategyConfig(), ChannelConfig()),
    "none-bsc-q16": (
        StrategyConfig(),
        ChannelConfig(kind="bsc", bit_error_rate=0.01, codec=CODECS["q16"]),
    ),
    "sparsify-bsc": (
        StrategyConfig(kind="sparsify", sparsity=0.7),
        ChannelConfig(kind="bsc", bit_error_rate=0.01, codec=CODECS["q16"]),
    ),
    "subsample-awgn": (
        StrategyConfig(kind="subsample", rate=0.3),
        ChannelConfig(kind="awgn", snr_db=10.0),
    ),
}


def linear_task(m):
    """Four overlapping gaussian classes in m features, 155 training rows.
    Twelve noniid shards of 12 rows leave a remainder of 11 for the last
    shard, so one of the six clients holds 35 rows and the others 24."""
    rng = np.random.default_rng(m)
    centers = 3.0 / np.sqrt(2 * m) * rng.standard_normal((4, m))
    labels = rng.integers(0, 4, size=195)
    xs = centers[labels] + rng.standard_normal((195, m))
    phi = make_projection(m, 800, seed=3)
    train = ProjectedQueries(xs[:155], phi)
    return train, labels[:155], ProjectedQueries(xs[155:], phi), labels[155:]


def linear_digest(m, epochs, batch, uplink):
    train, train_labels, test, test_labels = linear_task(m)
    cfg = RoundConfig(
        num_clients=6, participation=0.5, local_epochs=epochs, local_batch=batch,
        learning_rate=0.7, rounds=3, seed=8,
    )
    strategy, channel = LINEAR_UPLINKS[uplink]
    model, records = run_training(
        train, train_labels, test, test_labels, 4,
        partition_noniid(train_labels, 6, 2, seed=2), cfg, channel, strategy,
    )
    return run_digest(model, records)


LINEAR_CASES = list(itertools.product((8, 32), (1, 3), (10, None), LINEAR_UPLINKS))

LINEAR_EXPECTED = {
    (8, 1, 10, 'none-ideal'): '2f2aafba5f7e1568bcd093fff2a529381d50ae0ea0ffe03c401081b3832ef4fe',
    (8, 1, 10, 'none-bsc-q16'): 'e3d0032dd8b8fe7b3ce01289db91ee144960b5c74636b7e1ab2573730e7bafdb',
    (8, 1, 10, 'sparsify-bsc'): 'dc39096deadf3506679c966d7fdf7e523062d43e1de69d235b932ab364462960',
    (8, 1, 10, 'subsample-awgn'): '2edd7db9da649f3fef3f799d7b903c5094ca1411c3aa17c0ce57422a33423160',
    (8, 1, None, 'none-ideal'): '28d1337fbf2fc8ff8ee1f064a17c0b0800c0e55d2595fa4d69d3fe34f83223c5',
    (8, 1, None, 'none-bsc-q16'): '8cb0779e9721b7ce440898300b1dca6352ca0a0070ce3a11340d47d12bf1dfef',
    (8, 1, None, 'sparsify-bsc'): '3cacd75258d7e1147b247896a429768452e7daaa2e6461669cf51c2be9d6b680',
    (8, 1, None, 'subsample-awgn'): 'f0b888aac0615ac926448aeff0c26d0216d9067308148c803e735b11a8a0c56e',
    (8, 3, 10, 'none-ideal'): 'aa95c0cdb46500203913ccca01eacda67d8c4f6b458c627d04eab32d26d49de2',
    (8, 3, 10, 'none-bsc-q16'): 'bd724a9269f045158f2989b547a9f8dd90db8a8fe81c77443cc91930b7dfef5c',
    (8, 3, 10, 'sparsify-bsc'): '503c83717918c693aafe1b871e7e92561fa27a1d5384bf994e850a601a4599eb',
    (8, 3, 10, 'subsample-awgn'): 'f5a98a0cc4b20ad9330790939a4a297325de822ab30c31829e4ffd7e48933d73',
    (8, 3, None, 'none-ideal'): '26e38fa87c6f0b2fad9ad029dd6c388040680958b496ef91849db9deec5990e7',
    (8, 3, None, 'none-bsc-q16'): 'be0fad68433f0122375096757e6a6fd165b6949ca353ec448f4bceebc81cf41c',
    (8, 3, None, 'sparsify-bsc'): 'c5a2669e38fcf19bd757f05aab168eb9769204c74d57fa33978347d124f87cfd',
    (8, 3, None, 'subsample-awgn'): 'a8ee2d741a660435314ec09d3b23adf1bfb057c75805c847c1fd3218bf17cf49',
    (32, 1, 10, 'none-ideal'): '3e5882f3a7034ac267335c31ab5c47b6ffbd1e6bb726f266ef6908139fe4a3a6',
    (32, 1, 10, 'none-bsc-q16'): '3e171f316bdb86bf8a980836adb33063475dd194f2af642db5fe583cde0c0f5b',
    (32, 1, 10, 'sparsify-bsc'): '5d769c3218a67885e16e1462a2b4c8d6a770cf0d9916f8e85c76148fed3391f8',
    (32, 1, 10, 'subsample-awgn'): '3e0df7bef990867c60e0244769bbe5d7803b673883d80ca3ba5e9e296f0a18db',
    (32, 1, None, 'none-ideal'): 'c34e21d5b26e5e4e70b68c179fccece51701edaa2aa10664aa77462d94a72716',
    (32, 1, None, 'none-bsc-q16'): 'e1fe11c1078070f635c9c2f44b4761efd36c4e326a53c1957ae12077bd5c46d9',
    (32, 1, None, 'sparsify-bsc'): 'a437c7dbbd61015a1bfcd7df00eb2ef68011bf84c51660d0263a3ab3c6c5b809',
    (32, 1, None, 'subsample-awgn'): 'a1fbd6d2ac2fafad287bdf4bb2a135a5745b8e7a7b35608dd61256e6ba353a44',
    (32, 3, 10, 'none-ideal'): '080349273dfe17b1340d6a38b497b3b75eabc1da28d0311f043194445d639039',
    (32, 3, 10, 'none-bsc-q16'): '6983dc9a781c564aaa957f16b69c0caecbd300851808fce0cd7e46ebbf7f3262',
    (32, 3, 10, 'sparsify-bsc'): '3f2cd1a10d71b2467a0f77174ccf5040ddfa4e2fa82c598b69ce12dcb548fa60',
    (32, 3, 10, 'subsample-awgn'): '100c3bafa6aaa79f1ecfb67c52788ab8d91e8204a257c508b9749bb638874d6b',
    (32, 3, None, 'none-ideal'): 'c594ddd03af1b838bff7a1cf235eddcfdb50947e953a7006b783540d2e70af2a',
    (32, 3, None, 'none-bsc-q16'): '8b90551a56c3a226326c435d845a8e7c2ba062dfe9a70c783de1316008722b39',
    (32, 3, None, 'sparsify-bsc'): 'a053ec0e93dab6b45289f4ac1e66129e77f40e54bb22cfb411d7965c99c45264',
    (32, 3, None, 'subsample-awgn'): 'cf4808a789c4b41afe980f6c28a6f89fc3b04aa4a1ba2018803839f91a84e65d',
}


@pytest.mark.parametrize(
    "m,epochs,batch,uplink", LINEAR_CASES, ids=["-".join(map(str, c)) for c in LINEAR_CASES]
)
def test_linear_results_match_recorded_digest(m, epochs, batch, uplink):
    assert linear_digest(m, epochs, batch, uplink) == LINEAR_EXPECTED[m, epochs, batch, uplink]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digest(*case)!r},")
    for case in RECORD_CASES:
        print(f"    {case!r}: {digest(*case)!r},")
    for case in LINEAR_CASES:
        print(f"    {case!r}: {linear_digest(*case)!r},")
