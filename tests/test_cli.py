import csv
import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hdfed import cli, harness
from hdfed import config as config_module
from hdfed.channel import _REPRESENTATIONS, ChannelConfig, CodecConfig, read_model
from hdfed.cli import main
from hdfed.config import (
    ConfigError,
    DataSpec,
    EncoderSpec,
    ExperimentConfig,
    PartitionSpec,
    load_config,
    parse_config_text,
)
from hdfed.federated import RoundConfig
from hdfed.strategies import StrategyConfig
from hdfed.data import Dataset, save_binary

BASE_CONFIG = """
# tiny synthetic run
data.kind = synth
data.synth.classes = 3
data.synth.features = 8
data.synth.train_per_class = 30
data.synth.test_per_class = 10
data.synth.separation = 4.0
data.synth.seed = 2
encoder.dim = 256
encoder.seed = 1
round.clients = 4
round.participation = 1.0
round.epochs = 1
round.batch = 10
round.rounds = 4
round.seed = 5
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = open(path).read().strip().splitlines()
    return lines[0], [l for l in lines[1:] if not l.startswith("#")], [
        l for l in lines[1:] if l.startswith("#")
    ]


class TestConfigParsing:
    def test_parse_flat_text(self):
        entries = parse_config_text("a.b = 1\n# comment\n\nc.d = x # trailing\n")
        assert entries == {"a.b": "1", "c.d": "x"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_text("not a pair")

    def test_defaults_mirror_reference_scale(self):
        cfg = load_config(None)
        assert cfg.round.num_clients == 100
        assert cfg.round.participation == 0.2
        assert cfg.round.rounds == 100
        assert cfg.round.local_epochs == 1
        assert cfg.round.local_batch == 10
        assert cfg.encoder.dim == 10000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(None, {"round.clientz": "5"})

    def test_full_batch_keyword(self):
        cfg = load_config(None, {"round.batch": "full"})
        assert cfg.round.local_batch is None

    def test_invalid_channel_kind_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"channel.kind": "carrier_pigeon"})

    def test_environment_does_not_set_the_seed(self, monkeypatch):
        # A run's inputs are its config and overrides: an unset round.seed
        # keeps RoundConfig's, whatever the environment holds.
        for value in ("123", "abc"):
            monkeypatch.setenv("HDFED_SEED", value)
            assert load_config(None).round.seed == RoundConfig.seed

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"data.kind": "parquet", "data.train": "x"}, "data.kind"),
            ({"data.kind": "csv"}, "requires data.train"),
            ({"partition.kind": "random"}, "partition.kind"),
        ],
    )
    def test_data_and_partition_sections_validate_themselves(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            load_config(None, overrides)
        section = DataSpec if "data.kind" in overrides else PartitionSpec
        with pytest.raises(ConfigError, match=match):
            section(**{k.split(".")[-1]: v for k, v in overrides.items()})


def flat_fields(obj, prefix=""):
    """Every leaf field of a nested config dataclass, by dotted path."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(flat_fields(value, f"{prefix}{f.name}."))
        else:
            out[f"{prefix}{f.name}"] = value
    return out


# (overrides, field path, expected): the first override is the key under
# test, any further ones are what it needs to validate.
KEY_CASES = [
    ({"data.kind": "csv", "data.train": "a.csv"}, "data.kind", "csv"),
    ({"data.train": "a.csv"}, "data.train", "a.csv"),
    ({"data.test": "b.csv"}, "data.test", "b.csv"),
    ({"data.encoded": "true"}, "data.encoded", True),
    ({"data.has_header": "YES"}, "data.has_header", True),
    ({"data.normalize": "on"}, "data.normalize", True),
    ({"data.synth.classes": "5"}, "data.synth.classes", 5),
    ({"data.synth.features": "12"}, "data.synth.features", 12),
    ({"data.synth.train_per_class": "30"}, "data.synth.train_per_class", 30),
    ({"data.synth.test_per_class": "20"}, "data.synth.test_per_class", 20),
    ({"data.synth.separation": "3.5"}, "data.synth.separation", 3.5),
    ({"data.synth.seed": "9"}, "data.synth.seed", 9),
    ({"data.synth.symmetric": "1"}, "data.synth.symmetric", True),
    ({"encoder.dim": "512"}, "encoder.dim", 512),
    ({"encoder.seed": "11"}, "encoder.seed", 11),
    ({"encoder.quantize": "True"}, "encoder.quantize", True),
    ({"round.clients": "12"}, "round.num_clients", 12),
    ({"round.participation": "0.5"}, "round.participation", 0.5),
    ({"round.epochs": "3"}, "round.local_epochs", 3),
    ({"round.batch": "full"}, "round.local_batch", None),
    ({"round.lr": "0.25"}, "round.learning_rate", 0.25),
    ({"round.rounds": "4"}, "round.rounds", 4),
    ({"round.seed": "13"}, "round.seed", 13),
    ({"partition.kind": "noniid"}, "partition.kind", "noniid"),
    ({"partition.shards_per_client": "3"}, "partition.shards_per_client", 3),
    ({"channel.kind": "awgn", "channel.snr_db": "10"}, "channel.kind", "awgn"),
    ({"channel.snr_db": "-3"}, "channel.snr_db", -3.0),
    ({"channel.bit_error_rate": "1e-3"}, "channel.bit_error_rate", 1e-3),
    ({"channel.packet_bits": "64"}, "channel.packet_bits", 64),
    ({"channel.packet_loss_prob": "0.1"}, "channel.packet_loss_prob", 0.1),
    ({"codec.representation": "quantized_int"}, "channel.codec.representation", "quantized_int"),
    ({"codec.bitwidth": "8"}, "channel.codec.bitwidth", 8),
    ({"strategy.kind": "binary_diff"}, "strategy.kind", "binary_diff"),
    ({"strategy.rate": "0.3", "strategy.kind": "subsample"}, "strategy.rate", 0.3),
    ({"strategy.sparsity": "0.9", "strategy.kind": "sparsify"}, "strategy.sparsity", 0.9),
    ({"strategy.step": "2"}, "strategy.step", 2.0),
    ({"output.metrics": "run.csv"}, "metrics_path", "run.csv"),
    ({"output.model": "run.hdfm"}, "model_path", "run.hdfm"),
    ({"target_accuracy": "0.8"}, "target_accuracy", 0.8),
    # spellings: an integer batch next to full, and the false booleans
    ({"round.batch": "7"}, "round.local_batch", 7),
    ({"data.encoded": "off"}, "data.encoded", False),
    ({"data.normalize": "No"}, "data.normalize", False),
    ({"encoder.quantize": "0"}, "encoder.quantize", False),
    ({"data.synth.symmetric": "FALSE"}, "data.synth.symmetric", False),
]
FIELD_OF = {}
for _overrides, _path, _ in KEY_CASES:
    FIELD_OF.setdefault(next(iter(_overrides)), _path)


class TestKeyTable:
    def test_documented_keys_are_the_accepted_keys(self):
        doc = config_module.__doc__.split("Recognized keys", 1)[1]
        doc = re.sub(r"\([^)]*\)", "", doc)  # defaults may look like keys
        documented = set(re.findall(r"\b(?:[a-z_]+\.[a-z_.]*[a-z_]|target_accuracy)\b", doc))
        assert documented == set(config_module.KEYS)
        assert len(documented) == 39
        assert set(FIELD_OF) == documented

    @pytest.mark.parametrize(
        "section, default",
        [
            ("data", DataSpec()),
            ("encoder", EncoderSpec()),
            ("round", RoundConfig(num_clients=100)),
            ("partition", PartitionSpec()),
            ("channel", ChannelConfig()),
            ("strategy", StrategyConfig()),
            ("metrics_path", "metrics.csv"),
            ("model_path", "model.hdfm"),
            ("target_accuracy", None),
        ],
    )
    def test_no_keys_give_the_dataclass_defaults(self, section, default):
        assert getattr(load_config(None), section) == default

    @pytest.mark.parametrize(
        "overrides, path, expected", KEY_CASES, ids=[f"{c[1]}={c[2]}" for c in KEY_CASES]
    )
    def test_each_key_sets_its_own_field(self, overrides, path, expected):
        _, *needs = overrides
        got = flat_fields(load_config(None, overrides))
        default = flat_fields(ExperimentConfig())
        assert got[path] == expected
        moved = {p for p in got if got[p] != default[p]}
        assert moved <= {path, *(FIELD_OF[k] for k in needs)}

    def test_raw_int32_codec_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown representation 'int32'"):
            load_config(None, {"codec.representation": "int32"})


class TestTrainCommand:
    def test_writes_metrics_and_model(self, tmp_path):
        cfg = write_config(tmp_path)
        metrics = str(tmp_path / "m.csv")
        model = str(tmp_path / "model.hdfm")
        rc = main(
            ["train", "--config", cfg, "--set", f"output.metrics={metrics}",
             "--set", f"output.model={model}"]
        )
        assert rc == 0
        header, rows, comments = read_rows(metrics)
        assert header == (
            "round,accuracy,train_loss,uplink_bytes_cum,downlink_bytes_cum,"
            "participants,wall_ms"
        )
        assert len(rows) == 4
        stored, codec = read_model(model)
        assert stored.vectors.shape == (3, 256)
        assert codec.representation == "float32"

    def test_target_accuracy_summary_line(self, tmp_path):
        cfg = write_config(tmp_path)
        metrics = str(tmp_path / "m.csv")
        rc = main(
            ["train", "--config", cfg,
             "--set", f"output.metrics={metrics}",
             "--set", f"output.model={tmp_path / 'x.hdfm'}",
             "--set", "target_accuracy=0.5"]
        )
        assert rc == 0
        _, _, comments = read_rows(metrics)
        assert len(comments) == 1
        assert "reached_round=" in comments[0]
        assert "uplink_bytes_cum=" in comments[0]

    def test_invalid_channel_kind_exits_nonzero_before_running(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "channel.kind = smoke_signal\n")
        metrics = str(tmp_path / "never.csv")
        rc = main(["train", "--config", cfg, "--set", f"output.metrics={metrics}"])
        assert rc != 0
        assert not os.path.exists(metrics)

    def test_raw_int32_codec_exits_2_before_loading_data(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        metrics, model = tmp_path / "never.csv", tmp_path / "never.hdfm"
        rc = main(
            ["train", "--config", write_config(tmp_path), "--set", "codec.representation=int32",
             "--set", f"output.metrics={metrics}", "--set", f"output.model={model}"]
        )
        assert rc == 2
        assert "unknown representation 'int32'" in capsys.readouterr().err
        assert not metrics.exists() and not model.exists()

    def test_encoder_dim_below_feature_count_exits_2_before_round_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # The default synthetic data has 32 features, so d = 16 cannot hold them.
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "run_training", no_training)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--set", "encoder.dim=16"]) == 2
        assert "encoder.dim (16) must be >= the feature count (32)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("quantize", ["false", "true"], ids=["linear", "signs"])
    @pytest.mark.parametrize(
        "codec",
        [
            CodecConfig(rep, width)
            for rep in _REPRESENTATIONS
            for width in ((2, 12, 16, 32) if rep == "quantized_int" else (16,))
        ],
        ids=lambda c: f"{c.representation}{c.bitwidth}",
    )
    def test_every_codec_trains_and_writes_a_readable_model(self, tmp_path, codec, quantize):
        # Two participants a round average their models, so from round 2
        # on a codec carries non-integral values.
        metrics, model = tmp_path / "m.csv", str(tmp_path / "model.hdfm")
        overrides = {
            "round.rounds": 2, "round.participation": 0.5, "encoder.quantize": quantize,
            "codec.representation": codec.representation, "codec.bitwidth": codec.bitwidth,
            "output.metrics": metrics, "output.model": model,
        }
        argv = ["train", "--config", write_config(tmp_path)]
        assert main(argv + [a for k, v in overrides.items() for a in ("--set", f"{k}={v}")]) == 0
        _, rows, _ = read_rows(metrics)
        assert [r.split(",")[5] for r in rows] == ["2", "2"]
        stored, got = read_model(model)
        assert got == codec
        assert stored.vectors.shape == (3, 256) and np.isfinite(stored.vectors).all()

    def test_deterministic_metrics_modulo_wall_clock(self, tmp_path):
        cfg = write_config(tmp_path)

        def run(name):
            metrics = str(tmp_path / name)
            rc = main(
                ["train", "--config", cfg,
                 "--set", f"output.metrics={metrics}",
                 "--set", f"output.model={tmp_path / (name + '.hdfm')}"]
            )
            assert rc == 0
            lines = open(metrics).read().strip().splitlines()
            return ["," .join(l.split(",")[:-1]) for l in lines]  # drop wall_ms

        assert run("a.csv") == run("b.csv")

    def test_byte_cumulative_columns_non_decreasing(self, tmp_path):
        cfg = write_config(tmp_path)
        metrics = str(tmp_path / "m.csv")
        main(["train", "--config", cfg, "--set", f"output.metrics={metrics}",
              "--set", f"output.model={tmp_path / 'x.hdfm'}"])
        _, rows, _ = read_rows(metrics)
        up = [int(r.split(",")[3]) for r in rows]
        down = [int(r.split(",")[4]) for r in rows]
        assert up == sorted(up) and down == sorted(down)


class TestEncodeEvalCommands:
    @pytest.fixture()
    def csv_dataset(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(60):
            label = i % 2
            center = 3.0 if label else -3.0
            feats = center + rng.standard_normal(4)
            rows.append(",".join(f"{v:.5f}" for v in feats) + f",{label}")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_encode_then_train_consumes_encoded_file(self, tmp_path, csv_dataset):
        encoded = str(tmp_path / "enc.hdds")
        rc = main(
            ["encode", "--data", csv_dataset, "--dim", "128", "--seed", "3", "--out", encoded]
        )
        assert rc == 0
        metrics = str(tmp_path / "m.csv")
        rc = main(
            ["train",
             "--set", "data.kind=hdds",
             "--set", f"data.train={encoded}",
             "--set", "data.encoded=true",
             "--set", "round.clients=2",
             "--set", "round.participation=1.0",
             "--set", "round.rounds=3",
             "--set", f"output.metrics={metrics}",
             "--set", f"output.model={tmp_path / 'model.hdfm'}"]
        )
        assert rc == 0
        _, rows, _ = read_rows(metrics)
        assert len(rows) == 3

    def test_encoded_output_size(self, tmp_path, csv_dataset):
        encoded = str(tmp_path / "enc.hdds")
        main(["encode", "--data", csv_dataset, "--dim", "128", "--out", encoded])
        # 18-byte header + n * d * 4 + n * 2
        assert os.path.getsize(encoded) == 18 + 60 * 128 * 4 + 60 * 2

    def test_encode_deterministic_bytes(self, tmp_path, csv_dataset):
        a, b = str(tmp_path / "a.hdds"), str(tmp_path / "b.hdds")
        main(["encode", "--data", csv_dataset, "--dim", "64", "--seed", "5", "--out", a])
        main(["encode", "--data", csv_dataset, "--dim", "64", "--seed", "5", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_eval_trained_model(self, tmp_path, csv_dataset, capsys):
        metrics = str(tmp_path / "m.csv")
        model = str(tmp_path / "model.hdfm")
        main(
            ["train",
             "--set", "data.kind=csv",
             "--set", f"data.train={csv_dataset}",
             "--set", "encoder.dim=128",
             "--set", "encoder.seed=3",
             "--set", "round.clients=2",
             "--set", "round.participation=1.0",
             "--set", "round.rounds=5",
             "--set", f"output.metrics={metrics}",
             "--set", f"output.model={model}"]
        )
        rc = main(
            ["eval", "--model", model, "--data", csv_dataset, "--dim", "128", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy 1.0000" in out
        assert "class 0" in out and "class 1" in out

    def test_eval_random_model_scores_chance(self, tmp_path, capsys):
        from hdfed.channel import write_model
        from hdfed.hdc import ClassPrototypes

        # balanced labels on pure-noise features: a random model flips coins
        rng = np.random.default_rng(0)
        rows = [
            ",".join(f"{v:.5f}" for v in rng.standard_normal(4)) + f",{i % 2}"
            for i in range(200)
        ]
        data = tmp_path / "noise.csv"
        data.write_text("\n".join(rows) + "\n")
        model = ClassPrototypes(rng.standard_normal((2, 128)))
        path = str(tmp_path / "random.hdfm")
        write_model(model, path)
        rc = main(["eval", "--model", path, "--data", str(data), "--dim", "128", "--seed", "3"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[0]
        overall = float(line.split()[1])
        assert abs(overall - 0.5) <= 0.15

    def test_eval_scores_raw_features_with_the_same_lines(self, tmp_path, capsys, monkeypatch):
        # A linear encoding is scored from the raw features; the printed
        # lines equal those of scoring the encoded rows. The sign encoding
        # is not linear and is still encoded.
        from hdfed.channel import write_model
        from hdfed.hdc import ClassPrototypes, ProjectedQueries, encode_batch

        rng = np.random.default_rng(4)
        rows = [
            ",".join(f"{v:.5f}" for v in rng.standard_normal(5)) + f",{i % 3}"
            for i in range(90)
        ]
        data = tmp_path / "noise.csv"
        data.write_text("\n".join(rows) + "\n")
        path = str(tmp_path / "random.hdfm")
        write_model(ClassPrototypes(rng.standard_normal((3, 96))), path)
        seen = []
        predict = cli.predict_batch

        def spy(model, queries):
            seen.append(type(queries))
            return predict(model, queries)

        monkeypatch.setattr(cli, "predict_batch", spy)
        args = ["eval", "--model", path, "--data", str(data), "--dim", "96", "--seed", "3"]
        assert main(args) == 0
        projected = capsys.readouterr().out
        assert main(args + ["--quantize"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            cli, "eval_queries", lambda spec, phi, ds: encode_batch(phi, ds.features)
        )
        assert main(args) == 0
        assert capsys.readouterr().out == projected
        assert len(projected.splitlines()) == 4
        assert seen == [ProjectedQueries, np.ndarray, np.ndarray]

    def test_eval_dimension_mismatch_fails(self, tmp_path, csv_dataset):
        model = str(tmp_path / "model.hdfm")
        main(
            ["train",
             "--set", "data.kind=csv",
             "--set", f"data.train={csv_dataset}",
             "--set", "encoder.dim=128",
             "--set", "round.clients=2",
             "--set", "round.rounds=1",
             "--set", f"output.metrics={tmp_path / 'm.csv'}",
             "--set", f"output.model={model}"]
        )
        rc = main(["eval", "--model", model, "--data", csv_dataset, "--dim", "64"])
        assert rc != 0


class TestSweepCommand:
    def test_grid_produces_one_file_per_cell(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = str(tmp_path / "sweep")
        rc = main(
            ["sweep", "--config", cfg, "--out-dir", out_dir,
             "--grid", "E=1,2", "--grid", "B=5,10"]
        )
        assert rc == 0
        files = sorted(os.listdir(out_dir))
        assert sum(f.endswith(".csv") and f != "summary.csv" for f in files) == 4
        summary = open(os.path.join(out_dir, "summary.csv")).read().splitlines()
        assert summary[0].startswith("cell,round.epochs,round.batch,status")
        assert len(summary) == 5

    def test_empty_grid_runs_base_only(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = str(tmp_path / "sweep0")
        rc = main(["sweep", "--config", cfg, "--out-dir", out_dir])
        assert rc == 0
        files = os.listdir(out_dir)
        assert sum(f.endswith(".csv") and f != "summary.csv" for f in files) == 1

    def test_cell_failure_recorded_and_sweep_continues(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = str(tmp_path / "sweepF")
        rc = main(
            ["sweep", "--config", cfg, "--out-dir", out_dir,
             "--grid", "d=64,4"]  # d=4 < input_dim=8 fails
        )
        assert rc == 0
        summary = open(os.path.join(out_dir, "summary.csv")).read()
        assert ",ok," in summary and ",error," in summary

    def test_failed_cell_records_exception_type_and_message(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = str(tmp_path / "sweepE")
        rc = main(["sweep", "--config", cfg, "--out-dir", out_dir, "--grid", "C=1.0,1.5"])
        assert rc == 0
        with open(os.path.join(out_dir, "summary.csv"), newline="") as f:
            text = f.read()
        header, ok, failed = csv.reader(text.splitlines())
        assert header[-1] == "error" and len(failed) == len(header)
        assert ok[:3] == ["cell000_participation=1.0", "1.0", "ok"] and len(ok) == len(header) - 1
        assert failed[:5] == ["cell001_participation=1.5", "1.5", "error", "", ""]
        kind, message = failed[-1].split(": ", 1)
        assert kind.endswith("Error") and "1.5" in message
        assert '"' in text.splitlines()[2]  # the message holds a comma, so it is quoted

    def test_path_valued_grid_key_names_cells_without_separators(self, tmp_path):
        rows = "\n".join(f"{3.0 * (i % 2) + 0.1 * i},{-0.2 * i},{i % 2}" for i in range(40))
        (tmp_path / "dir").mkdir()
        for name in ("a.csv", os.path.join("dir", "b.csv")):
            (tmp_path / name).write_text(rows + "\n")
        out_dir = tmp_path / "sweepP"
        rc = main(
            ["sweep", "--out-dir", str(out_dir),
             "--set", "data.kind=csv", "--set", "encoder.dim=64",
             "--set", "round.clients=2", "--set", "round.rounds=1",
             "--grid", f"data.train={tmp_path / 'a.csv'},{tmp_path / 'dir' / 'b.csv'}"]
        )
        assert rc == 0
        with open(out_dir / "summary.csv", newline="") as f:
            _, *cells = csv.reader(f)
        assert [row[2] for row in cells] == ["ok", "ok"]
        assert cells[1][1] == str(tmp_path / "dir" / "b.csv")  # the raw value
        tag = str(tmp_path / "dir" / "b.csv").replace(os.sep, "-")
        assert os.path.exists(out_dir / f"cell001_train={tag}.csv")
        assert os.path.exists(out_dir / f"cell001_train={tag}.hdfm")

    @pytest.mark.parametrize(
        "grids", [["E=1,2", "E=3"], ["E=1", "round.epochs=2"]], ids=["repeated", "alias"]
    )
    def test_repeated_grid_key_rejected_before_any_cell(self, tmp_path, grids, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "sweepR"
        argv = ["sweep", "--config", cfg, "--out-dir", str(out_dir)]
        rc = main(argv + [arg for g in grids for arg in ("--grid", g)])
        assert rc == 2
        assert "round.epochs is given more than once" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_dimensionality_grid_layout(self, tmp_path):
        # the dimensionality-study shape: one cell per hyperspace size
        cfg = write_config(tmp_path)
        out_dir = str(tmp_path / "sweepd")
        rc = main(
            ["sweep", "--config", cfg, "--out-dir", out_dir,
             "--grid", "d=128,256,512"]
        )
        assert rc == 0
        summary = open(os.path.join(out_dir, "summary.csv")).read().splitlines()
        assert len(summary) == 4 and summary[0].startswith("cell,encoder.dim,")


class TestDeterminism:
    def test_blas_thread_count_does_not_change_results(self, tmp_path):
        """Results depend only on config and seed: the metrics (wall_ms
        aside) and the final model frame match with 1 and 2 BLAS threads."""
        cfg = write_config(
            tmp_path,
            BASE_CONFIG.replace("encoder.dim = 256", "encoder.dim = 4096")
            .replace("features = 8", "features = 64")
            .replace("train_per_class = 30", "train_per_class = 200")
            + "channel.kind = bsc\nchannel.bit_error_rate = 0.001\n"
            + "codec.representation = quantized_int\ncodec.bitwidth = 16\n"
            + "strategy.kind = sparsify\nstrategy.sparsity = 0.9\n",
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in ("1", "2"):
            metrics, model = tmp_path / f"m{threads}.csv", tmp_path / f"m{threads}.hdfm"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            env.pop("OMP_NUM_THREADS", None)
            subprocess.run(
                [sys.executable, "-m", "hdfed.cli", "train", "--config", cfg,
                 "--set", f"output.metrics={metrics}", "--set", f"output.model={model}"],
                env=env, check=True, capture_output=True, timeout=120,
            )
            rows = metrics.read_text().splitlines()
            assert rows[0].endswith(",wall_ms")
            outputs.append(([r.rsplit(",", 1)[0] for r in rows], model.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_linear_noniid_epochs_run_is_blas_thread_invariant(self, tmp_path):
        """The linear path with unequal noniid clients, half of them a round,
        and two local epochs: the lockstep retrain, the replay of each
        client's mistakes and the later epoch's start from the client's own
        model give the same metrics (wall_ms aside) and model frame with 1
        and 2 BLAS threads. 410 rows in 20 shards of 20 leave one client 50."""
        cfg = write_config(
            tmp_path,
            BASE_CONFIG.replace("encoder.dim = 256", "encoder.dim = 2000")
            .replace("classes = 3", "classes = 10")
            .replace("features = 8", "features = 32")
            .replace("train_per_class = 30", "train_per_class = 41")
            .replace("separation = 4.0", "separation = 3.0")
            .replace("round.clients = 4", "round.clients = 10")
            .replace("round.participation = 1.0", "round.participation = 0.5")
            .replace("round.epochs = 1", "round.epochs = 2")
            + "partition.kind = noniid\n",
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in ("1", "2"):
            metrics, model = tmp_path / f"m{threads}.csv", tmp_path / f"m{threads}.hdfm"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            env.pop("OMP_NUM_THREADS", None)
            subprocess.run(
                [sys.executable, "-m", "hdfed.cli", "train", "--config", cfg,
                 "--set", f"output.metrics={metrics}", "--set", f"output.model={model}"],
                env=env, check=True, capture_output=True, timeout=120,
            )
            rows = metrics.read_text().splitlines()
            assert rows[0].endswith(",wall_ms")
            outputs.append(([r.rsplit(",", 1)[0] for r in rows], model.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_linear_encoder_run_is_bitwise_blas_thread_invariant(self, tmp_path):
        """With a linear encoder the eval scores the raw features by fixed-order
        products, so every record's train_loss and test_accuracy floats, not
        only their printed digits, match with 1 and 2 BLAS threads. At K=10,
        d=2000 and 3000 test rows, scoring the encoded rows with a gemm gave
        a train_loss that differed in the last bit. Clients retrain in
        feature space from fixed-order products and replay their mistakes
        on encoded rows, so the float64 model's bytes match too."""
        cfg = write_config(
            tmp_path,
            BASE_CONFIG.replace("encoder.dim = 256", "encoder.dim = 2000")
            .replace("classes = 3", "classes = 10")
            .replace("features = 8", "features = 32")
            .replace("test_per_class = 10", "test_per_class = 300")
            .replace("separation = 4.0", "separation = 3.6")
            .replace("data.synth.seed = 2", "data.synth.seed = 1")
            .replace("round.rounds = 4", "round.rounds = 3")
            .replace("round.seed = 5", "round.seed = 2"),
        )
        script = (
            "import sys\n"
            "from hdfed.config import load_config\n"
            "from hdfed.harness import run_experiment\n"
            "import hashlib\n"
            "result = run_experiment(load_config(sys.argv[1]))\n"
            "for r in result.records:\n"
            "    print(repr(r.train_loss), repr(r.test_accuracy))\n"
            "print(hashlib.sha256(result.model.vectors.tobytes()).hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            env.pop("OMP_NUM_THREADS", None)
            done = subprocess.run(
                [sys.executable, "-c", script, cfg],
                env=env, check=True, capture_output=True, text=True, timeout=120,
            )
            outputs.append(done.stdout.splitlines())
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]
