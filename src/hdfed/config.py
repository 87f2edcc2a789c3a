"""Flat key-value experiment configuration.

Config files are plain text lines of ``section.key = value`` with ``#``
comments; the same dotted keys work as command-line overrides. The format is
deliberately trivial to parse and diff. ``KEYS`` maps each key to the field it
sets; a key left unset keeps the field's dataclass default.

Recognized keys (defaults in parentheses):

  data.kind (synth) | csv | hdds      data.train / data.test (paths)
  data.encoded (false)                data.has_header (false)
  data.normalize (false)
  data.synth.classes (8)              data.synth.features (32)
  data.synth.train_per_class (200)    data.synth.test_per_class (100)
  data.synth.separation (2.0)         data.synth.seed (1)
  data.synth.symmetric (false)
  encoder.dim (10000)                 encoder.seed (7)
  encoder.quantize (false)
  round.clients (100)                 round.participation (0.2)
  round.epochs (1)                    round.batch (10 | full)
  round.lr (1.0)                      round.rounds (100)
  round.seed (0)
  partition.kind (iid) | noniid       partition.shards_per_client (2)
  channel.kind (ideal) | awgn | bsc | packet_loss
  channel.snr_db                      channel.bit_error_rate
  channel.packet_bits                 channel.packet_loss_prob
  codec.representation (float32) | quantized_int
  codec.bitwidth (16)
  strategy.kind (none) | binary_diff | subsample | sparsify
  strategy.rate                       strategy.sparsity
  strategy.step (1.0)
  output.metrics (metrics.csv)        output.model (model.hdfm)
  target_accuracy (unset)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable

from .channel import ChannelConfig
from .federated import RoundConfig
from .strategies import StrategyConfig


class ConfigError(ValueError):
    """A config file or override cannot be parsed or validated."""


@dataclass
class SynthSpec:
    classes: int = 8
    features: int = 32
    train_per_class: int = 200
    test_per_class: int = 100
    separation: float = 2.0
    seed: int = 1
    symmetric: bool = False


@dataclass
class DataSpec:
    kind: str = "synth"  # synth | csv | hdds
    train: str | None = None
    test: str | None = None
    encoded: bool = False
    has_header: bool = False
    normalize: bool = False
    synth: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self) -> None:
        if self.kind not in ("synth", "csv", "hdds"):
            raise ConfigError(f"data.kind must be synth, csv, or hdds, got {self.kind!r}")
        if self.kind != "synth" and self.train is None:
            raise ConfigError(f"data.kind={self.kind} requires data.train")


@dataclass
class EncoderSpec:
    dim: int = 10000
    seed: int = 7
    quantize: bool = False


@dataclass
class PartitionSpec:
    kind: str = "iid"  # iid | noniid
    shards_per_client: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "noniid"):
            raise ConfigError(f"partition.kind must be iid or noniid, got {self.kind!r}")


@dataclass
class ExperimentConfig:
    data: DataSpec = field(default_factory=DataSpec)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    round: RoundConfig = field(default_factory=lambda: RoundConfig(num_clients=100))
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    metrics_path: str = "metrics.csv"
    model_path: str = "model.hdfm"
    target_accuracy: float | None = None


def _parse_str(value: str, key: str) -> str:
    return value


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_batch(value: str, key: str) -> int | None:
    return None if value.lower() == "full" else _parse_int(value, key)


# Every accepted key -> (section, field, parser). A section is the dotted
# path of a dataclass inside ExperimentConfig ("" for ExperimentConfig
# itself); a key that is absent keeps that dataclass's default.
KEYS: dict[str, tuple[str, str, Callable[[str, str], object]]] = {
    "data.kind": ("data", "kind", _parse_str),
    "data.train": ("data", "train", _parse_str),
    "data.test": ("data", "test", _parse_str),
    "data.encoded": ("data", "encoded", _parse_bool),
    "data.has_header": ("data", "has_header", _parse_bool),
    "data.normalize": ("data", "normalize", _parse_bool),
    "data.synth.classes": ("data.synth", "classes", _parse_int),
    "data.synth.features": ("data.synth", "features", _parse_int),
    "data.synth.train_per_class": ("data.synth", "train_per_class", _parse_int),
    "data.synth.test_per_class": ("data.synth", "test_per_class", _parse_int),
    "data.synth.separation": ("data.synth", "separation", _parse_float),
    "data.synth.seed": ("data.synth", "seed", _parse_int),
    "data.synth.symmetric": ("data.synth", "symmetric", _parse_bool),
    "encoder.dim": ("encoder", "dim", _parse_int),
    "encoder.seed": ("encoder", "seed", _parse_int),
    "encoder.quantize": ("encoder", "quantize", _parse_bool),
    "round.clients": ("round", "num_clients", _parse_int),
    "round.participation": ("round", "participation", _parse_float),
    "round.epochs": ("round", "local_epochs", _parse_int),
    "round.batch": ("round", "local_batch", _parse_batch),
    "round.lr": ("round", "learning_rate", _parse_float),
    "round.rounds": ("round", "rounds", _parse_int),
    "round.seed": ("round", "seed", _parse_int),
    "partition.kind": ("partition", "kind", _parse_str),
    "partition.shards_per_client": ("partition", "shards_per_client", _parse_int),
    "channel.kind": ("channel", "kind", _parse_str),
    "channel.snr_db": ("channel", "snr_db", _parse_float),
    "channel.bit_error_rate": ("channel", "bit_error_rate", _parse_float),
    "channel.packet_bits": ("channel", "packet_bits", _parse_int),
    "channel.packet_loss_prob": ("channel", "packet_loss_prob", _parse_float),
    "codec.representation": ("channel.codec", "representation", _parse_str),
    "codec.bitwidth": ("channel.codec", "bitwidth", _parse_int),
    "strategy.kind": ("strategy", "kind", _parse_str),
    "strategy.rate": ("strategy", "rate", _parse_float),
    "strategy.sparsity": ("strategy", "sparsity", _parse_float),
    "strategy.step": ("strategy", "step", _parse_float),
    "output.metrics": ("", "metrics_path", _parse_str),
    "output.model": ("", "model_path", _parse_str),
    "target_accuracy": ("", "target_accuracy", _parse_float),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Read ``key = value`` lines into a flat dict, ignoring blanks/comments."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a file plus flat-key overrides."""
    entries: dict[str, str] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            entries.update(parse_config_text(f.read(), source=path))
    if overrides:
        entries.update(overrides)
    return config_from_entries(entries)


def config_from_entries(entries: dict[str, str]) -> ExperimentConfig:
    unknown = sorted(set(entries) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    sections: dict[str, dict[str, object]] = {}
    for key, raw in entries.items():
        section, name, parse = KEYS[key]
        sections.setdefault(section, {})[name] = parse(raw, key)
    try:
        return _with_sections(ExperimentConfig(), "", sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _with_sections(default: object, path: str, sections: dict[str, dict[str, object]]) -> object:
    """``default`` with the parsed fields of section ``path`` and of every
    section nested in it; each dataclass validates itself as it is rebuilt."""
    nested = {
        f.name: _with_sections(getattr(default, f.name), f"{path}.{f.name}".lstrip("."), sections)
        for f in fields(default)
        if is_dataclass(getattr(default, f.name))
    }
    return replace(default, **nested, **sections.get(path, {}))
