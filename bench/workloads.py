"""The benchmark's workloads: configs, generated inputs, pins and invariants.

Every input is a function of the workload seed. The program sees only the
config file written here; it never receives the seed as anything but config
values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


HEADER_BYTES = 14  # HDFM magic, version, K, d, codec tag


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    classes: int
    dim: int
    accuracy_floor: float
    keys: dict = field(default_factory=dict)  # flat config keys besides data/output

    def config_text(self, seed: int, workdir: str) -> str:
        keys = {
            "encoder.dim": self.dim,
            "encoder.seed": seed,
            "round.rounds": self.rounds,
            "round.seed": seed,
            "round.epochs": 1,
            "round.batch": 10,
            **self.keys,
            "data.kind": "synth",
            "data.synth.seed": seed,
            "output.metrics": os.path.join(workdir, "metrics.csv"),
            "output.model": os.path.join(workdir, "model.hdfm"),
        }
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def frame_bytes(self) -> int | None:
        """Analytic HDFM frame size for strategy none, else None."""
        if self.keys.get("strategy.kind", "none") != "none":
            return None
        if self.keys.get("codec.representation") == "quantized_int":
            bits = int(self.keys["codec.bitwidth"])
            return HEADER_BYTES + 8 * self.classes + -(-self.classes * self.dim * bits // 8)
        return HEADER_BYTES + 4 * self.classes * self.dim


# The acceptance C9 task: 10 classes, 32 features, 300/100 per class,
# separation 3.6, d=2000, 20 clients at full participation.
_C9 = {
    "data.synth.classes": 10,
    "data.synth.features": 32,
    "data.synth.train_per_class": 300,
    "data.synth.test_per_class": 100,
    "data.synth.separation": 3.6,
    "round.clients": 20,
    "round.participation": 1.0,
}
_BSC_Q16 = {
    "channel.kind": "bsc",
    "channel.bit_error_rate": 1e-3,
    "codec.representation": "quantized_int",
    "codec.bitwidth": 16,
}

# Why each workload was chosen is recorded in BENCHMARK.json. Round counts
# keep the tail at p75 (see tail_percentile in run.py): higher percentiles
# of this machine's round times follow its bursts of slow rounds, not the
# program.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c9_ideal",
            rounds=12,
            classes=10,
            dim=2000,
            accuracy_floor=0.6,
            keys=dict(_C9),
        ),
        Workload(
            "c9_bsc_q16",
            rounds=10,
            classes=10,
            dim=2000,
            accuracy_floor=0.6,
            keys={**_C9, **_BSC_Q16},
        ),
        Workload(
            "c9_sparse_bsc",
            rounds=12,
            classes=10,
            dim=2000,
            accuracy_floor=0.6,
            keys={**_C9, **_BSC_Q16, "strategy.kind": "sparsify", "strategy.sparsity": 0.9},
        ),
    )
}


def write_inputs(workload: Workload, seed: int, workdir: str) -> str:
    """Write every input of one workload run; return the config path."""
    path = os.path.join(workdir, "run.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.write(workload.config_text(seed, workdir))
    return path


# Behaviour gate at the default seed: sha256 of the metrics CSV with the
# wall_ms column removed, and of the final HDFM frame. Every result record
# carries both digests; a change that alters results on purpose updates
# these from the records of a seed-0 run.
DEFAULT_SEED = 0
PINS: dict[str, dict[str, str]] = {
    "c9_ideal": {
        "metrics_sha256": "0bfe8148b83660e2c65ca50bae7023bb9553bcc45196b33a7cfc27abcf956136",
        "model_sha256": "1b2760cb7485a9c372dd8af0d2f729cb8d3b48eafbd681bf4423073c5ade7212",
    },
    "c9_bsc_q16": {
        "metrics_sha256": "374b447a0ac4822e9aadbd44869a6075a13a921de6d7a17862025cbda663d9cd",
        "model_sha256": "f17fdb5a4fb56e1b846f1c1130fb73e444d7df9831f9731aba049a28132b31d7",
    },
    "c9_sparse_bsc": {
        "metrics_sha256": "ecea3e38f4f698a1f9a4bc55b476b820f3feffdda9216bc3f3ebfc25553b4799",
        "model_sha256": "b11f6def47ccbac3d784a21201da873969d19383416d04136565a78cf4e4814e",
    },
}
