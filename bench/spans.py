"""Spans around the library's public functions, recorded from outside.

Each probe replaces a function at the module attribute its caller looks up
(``hdfed.federated.retrain_epoch``, not ``hdfed.hdc.retrain_epoch``), so the
library itself is unchanged. A span has a layer name, start, end, the index
of its parent span, the round and client it ran for, and the counts its
probe reads from the call. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    round: int | None = None
    client: int | None = None
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _retrain_counts(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 1, "hvs")), "mistakes": int(result[1])}


def _channel_bits(args, kwargs, result):
    model, cfg = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "cfg")
    if cfg.kind not in ("bsc", "packet_loss"):
        return {"bits": 0}
    return {"bits": model.vectors.size * cfg.codec.value_bits}


def _frame_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (module, attribute, layer name, counts from (args, kwargs, result) or None)
PROBES = (
    ("hdfed.config", "load_config", "config.load_config", None),
    ("hdfed.harness", "run_experiment", "harness.run_experiment", None),
    ("hdfed.harness", "write_metrics", "harness.write_metrics", None),
    ("hdfed.channel", "write_model", "channel.write_model", None),
    ("hdfed.data", "synth_train_test", "data.load", None),
    ("hdfed.harness", "projection_for", "hdc.projection", None),
    ("hdfed.harness", "encode_batch", "hdc.encode_batch", None),
    ("hdfed.harness", "partition_iid", "federated.partition", None),
    ("hdfed.harness", "run_training", "federated.run_training", None),
    ("hdfed.federated", "sample_clients", "federated.sample_clients", None),
    ("hdfed.federated", "local_update", "federated.local_update", None),
    ("hdfed.federated", "retrain_epoch", "hdc.retrain_epoch", _retrain_counts),
    ("hdfed.federated", "apply_channel", "channel.apply_channel", _channel_bits),
    (
        "hdfed.federated",
        "corrupt_values",
        "channel.corrupt_values",
        lambda a, k, r: {"values": int(r.size)},
    ),
    ("hdfed.federated", "write_model_bytes", "channel.write_model_bytes", _frame_bytes),
    ("hdfed.strategies", "write_model_bytes", "channel.write_model_bytes", _frame_bytes),
    ("hdfed.strategies", "wire_bytes", "strategies.wire_bytes", lambda a, k, r: {"bytes": int(r)}),
    ("hdfed.strategies", "sparsify", "strategies.sparsify", None),
    ("hdfed.strategies", "csc_decompress", "strategies.csc_decompress", None),
    ("hdfed.federated", "aggregate_weighted", "federated.aggregate", None),
    ("hdfed.federated", "accuracy", "hdc.eval", None),
    ("hdfed.federated", "multiclass_margin_loss", "hdc.eval", None),
)


class Tracer:
    """Installs the probes, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._round: int | None = None
        self._client: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counts in PROBES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._probe(fn, name, counts))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _tag(self, name: str, args, kwargs) -> None:
        # Round and client tags come from the arguments the loop passes.
        if name == "federated.sample_clients":
            self._round, self._client = int(_arg(args, kwargs, 2, "round_index")), None
        elif name == "federated.local_update":
            self._client = int(_arg(args, kwargs, 0, "client").client_id)
            self._round = int(_arg(args, kwargs, 3, "round_index"))
        elif name in ("federated.aggregate", "strategies.csc_decompress", "hdc.eval"):
            self._client = None

    def _probe(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._tag(name, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent=parent, round=self._round, client=self._client)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced


def absent_layers(absent: list[str]) -> list[str]:
    """Layers none of whose probed functions exist any more."""
    probes: dict[str, list[str]] = {}
    for module_name, attr, name, _ in PROBES:
        probes.setdefault(name, []).append(f"{module_name}.{attr}")
    return sorted(n for n, where in probes.items() if set(where) <= set(absent))


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer name: calls, total and self seconds, and summed counts.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap in this single-threaded program.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for span, inner in zip(spans, child_time):
        t = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += span.end - span.start
        t["self_s"] += span.end - span.start - inner
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals


def coverage(spans: list[Span]) -> float:
    """Share of the run_training span covered by its direct child spans."""
    roots = [i for i, s in enumerate(spans) if s.name == "federated.run_training"]
    if len(roots) != 1:
        raise ValueError(f"expected one run_training span, found {len(roots)}")
    root = spans[roots[0]]
    covered = sum(s.end - s.start for s in spans if s.parent == roots[0])
    return covered / (root.end - root.start)
