"""What the benchmark relies on from the library, checked by running it.

For every workload in bench/workloads.py, traced and untraced,
bench/worker.py runs once at the default seed in a fresh process, the way
bench/run.py starts it. The worker checks the seed-0 pins, the analytic
frame size of strategy none, that traced wire_bytes calls sum to the
metrics uplink, and sum(wall_ms) against the timed loop; a traced run also
needs every probed function to exist. Any of these failing would leave a
benchmark run without a result. At seeds other than the default, where no
pin applies, two runs of c9_ideal must pass and agree with each other.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

_spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(BENCH, "workloads.py"))
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def run_worker(name, seed, trace, workdir):
    """One bench/worker.py run in a fresh process; returns its record."""
    config = workloads.write_inputs(workloads.WORKLOADS[name], seed, str(workdir))
    out = workdir / "record.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--config", config,
        "--workload", name,
        "--seed", str(seed),
        "--trace", str(trace),
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_worker_run_meets_the_benchmark_contract(name, trace, tmp_path):
    record = run_worker(name, workloads.DEFAULT_SEED, trace, tmp_path)
    assert record["failures"] == []
    if trace:
        assert record["absent_layers"] == []


@pytest.mark.parametrize("seed", [1, 2])
def test_repetitions_of_an_unpinned_seed_agree(seed, tmp_path):
    # bench/run.py fails a run whose repetitions of one seed differ, and only
    # seed 0 is pinned. Work directories of different path lengths move the
    # config and output paths, and with them the process's allocations.
    records = []
    for workdir in (tmp_path / "a", tmp_path / ("b" * 40) / "c"):
        workdir.mkdir(parents=True)
        records.append(run_worker("c9_ideal", seed, 0, workdir))
    assert [r["failures"] for r in records] == [[], []]
    for key in ("metrics_sha256", "model_sha256"):
        assert records[0][key] == records[1][key]
