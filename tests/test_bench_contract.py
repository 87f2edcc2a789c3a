"""What the benchmark relies on from the library, checked by running it.

For every workload in bench/workloads.py, traced and untraced,
bench/worker.py runs once at the default seed in a fresh process, the way
bench/run.py starts it. The worker checks the seed-0 pins, the analytic
frame size of strategy none, that traced wire_bytes calls sum to the
metrics uplink, and sum(wall_ms) against the timed loop; a traced run also
needs every probed function to exist. Any of these failing would leave a
benchmark run without a result.
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


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_worker_run_meets_the_benchmark_contract(name, trace, tmp_path):
    config = workloads.write_inputs(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, str(tmp_path))
    out = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--config", config,
        "--workload", name,
        "--seed", str(workloads.DEFAULT_SEED),
        "--trace", str(trace),
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["failures"] == []
    if trace:
        assert record["absent_layers"] == []
