"""The example scripts' tables at the tiny arguments CI runs them with.

Each script runs in a subprocess at one BLAS thread. Every printed column
except ``time`` must equal the table the script printed when it still built
its own projection, partition and round config, so these pins also check
that its flat config keys select the same experiment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def table(script: str, *args: str) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.splitlines()


TINY = ("--clients", "4", "--rounds", "2")


def test_channel_robustness_table():
    rows = table("channel_robustness.py", *TINY, "--dim", "256")
    # The last column is the run's time.
    assert [row.rsplit(None, 1)[0] for row in rows] == [
        "channel                       accuracy  vs ideal",
        "ideal                           0.9163   +0.0000",
        "packet loss p_p=0.2             0.9263   +0.0100",
        "awgn -10.0 dB                   0.7688   -0.1475",
        "bsc p_e=0.001 float32           0.2263   -0.6900",
        "bsc p_e=0.001 quant16           0.9237   +0.0075",
    ]
    assert all(row.endswith("s") for row in rows[1:])


def test_strategy_tradeoffs_table():
    assert table("strategy_tradeoffs.py", *TINY, "--dim", "256") == [
        "strategy                  accuracy  vs base  uplink/round  reduction",
        "baseline (full model)       0.9150  +0.0000       41,016B       1.0x",
        "binary differential         0.9090  -0.0060        1,336B      30.7x",
        "10% subsample               0.9080  -0.0070        4,200B       9.8x",
        "90% sparsify                0.9150  +0.0000        8,536B       4.8x",
    ]


@pytest.mark.parametrize("out", [False, True], ids=["table", "csv"])
def test_dimensionality_study_table(tmp_path, out):
    path = tmp_path / "dims.csv"
    rows = table("dimensionality_study.py", *TINY, "--dims", "256", *(["--out", str(path)] if out else []))
    assert rows[:2] == [
        "       d   accuracy  rounds",
        "     256     0.5885       2",
    ]
    if out:
        assert rows[2:] == [f"wrote {path}"]
        assert path.read_text() == "d,accuracy\n256,0.588542\n"
    else:
        assert rows[2:] == []
