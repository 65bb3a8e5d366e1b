"""The determinism contract across BLAS thread counts.

Output files are byte-identical for a fixed library build and BLAS
thread count. At another thread count the BLAS may sum in another
order, so the promise there is that every number agrees to
``1e-12 * max(1, |x|)`` and everything else is equal. The product path
makes no BLAS call whose result depends on the thread count, so its
outputs stay byte-identical across thread counts too.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import decoupling

REL_TOL = 1e-12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def simulate(config: Path, out: Path, threads: int, command: str = "simulate"):
    src = str(Path(decoupling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update({var: str(threads) for var in THREAD_VARS})
    subprocess.run(
        [sys.executable, "-m", "decoupling.cli", command, "--config", str(config),
         "--out", str(out)],
        env=env, check=True, capture_output=True, text=True,
    )


def assert_close(a, b, where: str):
    if isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), where
        for key in a:
            assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and not isinstance(b, bool):
        assert isinstance(b, (int, float)), where
        assert abs(a - b) <= REL_TOL * max(1.0, abs(a)), f"{where}: {a!r} vs {b!r}"
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


def csv_values(path: Path):
    rows = path.read_text().splitlines()
    return [rows[0]] + [
        [float(x) if "." in x or "e" in x else int(x) for x in row.split(", ")]
        for row in rows[1:]
    ]


def test_simulate_agrees_across_blas_thread_counts(tmp_path):
    config = tmp_path / "config.json"
    # a 256-dimensional joint space, large enough for the BLAS to use threads
    config.write_text(json.dumps(
        {"scenario": "maximal-averaging", "seed": 7, "bath": {"n_modes": 7}}))
    outs = {n: tmp_path / f"threads-{n}" for n in (1, 2)}
    for n, out in outs.items():
        simulate(config, out, n)
    one, two = outs[1], outs[2]
    assert_close(json.loads((one / "summary.json").read_text()),
                 json.loads((two / "summary.json").read_text()), "summary")
    for name in ("trajectory.csv", "trajectory_free.csv"):
        assert_close(csv_values(one / name), csv_values(two / name), name)
    for row in csv_values(one / "trajectory.csv")[1:]:
        assert all(math.isfinite(x) for x in row)


def test_echo_sweep_agrees_across_blas_thread_counts(tmp_path):
    """The symmetric echo sweep, which the product path evolves mode by mode,
    at d = 256 under the same rule, and byte for byte."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"scenario": "dephasing-echo", "seed": 7, "symmetric": True, "bath": {"n_modes": 7},
         "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05, 0.025]}}))
    outs = {n: tmp_path / f"threads-{n}" for n in (1, 2)}
    for n, out in outs.items():
        simulate(config, out, n, command="sweep")
    one, two = outs[1], outs[2]
    assert_close(json.loads((one / "summary.json").read_text()),
                 json.loads((two / "summary.json").read_text()), "summary")
    assert_close(csv_values(one / "sweep.csv"), csv_values(two / "sweep.csv"), "sweep.csv")
    for name in ("summary.json", "sweep.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
