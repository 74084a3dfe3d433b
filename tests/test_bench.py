"""The benchmark's per-layer tracer still reaches the detection chain, and
bench/run.py still ends on a strict-JSON result line.

bench/layers.py wraps library functions by name and binds some of their
arguments by name, so a renamed function or argument makes a traced child
fail or report a layer as missing. This runs it on a tiny detect config,
and runs the traced harness itself for a second on every workload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DETECTION_LAYERS = ("detection.draw", "detection.channel", "detection.scan",
                    "detection.decode")


def test_traced_detect_run_reaches_every_detection_layer(tmp_path):
    cfg = {"scenario": "detect", "n_values": [64], "gamma1_db": 20,
           "gamma2_db": 20, "a1": 0.1, "a2": 0.1, "eps": 0.48, "M": 4,
           "trials": 2}
    cfg_path = tmp_path / "detect.json"
    cfg_path.write_text(json.dumps(cfg))
    trace_path = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), str(trace_path),
         "detect", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
         "--seed", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["missing"] == []
    for layer in DETECTION_LAYERS:
        assert trace["layers"][layer]["calls"] > 0, layer
        assert trace["layers"][layer]["raised"] == {}, layer


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["region", "detect", "design",
                                      "buffers"])
def test_traced_harness_ends_on_a_strict_result_line(workload):
    # the last stdout line is what a benchmark driver parses: strict JSON,
    # every child correct, and exactly the per-layer metrics that
    # BENCHMARK.json declares (bench/run.py writes under .bench_out/)
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "missing layer" not in res.stderr, res.stderr
    result = json.loads(res.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, res.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
