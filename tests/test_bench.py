"""The benchmark's per-layer tracer still reaches the detection chain.

bench/layers.py wraps library functions by name and binds some of their
arguments by name, so a renamed function or argument makes a traced child
fail or report a layer as missing. This runs it on a tiny detect config.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
