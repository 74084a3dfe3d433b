#!/usr/bin/env python3
"""Tiny-size smoke check of the benchmark's tracing and metric list.

    python3 bench/smoke.py

Runs every workload once under bench/layers.py at a tiny size, and fails
unless no wrapped name is missing, every layer the workload lists gets
calls > 0, and BENCHMARK.json names exactly the metrics (and units) that
bench/run.py reports. Takes about ten seconds.
"""

import json
import shutil
import sys

from run import BENCH, END_TO_END, OWN_PER_LAYER, WORK, spawn
import layers
from workloads import WORKLOADS

TINY = {
    "detect": {"n_values": [100], "trials": 2},
    "design": {"d_grid": [0.02, 3.0, 3]},
    "region": {"m_grid": 3, "resolution": 0.1},
    "buffers": {"n_values": [300], "trials": 5},
}


def _layer_calls(name: str) -> tuple:
    """(missing layers, {layer: calls}) of one tiny traced run."""
    base = WORK / "smoke" / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    cfg = base / "config.json"
    cfg.write_text(json.dumps(dict(WORKLOADS[name]["config"], **TINY[name])))
    trace = base / "trace.json"
    r = spawn([sys.executable, str(BENCH / "layers.py"), str(trace),
               WORKLOADS[name]["command"], "--config", str(cfg),
               "--out", str(base / "data"), "--seed", "1"], base)
    if r["code"] != 0:
        raise SystemExit(f"{name}: exit {r['code']}\n{r['stderr']}")
    got = json.loads(trace.read_text())
    return got["missing"], {k: v["calls"] for k, v in got["layers"].items()}


def main() -> int:
    problems = []
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {declared} != "
                        f"{list(END_TO_END)}")
    reported = (list(OWN_PER_LAYER)
                + [(name, unit) for name, unit, _, _ in layers.REPORTED])
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != reported:
        problems.append("BENCHMARK.json per_layer differs from the "
                        f"reported metrics: {set(declared) ^ set(reported)}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for name, wl in WORKLOADS.items():
        missing, calls = _layer_calls(name)
        problems += [f"{name}: layer {layer} is missing" for layer in missing]
        for layer in ("cli.main",) + wl["layers"]:
            if layer not in missing and calls.get(layer, 0) == 0:
                problems.append(f"{name}: layer {layer} got no calls")
        print(f"{name}: " + ", ".join(
            f"{layer}={calls.get(layer, 0)}"
            for layer in ("cli.main",) + wl["layers"]))
    shutil.rmtree(WORK / "smoke", ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
