#!/usr/bin/env python3
"""Regenerate bench/reference.json from the program in this checkout.

    python3 bench/make_reference.py

design and region: the SHA-256 of every output file at the workload
config (these must later match byte for byte). detect and buffers: event
counts at REF_TRIALS trials under REF_SEED, against which a run's counts
are tested for binomial plausibility. Takes about three minutes.
"""

import csv
import json
import shutil
import sys

import checks
from run import BENCH, CLI, REFERENCE, WORK, spawn
from workloads import WORKLOADS

REF_SEED = 20161026
REF_TRIALS = {"detect": 1500, "buffers": 20000}


def _run(name: str, config: dict, seed: int):
    base = WORK / "reference" / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config))
    out = base / "data"
    r = spawn([sys.executable, "-c", CLI, WORKLOADS[name]["command"],
               "--config", str(cfg), "--out", str(out), "--seed", str(seed)],
              base, timeout=900.0)
    if r["code"] != 0:
        raise SystemExit(f"{name} failed:\n{r['stderr']}")
    return out


def _csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def main() -> int:
    ref = {}
    for name in ("design", "region"):
        config = WORKLOADS[name]["config"]
        out = _run(name, config, REF_SEED)
        ref[name] = {"config": config, "files": checks.output_digests(out)}

    config = dict(WORKLOADS["detect"]["config"], trials=REF_TRIALS["detect"])
    out = _run("detect", config, REF_SEED)
    ref["detect"] = {"config": config, "seed": REF_SEED, "rows": {
        r["n"]: {key: int(r[key]) for key in (
            "trials", "traces", "recovered_traces", "decode_errors",
            "e2e_errors")}
        for r in _csv(out / "detect.csv")}}

    trials = REF_TRIALS["buffers"]
    config = dict(WORKLOADS["buffers"]["config"], trials=trials)
    out = _run("buffers", config, REF_SEED)
    ref["buffers"] = {
        "config": config, "seed": REF_SEED, "trials": trials,
        "lag": {f"{r['n']},{r['j']}": checks.count(r["lag_freq"], trials)
                for r in _csv(out / "delay_gap.csv")},
        "violation": {r["n"]: checks.count(r["violation_freq"], trials)
                      for r in _csv(out / "immediacy.csv")},
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK / "reference")
    print(f"wrote {REFERENCE.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
