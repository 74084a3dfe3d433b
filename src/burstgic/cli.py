"""Command-line dataset emitters for the package's experiment modules.

Four subcommands (buffers, design, region, detect) read a JSON config,
run the corresponding module, and write CSV or JSON datasets into an
output directory. No plotting here: the outputs are the datasets a
notebook or plotting script would consume.

Power-like config fields accept either linear or dB with an explicit
suffix tag: write "P": 100.0 or "P_db": 20.0 (never both). Conversion
happens only at this boundary; everything downstream is linear. A
config number must be a JSON number: a string or a boolean is an error.

Exit codes: 0 success, 2 config error, 3 infeasible scenario; any other
fault exits 1 with a traceback.

Each command imports the library modules it runs when it runs, so
`import burstgic.cli` loads no other burstgic module, and `design` and
`region` never load numpy's random number code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

# The CLI runs BLAS on one thread unless the user chose a count through a
# variable OpenBLAS reads; this must happen before numpy loads OpenBLAS.
# OpenBLAS starts nproc - 1 worker threads at load, and no command makes a
# BLAS call large enough to use them, yet they burn CPU beside the main
# thread. On a 2-CPU box (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) a fresh
# `python -c "import numpy"` took 0.23 s of CPU with the pool and 0.16 s
# without (median of 15), and bench/run.py's cpu_s fell by 23-38% on every
# workload at the same wall_s. One thread also keeps results independent of
# the core count: threaded ddot adds per-thread partial sums, so `x @ y` of
# length past 10,000 changes in its last bits with the thread count (equal
# bits up to 8,000), and detect applies `@` to segments up to n long.
if not any(var in os.environ for var in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

if TYPE_CHECKING:
    from burstgic.model import UserParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

SCENARIOS = {
    "buffers": ("buffers",),
    "design": ("design",),
    "region": ("grid", "symmetric"),
    "detect": ("detect",),
}


class ConfigError(ValueError):
    """Malformed or out-of-range configuration (exit code 2)."""


class InfeasibleError(Exception):
    """The scenario has no solution (exit code 3). Each command raises it
    from its own library's infeasibility error."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict
    out: Path
    seed: int
    fmt: str


# ---------------------------------------------------------------------------
# config plumbing

def _load_config(command: str, args) -> RunConfig:
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS[command]:
        raise ConfigError(
            f"unknown scenario {scenario!r} for {command}; "
            f"expected one of {SCENARIOS[command]}")
    out = args.out if args.out is not None else raw.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"field 'out' must be a string, got {out!r}")
    seed = args.seed
    if seed is None:
        seed = _integer(raw.get("seed", 0), "seed")
    fmt = args.format if args.format is not None else raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(scenario=scenario, params=raw, out=Path(out), seed=seed,
                     fmt=fmt)


def _need(params: dict, key: str):
    if key not in params:
        raise ConfigError(f"missing required field {key!r}")
    return params[key]


def _float(val, key: str) -> float:
    """A JSON number (an int or float, not a bool) as a float. Strings,
    booleans, containers and integers beyond float range are errors."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:
            pass
    raise ConfigError(f"field {key!r} must be a number, got {val!r}")


def _number(params: dict, key: str) -> float:
    val = params.get(key)
    if val is None:
        raise ConfigError(f"missing required field {key!r}")
    x = _float(val, key)
    if not math.isfinite(x):
        raise ConfigError(f"field {key!r} must be finite, got {val!r}")
    return x


def _integer(val, name: str) -> int:
    """An integral JSON number; non-numbers and non-finite or fractional
    numbers are errors."""
    try:
        x = _float(val, name)
    except ConfigError:
        x = math.nan
    if not (math.isfinite(x) and x == math.floor(x)):
        raise ConfigError(f"field {name!r} must be an integer, got {val!r}")
    return val if isinstance(val, int) else int(x)


def _list(params: dict, key: str) -> list:
    """A list field; anything but a non-empty JSON array is an error."""
    val = _need(params, key)
    if not (isinstance(val, list) and val):
        raise ConfigError(f"field {key!r} must be a non-empty list, "
                          f"got {val!r}")
    return val


def _power(params: dict, key: str, default=None) -> float:
    """Linear power from `key` or `key_db` (exactly one may be present)."""
    lin, db = params.get(key), params.get(key + "_db")
    if lin is not None and db is not None:
        raise ConfigError(f"give {key} or {key}_db, not both")
    if lin is None and db is None:
        if default is None:
            raise ConfigError(f"missing power field {key} (or {key}_db)")
        return default
    name, val = (key, lin) if lin is not None else (key + "_db", db)
    x = _float(val, name)
    if lin is None:
        try:
            x = 10.0 ** (x / 10.0)
        except OverflowError:
            x = math.inf
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"power {key} must be positive and finite, got "
                          f"{name} = {val!r} (dB values must be finite too)")
    return x


def _user(params: dict, key: str) -> UserParams:
    from burstgic.model import UserParams
    spec = params.get(key)
    if not isinstance(spec, dict):
        raise ConfigError(f"missing user block {key!r}")
    try:
        return UserParams(k=_integer(_need(spec, "k"), "k"),
                          q=_float(_need(spec, "q"), "q"),
                          P=_power(spec, "P", default=1.0),
                          a=_float(spec.get("a", 0.0), "a"))
    except ValueError as e:
        raise ConfigError(f"{key}: {e}")


def _rate(params: dict, key: str, u: UserParams) -> float:
    """Target rate, absolute (`R1`) or as a multiple of lambda
    (`R1_over_lambda`)."""
    absolute, rel = params.get(key), params.get(key + "_over_lambda")
    if (absolute is None) == (rel is None):
        raise ConfigError(f"give exactly one of {key} or {key}_over_lambda")
    if absolute is not None:
        return _number(params, key)
    return _number(params, key + "_over_lambda") * u.lam


def _d_values(params: dict) -> list:
    if "ds" in params:
        ds = [_float(d, "ds") for d in _list(params, "ds")]
    else:
        grid = params.get("d_grid")
        if not (isinstance(grid, (list, tuple)) and len(grid) == 3):
            raise ConfigError("give ds (list) or d_grid ([start, stop, count])")
        start, stop = _float(grid[0], "d_grid"), _float(grid[1], "d_grid")
        count = _integer(grid[2], "d_grid count")
        if count < 2 or stop <= start:
            raise ConfigError("d_grid needs stop > start and count >= 2")
        if not math.isfinite(stop - start):
            # np.linspace would overflow computing the step
            raise ConfigError(f"d_grid stop - start must be finite, "
                              f"got {stop!r} - {start!r}")
        ds = np.linspace(start, stop, count).tolist()
    bad = [d for d in ds if not (math.isfinite(4 * d * d) and d > 0)]
    if bad:
        raise ConfigError(f"spreads d must be positive and finite, with "
                          f"4*d*d finite too, got {bad[0]}")
    return ds


# ---------------------------------------------------------------------------
# emitters

def _emit(rows: list, header: tuple, base: Path, fmt: str) -> Path:
    """Write rows (dicts sharing `header` keys) as CSV or JSON."""
    if fmt == "json":
        return _write_json(rows, base.with_suffix(".json"))
    path = base.with_suffix(".csv")
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([row[k] for k in header])
    return path


def _write_json(obj, path: Path) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _intervals(iu) -> list:
    return [[float(lo), float(hi)] for lo, hi in iu.intervals]


def _finite(x: float):
    """JSON-safe float: math.inf becomes the string "inf"."""
    return "inf" if math.isinf(x) else float(x)


# ---------------------------------------------------------------------------
# commands

def cmd_buffers(rc: RunConfig) -> list:
    from burstgic.arrivals import ResonanceError, buffer_experiment
    p = rc.params
    u = _user(p, "user")
    n_values = [_integer(n, "n_values") for n in _list(p, "n_values")]
    N = _integer(_need(p, "N"), "N")
    theta = _number(p, "theta")
    delta = _number(p, "delta")
    trials = _integer(p.get("trials", 200), "trials")
    nprime = p.get("nprime")
    nprime = _integer(nprime, "nprime") if nprime is not None else None
    gap_rows = []
    imm_rows = []
    for n in n_values:
        try:
            freqs, imm = buffer_experiment(u, n, N, nprime, theta, delta,
                                           trials, rc.seed)
        except ResonanceError as e:
            raise InfeasibleError(e) from e
        for j, f in enumerate(freqs, start=1):
            gap_rows.append({"n": n, "j": j, "lag_freq": float(f),
                             "trials": trials})
        if imm is not None:
            imm_rows.append({"n": n, "violation_freq": float(imm),
                             "trials": trials})
    files = [
        _emit(gap_rows, ("n", "j", "lag_freq", "trials"),
              rc.out / "delay_gap", rc.fmt),
        _emit(imm_rows, ("n", "violation_freq", "trials"),
              rc.out / "immediacy", rc.fmt),
    ]
    return files


def cmd_design(rc: RunConfig) -> list:
    from burstgic.design import InfeasibleDesignError
    try:
        return _design(rc)
    except InfeasibleDesignError as e:
        raise InfeasibleError(e) from e


def _design(rc: RunConfig) -> list:
    from burstgic.design import (MAX_ACTIVE_PAIRS, MAX_ACTIVE_WORK,
                                 active_set, active_work, admissible_alpha,
                                 d_max, inadmissible_alpha, optimize_N,
                                 outage_curve, please1_holds)
    p = rc.params
    u1, u2 = _user(p, "user1"), _user(p, "user2")
    R1, R2 = _rate(p, "R1", u1), _rate(p, "R2", u2)
    ds = _d_values(p)
    act = sorted(active_set(u1, u2, R1, R2))
    if not act:
        raise InfeasibleError(f"active set is empty at R1={R1}, R2={R2}")
    if len(act) > MAX_ACTIVE_PAIRS:
        raise ConfigError(f"active set of {len(act)} pairs exceeds "
                          f"MAX_ACTIVE_PAIRS = {MAX_ACTIVE_PAIRS}")
    work = active_work(act)
    if work > MAX_ACTIVE_WORK:
        raise ConfigError(f"active set needs {work} units of "
                          f"alpha analysis, beyond MAX_ACTIVE_WORK = "
                          f"{MAX_ACTIVE_WORK}")
    reliable = not please1_holds(u1, u2, R1, R2)
    if reliable:
        print("ALWAYS_RELIABLE: an active pair keeps both loads below the "
              "interference-free threshold; offsets cannot cause its outage")
    files = []
    pairs = {}
    summary = {"scenario": rc.scenario, "R1": R1, "R2": R2,
               "active_set": [list(nn) for nn in act],
               "always_reliable": reliable, "d_max": {}}
    for N1, N2 in act:
        pair = (u1, u2, N1, N2, R1, R2)
        rows = [{"N1": N1, "N2": N2, "d": d, "outage": float(o)}
                for d, o in outage_curve(*pair, ds).samples]
        files.append(_emit(rows, ("N1", "N2", "d", "outage"),
                           rc.out / f"outage_N{N1}_{N2}", rc.fmt))
        dm = _finite(d_max(*pair))
        summary["d_max"][f"{N1},{N2}"] = dm
        pairs[f"{N1},{N2}"] = {
            "admissible": _intervals(admissible_alpha(*pair)),
            "inadmissible": _intervals(inadmissible_alpha(*pair)),
            "d_max": dm,
        }
    opt_rows = []
    for d in ds:
        (b1, b2), table = optimize_N(u1, u2, R1, R2, d)
        opt_rows.append({"d": d, "N1": b1, "N2": b2,
                         "outage": float(table[(b1, b2)])})
    files.append(_emit(opt_rows, ("d", "N1", "N2", "outage"),
                       rc.out / "optimal", rc.fmt))
    files.append(_write_json({"pairs": pairs},
                             rc.out / "admissible_alpha.json"))
    files.append(_write_json(summary, rc.out / "summary.json"))
    return files


def cmd_region(rc: RunConfig) -> list:
    if rc.scenario == "grid":
        return _region_grid(rc)
    return _region_symmetric(rc)


def _region_grid(rc: RunConfig) -> list:
    from burstgic.region import region
    p = rc.params
    u1, u2 = _user(p, "user1"), _user(p, "user2")
    N1, N2 = _integer(_need(p, "N1"), "N1"), _integer(_need(p, "N2"), "N2")
    theta1, theta2 = _number(p, "theta1"), _number(p, "theta2")
    alpha = _number(p, "alpha")
    m_grid = _integer(p.get("m_grid", 10), "m_grid")
    resolution = (_number(p, "resolution")
                  if p.get("resolution") is not None else None)
    try:
        reg = region(u1, u2, N1, N2, theta1, theta2, alpha, m_grid,
                     resolution)
    except ValueError as e:
        raise ConfigError(str(e))
    meta = {
        "scenario": rc.scenario,
        "box": [reg.x0, reg.x1, reg.y0, reg.y1],
        "cell": [reg.cell[0], reg.cell[1]],
        "rbar_c1": reg.x1,
        "rbar_c2": reg.y1,
        "m_grid": m_grid,
        "alpha": alpha,
    }
    return [
        _emit_grid(reg, rc.out / "region_points", rc.fmt),
        _write_json(meta, rc.out / "region_meta.json"),
    ]


def _emit_grid(reg, base: Path, fmt: str) -> Path:
    """Write the occupancy grid as (R_c1, R_c2, member) rows, x-major.

    Both formats are assembled one x-row at a time from each coordinate's
    repr, the text csv.writer and json.dumps give a float, so the bytes
    match _emit's.
    """
    if fmt == "csv":
        start, head, tail, sep, end = (
            "R_c1,R_c2,member\r\n", "{!r},", "{!r},{}\r\n", "", "")
    else:
        start, head, tail, sep, end = (
            "[\n", '  {{\n    "R_c1": {!r},\n    "R_c2": ',
            '{!r},\n    "member": {}\n  }}', ",\n", "\n]\n")
    ys = reg.ys().tolist()
    tails = np.array([[tail.format(y, m) for y in ys] for m in (0, 1)],
                     dtype=object)
    path = base.with_suffix("." + fmt)
    with path.open("w", newline="") as fh:
        fh.write(start)
        for i, (x, row) in enumerate(zip(reg.xs().tolist(), reg.mask)):
            cell = head.format(x)
            fh.write((sep if i else "") + cell + (sep + cell).join(
                np.where(row, tails[1], tails[0])))
        fh.write(end)
    return path


def _region_symmetric(rc: RunConfig) -> list:
    from burstgic.model import UserParams
    from burstgic.region import sym_curves, sym_region
    p = rc.params
    N = _integer(_need(p, "N"), "N")
    theta = _number(p, "theta")
    a = _number(p, "a")
    P = _power(p, "P")
    alpha = _number(p, "alpha")
    n_gamma = _integer(p.get("n_gamma", 2048), "n_gamma")
    points = _integer(p.get("curve_points", 256), "curve_points")
    if points < 1:
        raise ConfigError(f"curve_points must be >= 1, got {points}")
    try:
        # lam is given, or k and q are read under UserParams' rules
        lam = _number(p, "lam") if "lam" in p else UserParams(
            k=_integer(_need(p, "k"), "k"), q=_float(_need(p, "q"), "q"),
            P=P, a=a).lam
        intervals = sym_region(N, theta, lam, a, P, alpha, n_gamma).intervals
    except ValueError as e:
        raise ConfigError(str(e))
    meta = {"scenario": rc.scenario, "N": N, "theta": theta, "lam": lam,
            "a": a, "P": P, "alpha": alpha,
            "intervals": [[lo, hi] for lo, hi in intervals]}
    curves = sym_curves(N, theta, lam, a, P, alpha) \
        if N >= 2 and alpha < theta else None
    if curves is not None:
        meta["gamma0"] = _finite(curves.gamma0)
        meta["gamma1"] = _finite(curves.gamma1)
        meta["gamma2"] = _finite(curves.gamma2)
        meta["branch_low"] = curves.branch_low
    files = [_write_json(meta, rc.out / "sym_intervals.json")]
    if curves is not None:
        c = curves
        hi_max = max((hi for _, hi in intervals), default=lam)
        g_max = (1.0 / N + 1.05 * hi_max / lam) * P
        rows = []
        for g in np.linspace(g_max / points, g_max, points):
            rows.append({"gamma": float(g), "f": float(c.f(g)),
                         "g": float(c.g(g)),
                         "power_line": float(c.power_line(g))})
        files.append(_emit(rows, ("gamma", "f", "g", "power_line"),
                           rc.out / "sym_curves", rc.fmt))
    return files


def cmd_detect(rc: RunConfig) -> list:
    from burstgic.detection import DetectionConfig, detection_experiment
    p = rc.params
    nprime_values = (_list(p, "nprime_values")
                     if p.get("nprime_values") is not None else None)
    try:
        cfg = DetectionConfig(
            n_values=tuple(_integer(n, "n_values")
                           for n in _list(p, "n_values")),
            gamma1=_power(p, "gamma1"),
            gamma2=_power(p, "gamma2"),
            a1=_number(p, "a1"),
            a2=_number(p, "a2"),
            eps=_number(p, "eps"),
            M=_integer(_need(p, "M"), "M"),
            nprime_values=(tuple(_integer(m, "nprime_values")
                                 for m in nprime_values)
                           if nprime_values is not None else None),
        )
        trials = _integer(p.get("trials", 200), "trials")
        cfg.check_trials(trials)
    except ValueError as e:
        raise ConfigError(str(e))
    rows = detection_experiment(cfg, trials, rc.seed)
    header = ("n", "nprime", "trials", "traces", "bursts_total",
              "bursts_located", "recovered_traces", "recovery_rate",
              "misid_errors", "misid_rate", "false_alarms", "decode_errors",
              "e2e_errors", "e2e_error_rate", "eff_rate", "decode_none",
              "decode_ambiguous", "decode_wrong")
    out = [{k: getattr(r, k) for k in header} for r in rows]
    return [_emit(out, header, rc.out / "detect", rc.fmt)]


# ---------------------------------------------------------------------------
# entry point

COMMANDS = {
    "buffers": cmd_buffers,
    "design": cmd_design,
    "region": cmd_region,
    "detect": cmd_detect,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burstgic",
        description="dataset emitters for the bursty interference toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = _load_config(args.command, args)
        rc.out.mkdir(parents=True, exist_ok=True)
        files = COMMANDS[args.command](rc)
    except InfeasibleError as e:
        print(f"infeasible scenario: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    for path in files:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
