"""End-to-end checks of the command line emitters.

Each test writes a JSON config into tmp_path, runs the installed CLI in a
subprocess, and inspects exit code, stdout/stderr, and the emitted files.
"""

import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from burstgic import cli, detection
from burstgic.design import MAX_SPREADS, d_max
from burstgic.model import UserParams
from burstgic.region import sym_region

U1 = {"k": 3, "q": 0.3, "P_db": 30, "a": 0.5}
U2 = {"k": 2, "q": 0.4, "P_db": 30, "a": 0.7}
USYM = {"k": 2, "q": 0.3, "P_db": 20, "a": 0.5}

BUFFERS_CFG = {"scenario": "buffers", "user": {"k": 2, "q": 0.3},
               "n_values": [300, 600], "N": 2, "theta": 1.3, "delta": 0.5,
               "trials": 30, "nprime": 20}
DESIGN_CFG = {"scenario": "design", "user1": U1, "user2": U2,
              "d_grid": [0.05, 3.0, 60]}
GRID_CFG = {"scenario": "grid", "user1": USYM, "user2": USYM,
            "N1": 2, "N2": 2, "theta1": 1.0, "theta2": 1.0, "alpha": 0.5}
DETECT_CFG = {"scenario": "detect", "n_values": [400, 1600],
              "gamma1_db": 20, "gamma2_db": 20, "a1": 0.1, "a2": 0.1,
              "eps": 0.48, "M": 8, "trials": 60}
SYM_CFG = {"scenario": "symmetric", "N": 2, "theta": 1.0, "lam": 0.6,
           "a": 0.5, "P_db": 20, "alpha": 0.5}


def run_cli(command, cfg, tmp_path, out="out", seed=11, extra=(),
            timeout=None, flags=()):
    """Run the CLI on cfg; out=None passes no --out flag, and flags go to
    the interpreter."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [sys.executable, *flags, "-m", "burstgic.cli", command,
            "--config", str(cfg_path), "--seed", str(seed), *extra]
    if out is not None:
        args += ["--out", str(tmp_path / out)]
    return subprocess.run(args, capture_output=True, text=True,
                          timeout=timeout)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# buffers

def test_buffers_emits_both_files(tmp_path):
    res = run_cli("buffers", BUFFERS_CFG, tmp_path)
    assert res.returncode == 0, res.stderr
    gap = read_rows(tmp_path / "out" / "delay_gap.csv")
    imm = read_rows(tmp_path / "out" / "immediacy.csv")
    assert list(gap[0]) == ["n", "j", "lag_freq", "trials"]
    assert list(imm[0]) == ["n", "violation_freq", "trials"]
    assert {int(r["n"]) for r in gap} == {300, 600}
    assert all(0.0 <= float(r["lag_freq"]) <= 1.0 for r in gap)
    assert len(imm) == 2


def test_buffers_resonant_ratio_is_infeasible(tmp_path):
    cfg = dict(BUFFERS_CFG, user={"k": 2, "q": 0.25}, theta=1.0)
    res = run_cli("buffers", cfg, tmp_path)
    assert res.returncode == 3
    # diagnostic names the divisor m of theta that collides with mu
    assert "integer multiple of theta/1" in res.stderr


def test_buffers_builds_one_generator_per_trial(tmp_path, monkeypatch):
    # both statistics come from one pass, and every trial's trigger slots
    # from one draw, so each n builds one generator for all its trials
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(1)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    (tmp_path / "config.json").write_text(json.dumps(BUFFERS_CFG))
    code = cli.main(["buffers", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(built) == len(BUFFERS_CFG["n_values"])


def test_buffers_slow_arrivals_run(tmp_path):
    # about 3e14 slots to the last trigger: one draw, no stream
    cfg = dict(BUFFERS_CFG, user={"k": 2, "q": 1e-12})
    res = run_cli("buffers", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    assert len(read_rows(tmp_path / "out" / "delay_gap.csv")) == 4


def test_buffers_seed_reproducible(tmp_path):
    res_a = run_cli("buffers", BUFFERS_CFG, tmp_path, out="a", seed=42)
    res_b = run_cli("buffers", BUFFERS_CFG, tmp_path, out="b", seed=42)
    assert res_a.returncode == 0 and res_b.returncode == 0
    for name in ("delay_gap.csv", "immediacy.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


# SHA-256 of the buffers datasets for BUFFERS_CFG. A change that
# deliberately alters the arrival streams or the statistics must update
# these digests and say so in CHANGES.md.
BUFFERS_SHA256 = {
    1: {"delay_gap.csv": "d5e75b8810d79b7e1deeafd9c68fbaf3"
                         "7fb96527f75384ae9469888e16a799ee",
        "immediacy.csv": "55d06fd644a0491dbf47aa4de09ddd66"
                         "296adc609433493dfccb03a3ce10a7f6"},
    2: {"delay_gap.csv": "75f458eac9f9863f97cef14d27ed6718"
                         "be6f21a3cbc706d8bd72b635335bcfda",
        "immediacy.csv": "55d06fd644a0491dbf47aa4de09ddd66"
                         "296adc609433493dfccb03a3ce10a7f6"},
}


@pytest.mark.parametrize("seed", sorted(BUFFERS_SHA256))
def test_buffers_datasets_are_byte_identical(tmp_path, seed):
    res = run_cli("buffers", BUFFERS_CFG, tmp_path, seed=seed)
    assert res.returncode == 0, res.stderr
    for name, digest in BUFFERS_SHA256[seed].items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# design

def test_design_half_lambda_reports_d_max(tmp_path):
    cfg = dict(DESIGN_CFG, R1_over_lambda=0.5, R2_over_lambda=0.5)
    res = run_cli("design", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["active_set"] == [[1, 1]]
    assert summary["d_max"]["1,1"] == approx(0.83, abs=0.02)
    curve = read_rows(tmp_path / "out" / "outage_N1_1.csv")
    assert len(curve) == 60


def test_design_curves_cross_near_two(tmp_path):
    cfg = dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7)
    res = run_cli("design", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_rows(tmp_path / "out" / "optimal.csv")
    pairs = [(float(r["d"]), (r["N1"], r["N2"])) for r in rows]
    switches = [0.5 * (a[0] + b[0]) for a, b in zip(pairs, pairs[1:])
                if a[1] != b[1]]
    assert any(1.9 <= d <= 2.1 for d in switches)


def test_design_always_reliable_notice(tmp_path):
    cfg = dict(DESIGN_CFG, R1_over_lambda=0.1, R2_over_lambda=0.1)
    res = run_cli("design", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    assert "ALWAYS_RELIABLE" in res.stdout
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["always_reliable"] is True
    assert summary["active_set"] == [[1, 1]]
    curve = read_rows(tmp_path / "out" / "outage_N1_1.csv")
    assert len(curve) == 60
    assert all(float(r["outage"]) == 0.0 for r in curve)
    pairs = json.loads(
        (tmp_path / "out" / "admissible_alpha.json").read_text())["pairs"]
    assert pairs["1,1"]["admissible"] == [[-math.inf, math.inf]]


def test_design_mixed_reliability_analyses_every_pair(tmp_path):
    # (2, 1) decodes at every offset but (1, 1) does not: the notice is
    # printed, yet (1, 1) keeps its own d_max and outage curve
    u1 = {"k": 2, "q": 0.4, "P": 100.0, "a": 0.5}
    u2 = {"k": 2, "q": 0.3, "P": 100.0, "a": 0.5}
    cfg = {"scenario": "design", "user1": u1, "user2": u2,
           "R1_over_lambda": 0.7, "R2_over_lambda": 0.1,
           "ds": [0.5, 1.0, 2.0, 3.0]}
    res = run_cli("design", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    assert "ALWAYS_RELIABLE" in res.stdout
    p1, p2 = UserParams(**u1), UserParams(**u2)
    want = d_max(p1, p2, 1, 1, 0.7 * p1.lam, 0.1 * p2.lam)
    assert want == approx(0.6519478901194072)
    pairs = json.loads(
        (tmp_path / "out" / "admissible_alpha.json").read_text())["pairs"]
    assert pairs["1,1"]["d_max"] == want
    assert pairs["1,1"]["inadmissible"]
    curve = read_rows(tmp_path / "out" / "outage_N1_1.csv")
    assert [float(r["d"]) for r in curve] == cfg["ds"]
    assert float(curve[2]["outage"]) > 0.0  # d = 2
    assert (tmp_path / "out" / "optimal.csv").exists()


def test_design_empty_active_set_is_infeasible(tmp_path):
    low1 = dict(U1, P=0.2)
    low2 = dict(U2, P=0.2)
    for u in (low1, low2):
        u.pop("P_db")
    cfg = dict(DESIGN_CFG, user1=low1, user2=low2,
               R1_over_lambda=0.7, R2_over_lambda=0.7)
    res = run_cli("design", cfg, tmp_path)
    assert res.returncode == 3
    assert "active set" in res.stderr


# ---------------------------------------------------------------------------
# region

def test_region_grid_metadata_has_single_user_cap(tmp_path):
    cfg = dict(GRID_CFG, m_grid=8, resolution=0.25)
    res = run_cli("region", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    meta = json.loads((tmp_path / "out" / "region_meta.json").read_text())
    assert meta["rbar_c1"] == approx(4.8774, abs=1e-3)
    assert meta["rbar_c2"] == approx(4.8774, abs=1e-3)
    rows = read_rows(tmp_path / "out" / "region_points.csv")
    nx = round((meta["box"][1] - meta["box"][0]) / meta["cell"][0])
    assert len(rows) == nx * nx


def test_region_diagonal_matches_symmetric_solver(tmp_path):
    cfg = dict(GRID_CFG, m_grid=40, resolution=0.1)
    res = run_cli("region", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    meta = json.loads((tmp_path / "out" / "region_meta.json").read_text())
    cell = meta["cell"][0]
    rows = read_rows(tmp_path / "out" / "region_points.csv")
    diag = [(float(r["R_c1"]), int(r["member"])) for r in rows
            if abs(float(r["R_c1"]) - float(r["R_c2"])) < 1e-12]
    assert len(diag) > 10
    intervals = sym_region(2, 1.0, 0.6, 0.5, 100.0, 0.5).intervals
    for x, member in diag:
        inside = any(lo + cell < x < hi - cell for lo, hi in intervals)
        outside = all(x < lo - cell or x > hi + cell for lo, hi in intervals)
        if inside:
            assert member == 1, f"missing diagonal point {x}"
        elif outside:
            assert member == 0, f"spurious diagonal point {x}"


# SHA-256 of the grid scenario's datasets for one asymmetric config on the
# benchmark's power grid (m_grid 40). A change that deliberately alters
# region membership or its emission must update these digests and say so
# in CHANGES.md.
REGION_CFG = dict(GRID_CFG, user1=U1, user2=U2, N2=3, theta2=1.2, alpha=0.7,
                  m_grid=40, resolution=0.1)
REGION_SHA256 = {
    "region_points.csv": "f11a5467942ee4c8b3932e620f18e8c7"
                         "1f31e088c9864ce737e92a62954672f0",
    "region_meta.json": "b5244eff695ed1eea056daa03075ca28"
                        "18259105bc99ec127c1ba711f9dd45c8",
}


def test_region_datasets_are_byte_identical(tmp_path):
    res = run_cli("region", REGION_CFG, tmp_path)
    assert res.returncode == 0, res.stderr
    for name, digest in REGION_SHA256.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_region_m_grid_refinement_grows_mask(tmp_path):
    coarse = run_cli("region", dict(GRID_CFG, m_grid=3, resolution=0.25),
                     tmp_path, out="coarse")
    fine = run_cli("region", dict(GRID_CFG, m_grid=8, resolution=0.25),
                   tmp_path, out="fine")
    assert coarse.returncode == 0 and fine.returncode == 0
    got = {}
    for name in ("coarse", "fine"):
        rows = read_rows(tmp_path / name / "region_points.csv")
        got[name] = np.array([int(r["member"]) for r in rows], dtype=bool)
    assert np.all(got["fine"] | ~got["coarse"])
    assert got["fine"].sum() > got["coarse"].sum()


def test_region_grid_csv_bytes_match_csv_writer(tmp_path):
    # the grid CSV is written by columns; it must be the exact bytes that
    # csv.writer gives for the rows the JSON format carries
    cfg = dict(GRID_CFG, user2=U2, N2=3, theta2=1.2, alpha=1.7, m_grid=6,
               resolution=0.3)
    for fmt in ("csv", "json"):
        res = run_cli("region", cfg, tmp_path, out=fmt,
                      extra=("--format", fmt))
        assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "json" / "region_points.json").read_text())
    header = ["R_c1", "R_c2", "member"]
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([row[k] for k in header])
    assert 0 < sum(r["member"] for r in rows) < len(rows)
    want = buf.getvalue().encode()
    assert (tmp_path / "csv" / "region_points.csv").read_bytes() == want
    raw = (tmp_path / "json" / "region_points.json").read_bytes()
    assert raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True)
                   + "\n").encode()


@pytest.mark.parametrize("resolution", [1e-7, 5e-324])
def test_region_grid_cell_budget_is_config_error(tmp_path, resolution):
    res = run_cli("region", dict(GRID_CFG, resolution=resolution), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "grid cells" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out" / "region_points.csv").exists()


@pytest.mark.parametrize("over", [
    {"N1": 2000, "N2": 2000, "m_grid": 40, "resolution": 0.01},
    {"N1": 10 ** 9, "N2": 1},
    {"m_grid": 2000, "resolution": 10.0},
])
def test_region_grid_work_budget_is_config_error(tmp_path, over):
    # without the budget, the first config would take about an hour of
    # covered-length work and the last about 20 s of rate-pair tables
    start = time.monotonic()
    res = run_cli("region", dict(GRID_CFG, **over), tmp_path, timeout=60.0)
    assert res.returncode == 2, res.stderr
    assert "MAX_REGION_WORK" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out" / "region_points.csv").exists()
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("over", [{"m_grid": 1e300}, {"N1": 1e300}])
def test_region_grid_budget_message_for_huge_counts(tmp_path, over):
    # the work of these configs is past float range: the message shows it
    # and the counts in e-notation, not as an OverflowError or as integers
    # of 300 digits
    res = run_cli("region", dict(GRID_CFG, **over), tmp_path, timeout=60.0)
    assert res.returncode == 2, res.stderr
    assert "MAX_REGION_WORK" in res.stderr and "e+" in res.stderr
    assert "Traceback" not in res.stderr
    assert max(map(len, re.findall(r"\d+", res.stderr))) < 20, res.stderr


@pytest.mark.parametrize("over", [{"theta": 1e-320}, {"alpha": 1e300},
                                  {"theta": 1e-12}])
def test_region_symmetric_huge_offset_ratio_runs(tmp_path, over):
    # every offset class past N is swept as one window, so alpha/theta =
    # 5e12, 1e300 or an overflow to inf costs 4*N + 1 windows
    cfg = {**SYM_CFG, "alpha": 5.0, **over}
    start = time.monotonic()
    res = run_cli("region", cfg, tmp_path, timeout=60.0,
                  flags=("-W", "error::RuntimeWarning"))
    elapsed = time.monotonic() - start
    assert res.returncode == 0, res.stderr
    assert elapsed < 1.0
    meta = json.loads((tmp_path / "out" / "sym_intervals.json").read_text(),
                      parse_constant=_reject_constant)
    (lo, hi), = meta["intervals"]
    assert lo == approx(0.6) and 4.8 < hi < 4.9
    assert meta["alpha"] == cfg["alpha"] and meta["theta"] == cfg["theta"]


def test_region_symmetric_window_budget_is_config_error(tmp_path):
    # a million bursts per frame give four windows per offset class up to
    # N, past any time limit
    start = time.monotonic()
    res = run_cli("region", dict(SYM_CFG, N=10**6, alpha=1e300), tmp_path,
                  timeout=60.0)
    assert res.returncode == 2, res.stderr
    assert "MAX_SYM_WINDOWS" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out" / "sym_intervals.json").exists()
    assert time.monotonic() - start < 10.0


def test_region_symmetric_window_budget_edge(monkeypatch):
    # the budget is checked before anything is built. At alpha/theta = 3
    # and N = 2 it counts 4*min(ceil(3) + 1, 2) + 1 = 9 windows: four for
    # each of the offset classes 1 and 2 and one for the classes past N;
    # the closed form (alpha < theta) is one window, which the budget does
    # not count
    region_mod = sys.modules["burstgic.region"]
    assert region_mod.MAX_SYM_WINDOWS >= 9
    monkeypatch.setattr(region_mod, "MAX_SYM_WINDOWS", 9)
    assert sym_region(2, 1.0, 0.6, 0.5, 100.0, 3.0).intervals
    monkeypatch.setattr(region_mod, "MAX_SYM_WINDOWS", 8)
    with pytest.raises(ValueError, match="9 windows exceed MAX_SYM_WINDOWS"):
        sym_region(2, 1.0, 0.6, 0.5, 100.0, 3.0)
    assert sym_region(2, 1.0, 0.6, 0.5, 100.0, 0.5).intervals


@pytest.mark.parametrize("trials", [1e300, 2**63, 10**8])
def test_detect_trials_budget_is_config_error(tmp_path, trials):
    start = time.monotonic()
    res = run_cli("detect", dict(DETECT_CFG, trials=trials), tmp_path,
                  timeout=60.0)
    assert res.returncode == 2, res.stderr
    assert "MAX_TRIAL_SLOTS" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out" / "detect.csv").exists()
    assert time.monotonic() - start < 10.0


def test_detect_trials_budget_edge():
    # each n is charged 2n + 9*nprime trace slots a trial, and no fewer
    # than 2**12: DETECT_CFG's n = 400 and 1600 are charged 4096 each
    cfg = detection.DetectionConfig(
        n_values=(400, 1600), gamma1=100.0, gamma2=100.0, a1=0.1, a2=0.1,
        eps=0.48, M=8)
    most = detection.MAX_TRIAL_SLOTS // (2 * 4096)
    cfg.check_trials(most)
    for bad in (most + 1, 0, 2**63):
        with pytest.raises(ValueError):
            cfg.check_trials(bad)
    with pytest.raises(ValueError, match="MAX_TRIAL_SLOTS"):
        detection.detection_experiment(cfg, most + 1, seed=1)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("a", [1e-200, 1e200])
def test_region_symmetric_extreme_cross_gain(tmp_path, a):
    # gamma0 ~ 1/a^2 overflows for tiny a, and a^2 itself overflows for
    # huge a; either way the outputs must stay strict JSON
    res = run_cli("region", dict(SYM_CFG, a=a), tmp_path)
    assert res.returncode in (0, 2), res.stderr
    assert "Traceback" not in res.stderr
    emitted = list((tmp_path / "out").glob("*.json"))
    assert emitted or res.returncode == 2
    for path in emitted:
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("cfg", [
    {"scenario": "symmetric", "N": 3, "theta": 1.6629, "lam": 2.4194,
     "a": 15.795, "P": 83.459, "alpha": 0.005738},
    {"scenario": "symmetric", "N": 2, "theta": 2.4737, "lam": 1.9023,
     "a": 1.4283, "P": 3.2709, "alpha": 0.0038},
    dict(SYM_CFG, lam=1e300),
], ids=["N3", "N2", "lam-1e300"])
def test_region_symmetric_cap_below_the_line_at_every_power(tmp_path, cfg):
    # the clear cap stays below (1 + alpha/theta)*lam over all floats, so
    # gamma2 is +inf, as gamma1 is; the curves are written, not refused
    res = run_cli("region", cfg, tmp_path,
                  flags=("-W", "error::RuntimeWarning"))
    assert res.returncode == 0, res.stderr
    meta = json.loads((tmp_path / "out" / "sym_intervals.json").read_text(),
                      parse_constant=_reject_constant)
    assert meta["gamma2"] == "inf" and meta["gamma1"] == "inf"
    assert meta["intervals"] == []
    assert read_rows(tmp_path / "out" / "sym_curves.csv")


def test_region_symmetric_scenario(tmp_path):
    cfg = {"scenario": "symmetric", "N": 2, "theta": 1.0, "lam": 0.6,
           "a": 0.5, "P_db": 20, "alpha": 0.5, "curve_points": 64}
    res = run_cli("region", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    meta = json.loads((tmp_path / "out" / "sym_intervals.json").read_text())
    assert meta["gamma0"] == approx(2.0 + 2.0 * np.sqrt(2.0))
    assert meta["P"] == approx(100.0)
    lo, hi = meta["intervals"][0]
    assert lo == approx(0.6)
    rows = read_rows(tmp_path / "out" / "sym_curves.csv")
    assert list(rows[0]) == ["gamma", "f", "g", "power_line"]
    assert len(rows) == 64


def test_region_symmetric_skips_curves_at_large_alpha(tmp_path):
    cfg = {"scenario": "symmetric", "N": 2, "theta": 1.0, "lam": 0.6,
           "a": 0.5, "P_db": 20, "alpha": 5.0}
    res = run_cli("region", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    meta = json.loads((tmp_path / "out" / "sym_intervals.json").read_text())
    assert len(meta["intervals"]) == 2  # disconnected at this spacing
    assert "gamma0" not in meta
    assert not (tmp_path / "out" / "sym_curves.csv").exists()


# ---------------------------------------------------------------------------
# detect

def test_detect_error_trend_and_schema(tmp_path):
    res = run_cli("detect", DETECT_CFG, tmp_path, seed=9)
    assert res.returncode == 0, res.stderr
    rows = read_rows(tmp_path / "out" / "detect.csv")
    assert [int(r["n"]) for r in rows] == [400, 1600]
    e2e = [float(r["e2e_error_rate"]) for r in rows]
    assert e2e[0] > e2e[1]
    assert list(rows[0]) == [
        "n", "nprime", "trials", "traces", "bursts_total", "bursts_located",
        "recovered_traces", "recovery_rate", "misid_errors", "misid_rate",
        "false_alarms", "decode_errors", "e2e_errors", "e2e_error_rate",
        "eff_rate", "decode_none", "decode_ambiguous", "decode_wrong"]


def test_detect_seed_reproducible(tmp_path):
    res_a = run_cli("detect", DETECT_CFG, tmp_path, out="a", seed=17)
    res_b = run_cli("detect", DETECT_CFG, tmp_path, out="b", seed=17)
    assert res_a.returncode == 0 and res_b.returncode == 0
    assert (tmp_path / "a" / "detect.csv").read_bytes() == \
           (tmp_path / "b" / "detect.csv").read_bytes()


def test_detect_rejects_oversized_codebook(tmp_path):
    cfg = dict(DETECT_CFG, M=1 << 17)
    res = run_cli("detect", cfg, tmp_path)
    assert res.returncode == 2
    assert "M" in res.stderr


# SHA-256 of detect.csv for DETECT_CFG. A change that deliberately alters
# the random streams or the detection chain must update these digests and
# say so in CHANGES.md.
DETECT_SHA256 = {
    1: "9a64ab6849222231628490c6d508929f0026fbeffe319dc9baf66ece78c99e4e",
    2: "ea338027076df4ad3b3763725f5bd19ac2b1cbecc24fb335ac6450d9d1bc478a",
}


@pytest.mark.parametrize("seed", sorted(DETECT_SHA256))
def test_detect_datasets_are_byte_identical(tmp_path, seed):
    res = run_cli("detect", DETECT_CFG, tmp_path, seed=seed)
    assert res.returncode == 0, res.stderr
    data = (tmp_path / "out" / "detect.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DETECT_SHA256[seed]


# ---------------------------------------------------------------------------
# config handling

def test_unknown_scenario_is_config_error(tmp_path):
    res = run_cli("design", dict(BUFFERS_CFG), tmp_path)
    assert res.returncode == 2
    assert "scenario" in res.stderr


def test_malformed_json_is_config_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{not json")
    res = subprocess.run(
        [sys.executable, "-m", "burstgic.cli", "buffers",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert res.returncode == 2


def test_undecodable_config_is_config_error(tmp_path):
    # bytes the locale's codec cannot decode are a config error, not a fault
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b"\xff\xfe\xfa{")
    assert cli.main(["buffers", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2


def test_both_power_tags_rejected(tmp_path):
    cfg = dict(BUFFERS_CFG, user={"k": 2, "q": 0.3, "P": 1.0, "P_db": 0.0})
    res = run_cli("buffers", cfg, tmp_path)
    assert res.returncode == 2
    assert "not both" in res.stderr


def test_design_rejects_non_finite_or_nonpositive_spreads(tmp_path):
    # json.dumps writes NaN and Infinity; 1e309 overflows to inf on read
    cfg = json.dumps(dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                          ds=["NAN", "BIG"]))
    cfg = cfg.replace('"NAN"', "NaN").replace('"BIG"', "1e309")
    bad_grid = dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    d_grid=[0.0, 3.0, 10])
    for raw in (cfg, json.dumps(bad_grid)):
        (tmp_path / "config.json").write_text(raw)
        res = subprocess.run(
            [sys.executable, "-m", "burstgic.cli", "design",
             "--config", str(tmp_path / "config.json"),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert res.returncode == 2, res.stderr
        assert "positive and finite" in res.stderr
        assert not (tmp_path / "out" / "optimal.csv").exists()


def test_design_d_grid_span_overflow_is_config_error(tmp_path):
    # the span is checked before np.linspace, whose step would overflow;
    # with RuntimeWarning an error, a warning would exit 1 instead of 2
    cfg = dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
               d_grid=[-1e308, 1e308, 5])
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "burstgic.cli",
         "design", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "d_grid stop - start must be finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_non_finite_user_params_are_config_errors(tmp_path):
    res = run_cli("region", dict(GRID_CFG, user1=dict(USYM, a=math.inf)),
                  tmp_path)
    assert res.returncode == 2
    assert "cross gain" in res.stderr
    nan_power = {"k": 3, "q": 0.3, "P": math.nan, "a": 0.5}
    res = run_cli("design", dict(DESIGN_CFG, user1=nan_power,
                                 R1_over_lambda=0.7, R2_over_lambda=0.7),
                  tmp_path)
    assert res.returncode == 2
    assert "P must be positive and finite" in res.stderr


# json.dumps writes math.inf as Infinity, which reads back as inf, just as
# an overflowing literal such as 1e309 does
SYM_P_NAN = {k: v for k, v in SYM_CFG.items() if k != "P_db"}
SYM_P_NAN["P"] = math.nan
DETECT_GAMMA_INF = {k: v for k, v in DETECT_CFG.items() if k != "gamma1_db"}
DETECT_GAMMA_INF["gamma1"] = math.inf
SYM_KQ = {k: v for k, v in SYM_CFG.items() if k != "lam"}


@pytest.mark.parametrize("command, cfg, needle", [
    ("region", dict(SYM_CFG, alpha=math.nan), "must be finite"),
    ("region", dict(SYM_CFG, alpha=math.inf), "must be finite"),
    ("region", dict(SYM_CFG, theta=math.inf), "must be finite"),
    ("region", dict(SYM_CFG, lam=math.nan), "must be finite"),
    ("region", dict(SYM_CFG, a=math.nan), "must be finite"),
    ("region", SYM_P_NAN, "must be finite"),
    ("region", dict(SYM_CFG, lam=-0.6), "must be positive"),
    ("region", dict(SYM_CFG, a=-0.5), "must be nonnegative"),
    ("region", dict(SYM_CFG, N=math.inf), "'N' must be an integer"),
    ("region", dict(SYM_CFG, N=2.5), "'N' must be an integer"),
    ("region", dict(GRID_CFG, theta1=1e308), "2**1013"),
    ("region", dict(SYM_CFG, curve_points=0), "curve_points"),
    ("region", dict(GRID_CFG, N1=math.inf), "'N1' must be an integer"),
    ("region", dict(GRID_CFG, m_grid=math.inf), "'m_grid' must be"),
    ("design", dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    d_grid=[0.05, 3.0, math.inf]), "'d_grid count' must be"),
    ("buffers", dict(BUFFERS_CFG, trials=math.inf), "'trials' must be"),
    ("buffers", dict(BUFFERS_CFG, trials=0), "at least one trial"),
    ("buffers", dict(BUFFERS_CFG, user={"k": math.inf, "q": 0.3}),
     "'k' must be an integer"),
    ("detect", dict(DETECT_CFG, trials=math.inf), "'trials' must be"),
    ("detect", dict(DETECT_CFG, M=math.inf), "'M' must be an integer"),
    ("detect", dict(DETECT_CFG, a1=math.inf), "'a1' must be finite"),
    ("detect", DETECT_GAMMA_INF, "gamma1 must be positive and finite"),
    ("detect", dict(DETECT_CFG, gamma1_db=1e308),
     "gamma1 must be positive and finite"),
    ("region", dict(GRID_CFG, alpha=math.nan), "'alpha' must be finite"),
    ("region", dict(GRID_CFG, theta1=math.inf), "'theta1' must be finite"),
    ("region", dict(GRID_CFG, theta1=-1),
     "theta1 and theta2 must be positive"),
    ("buffers", dict(BUFFERS_CFG, delta=math.nan), "'delta' must be finite"),
    ("buffers", dict(BUFFERS_CFG, N=0), "N must be >= 1"),
    ("buffers", dict(BUFFERS_CFG, theta=0), "theta must be positive"),
    ("buffers", dict(BUFFERS_CFG, nprime=-5), "nprime must be nonnegative"),
    # a list field given as a string would be read one character at a time
    ("design", dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    ds="123"), "'ds' must be a non-empty list"),
    ("design", dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    ds=[]), "'ds' must be a non-empty list"),
    ("buffers", dict(BUFFERS_CFG, n_values="99"),
     "'n_values' must be a non-empty list"),
    ("detect", dict(DETECT_CFG, nprime_values="20"),
     "'nprime_values' must be a non-empty list"),
    # a JSON boolean is not a number
    ("buffers", dict(BUFFERS_CFG, trials=True), "'trials' must be an integer"),
    ("buffers", dict(BUFFERS_CFG, user={"k": 2, "q": True}),
     "'q' must be a number"),
    # the symmetric k and q obey the user-block rules
    ("region", dict(SYM_KQ, k=-2, q=-0.3), "k must be a positive integer"),
    ("region", dict(SYM_KQ, k=2, q=5), "q must be in (0, 1]"),
    ("buffers", dict(BUFFERS_CFG, out=5), "'out' must be a string"),
    # draws past the int64 guard or arrivals.MAX_TRIGGERS are refused
    # before they are drawn
    ("buffers", dict(BUFFERS_CFG, user={"k": 2, "q": 1e-18}), "int64 guard"),
    ("buffers", dict(BUFFERS_CFG, trials=2**19 + 1), "MAX_TRIGGERS"),
    # the outage CDF squares spreads up to 2d
    ("design", dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    ds=[1e308]), "4*d*d finite"),
    # checked for every N, though only N >= 2 has an immediacy row
    ("buffers", dict(BUFFERS_CFG, N=1, nprime=-5),
     "nprime must be nonnegative"),
    # receiver traces beyond detection.MAX_TRACE are refused before any draw
    ("detect", dict(DETECT_CFG, n_values=[10**13]), "MAX_TRACE"),
    ("detect", dict(DETECT_CFG, nprime_values=[20, 10**13]), "MAX_TRACE"),
    # N > n leaves under k bits a codeword; refused before the resonance
    # check loops over m = 1..N
    ("buffers", dict(BUFFERS_CFG, n_values=[300], N=10**9), "too small"),
    # mu*m/theta overflows for every m; no resonance, and no slot either
    ("buffers", dict(BUFFERS_CFG, theta=1e-320), "under one slot"),
    # at 180 dB rounding, not noise, decides every typicality test
    ("detect", dict(DETECT_CFG, n_values=[1000], M=64, trials=20,
                    gamma1_db=180, gamma2_db=180), "MAX_POWER"),
    # magnitudes that overflowed or ran for minutes in the trigger draw
    ("buffers", dict(BUFFERS_CFG, user={"k": 2**63, "q": 0.3}),
     "int64 guard"),
    ("buffers", dict(BUFFERS_CFG, user={"k": 1e300, "q": 0.3}),
     "int64 guard"),
    ("buffers", dict(BUFFERS_CFG, n_values=[10**13]), "int64 guard"),
    ("buffers", dict(BUFFERS_CFG, trials=2**63), "MAX_TRIGGERS"),
    ("buffers", dict(BUFFERS_CFG, trials=1e300), "MAX_TRIGGERS"),
    ("buffers", dict(BUFFERS_CFG, trials=10**8), "MAX_TRIGGERS"),
    ("buffers", dict(BUFFERS_CFG, delta=1e308),
     "(1 + delta) * 2**63 finite"),
    # every mu*m/theta past 2**53 is an integer; the slot check runs first
    ("buffers", dict(BUFFERS_CFG, theta=1e-300), "under one slot"),
    # theta = mu = 1/(N*q) is resonant at m = 1; the delta check runs first
    ("buffers", dict(BUFFERS_CFG, theta=1.6666666666666667, delta=-1),
     "delta must be positive"),
    # an explicit list of spreads obeys the d_grid count's budget
    ("design", dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    ds=[0.5] * (MAX_SPREADS + 1)), "MAX_SPREADS"),
    # the default preamble ceil(sqrt(n)) takes no root of a negative n
    ("buffers", dict({k: v for k, v in BUFFERS_CFG.items() if k != "nprime"},
                     n_values=[-5]), "n must be >= 1"),
    # at P = 0.8 (-1 dB) rbar_c1 falls below lam1 = 0.6: no rate box
    ("region", dict(GRID_CFG, user1=dict(USYM, P_db=-1), resolution=0.5),
     "empty rate box"),
])
def test_bad_numbers_are_config_errors(tmp_path, command, cfg, needle):
    # no --out flag, so the config's "out" is read
    res = run_cli(command, {"out": str(tmp_path / "out"), **cfg}, tmp_path,
                  out=None)
    assert res.returncode == 2, res.stderr
    assert needle in res.stderr
    assert "Traceback" not in res.stderr


def test_detect_trace_budget_is_checked_before_drawing(tmp_path):
    # in-process, so tracemalloc sees every allocation of the run
    cfg_path = tmp_path / "config.json"
    tracemalloc.start()
    try:
        for cfg in (dict(DETECT_CFG, n_values=[10**13]),
                    dict(DETECT_CFG, nprime_values=[20, 10**13])):
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["detect", "--config", str(cfg_path),
                             "--out", str(tmp_path / "out")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not (tmp_path / "out" / "detect.csv").exists()


def _detect_warnings_are_errors(cfg, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "burstgic.cli",
         "detect", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)


def test_detect_power_budget_keeps_statistics_finite(tmp_path):
    # with RuntimeWarning an error, an overflow in the scan exits 1
    res = _detect_warnings_are_errors(dict(DETECT_CFG, a1=1e308), tmp_path)
    assert res.returncode == 2, res.stderr
    assert "MAX_POWER" in res.stderr
    assert "Traceback" not in res.stderr
    # just inside the budget every statistic stays finite
    gamma = detection.MAX_POWER / 2.5
    cfg = {k: v for k, v in DETECT_CFG.items()
           if k not in ("gamma1_db", "gamma2_db")}
    cfg.update(gamma1=gamma, gamma2=gamma, a1=1.0, a2=1.0, n_values=[64],
               trials=3)
    res = _detect_warnings_are_errors(cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    assert len(read_rows(tmp_path / "out" / "detect.csv")) == 1


def test_cli_import_loads_no_scipy():
    code = ("import sys, burstgic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code, **preset):
    """Run code in a fresh interpreter whose environment holds none of
    BLAS_VARS except those in preset; its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**env, **preset})
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_cli_runs_one_native_thread(tmp_path):
    # OpenBLAS would start nproc - 1 idle workers when numpy loads
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(dict(DESIGN_CFG, R1_over_lambda=0.7,
                                   R2_over_lambda=0.7, d_grid=[0.05, 3.0, 6])))
    argv = ["design", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = ("import os\n"
            "threads = lambda: len(os.listdir('/proc/self/task'))\n"
            "from burstgic.cli import main\n"
            "after_import = threads()\n"
            f"assert main({argv!r}) == 0\n"
            "print(after_import, threads())")
    assert _fresh(code) == "1 1"


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_a_preset_blas_thread_count(var):
    code = ("import os\n"
            "before = dict(os.environ)\n"
            "import burstgic.cli\n"
            "print(dict(os.environ) == before)")
    assert _fresh(code, **{var: "2"}) == "True"


def test_package_import_sets_no_blas_threads_and_loads_no_numpy():
    code = ("import os, sys\n"
            "before = dict(os.environ)\n"
            "import burstgic\n"
            "print(dict(os.environ) == before, 'numpy' in sys.modules)")
    assert _fresh(code) == "True False"


def _loaded_after(code):
    """The burstgic modules and numpy.random that a fresh interpreter has
    loaded after running code."""
    code += ("\nimport json, sys\nprint(json.dumps([m for m in sys.modules "
             "if m.split('.')[0] == 'burstgic' or m == 'numpy.random']))")
    return set(json.loads(_fresh(code)))


def test_cli_import_loads_no_library_module():
    assert _loaded_after("import burstgic.cli") == {"burstgic", "burstgic.cli"}


def test_design_and_region_load_no_rng(tmp_path):
    runs = []
    for command, cfg in (
            ("design", dict(DESIGN_CFG, R1_over_lambda=0.7,
                            R2_over_lambda=0.7)),
            ("region", dict(GRID_CFG, m_grid=3, resolution=0.25))):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        runs.append([command, "--config", str(path),
                     "--out", str(tmp_path / command)])
    loaded = _loaded_after(f"from burstgic.cli import main\n"
                           f"assert [main(a) for a in {runs!r}] == [0, 0]")
    assert "burstgic.region" in loaded
    assert not loaded & {"numpy.random", "burstgic.detection",
                         "burstgic.arrivals"}


def test_region_loads_no_design_module(tmp_path):
    # IntervalUnion lives in model, so neither scenario of region loads
    # design or the geometry design imports
    runs = []
    for name, cfg in (("grid", dict(GRID_CFG, m_grid=3, resolution=0.25)),
                      ("symmetric", SYM_CFG)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append(["region", "--config", str(path),
                     "--out", str(tmp_path / name)])
    loaded = _loaded_after(f"from burstgic.cli import main\n"
                           f"assert [main(a) for a in {runs!r}] == [0, 0]")
    assert loaded == {"burstgic", "burstgic.cli", "burstgic.model",
                      "burstgic.reliability", "burstgic.region"}


def test_internal_value_error_propagates(tmp_path, monkeypatch):
    # main maps ConfigError and OSError to 2 and InfeasibleError to 3; a
    # bare ValueError from inside a command is a fault and must escape
    cfg = tmp_path / "buffers.json"
    cfg.write_text(json.dumps(BUFFERS_CFG))
    importlib.import_module("burstgic.arrivals")

    def fault(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(sys.modules["burstgic.arrivals"], "_trigger_rows",
                        fault)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["buffers", "--config", str(cfg),
                  "--out", str(tmp_path / "out")])


def test_json_format_emits_json(tmp_path):
    res = run_cli("buffers", BUFFERS_CFG, tmp_path,
                  extra=("--format", "json"))
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "out" / "delay_gap.json").read_text())
    assert isinstance(rows, list) and rows
    assert set(rows[0]) == {"n", "j", "lag_freq", "trials"}


@pytest.mark.parametrize("cfg, budget", [
    # the README design users with user 1 at 0.999*lam: 1716 active pairs,
    # N1 up to 998; this ran for over 57 CPU-minutes before the budget
    (dict(DESIGN_CFG, R1_over_lambda=0.999, R2_over_lambda=0.7,
          d_grid=[0.05, 3.0, 6]), "MAX_ACTIVE_PAIRS"),
    # weak users at 0.98*lam: 225 pairs, but N up to 48 on both sides,
    # about 3e7 units of alpha analysis
    (dict(DESIGN_CFG, user1={"k": 2, "q": 0.3, "P_db": 2, "a": 0.5},
          user2={"k": 2, "q": 0.3, "P_db": 2, "a": 0.5},
          R1_over_lambda=0.98, R2_over_lambda=0.98, d_grid=[0.05, 3.0, 6]),
     "MAX_ACTIVE_WORK"),
])
def test_design_work_budget_is_config_error(tmp_path, cfg, budget):
    # without the budget the first config runs for hours: time it out
    start = time.monotonic()
    res = run_cli("design", cfg, tmp_path, timeout=60.0)
    assert res.returncode == 2, res.stderr
    assert budget in res.stderr
    assert time.monotonic() - start < 20.0


DESIGN_PROBE = dict(DESIGN_CFG, R1_over_lambda=0.7, R2_over_lambda=0.7,
                    d_grid=[0.05, 3.0, 6])


@pytest.mark.parametrize("command, cfg", [
    # psi rounds to 0, which please1_holds once divided by
    ("design", dict(DESIGN_PROBE, user1=dict(U1, a=1e300))),
    ("design", dict(DESIGN_PROBE,
                    user1={"k": 3, "q": 0.3, "P": 2**63, "a": 0.5})),
    # lam = k*q underflows rbar_target's bracket
    ("design", dict(DESIGN_PROBE, user1=dict(U1, q=1e-320))),
    # counts past MAX_SPREADS and MAX_CURVE_POINTS, which np.linspace
    # refused with an IndexError (2**63) or "array is too big" (2**62)
    ("design", dict(DESIGN_PROBE, d_grid=[0.05, 3.0, 2**63])),
    ("design", dict(DESIGN_PROBE, d_grid=[0.05, 3.0, 2**62])),
    ("region", dict(SYM_CFG, curve_points=2**63)),
    ("region", dict(SYM_CFG, curve_points=2**62)),
    ("region", dict(SYM_CFG, n_gamma=2**63)),
    # an integer past float range is echoed in e-notation, and so is a
    # count below 2 that np.linspace would echo in full
    ("region", dict(SYM_CFG, n_gamma=10**400)),
    ("region", dict(SYM_CFG, n_gamma=-2**64)),
    # offset ratios of 1e300, inf and 1e12 sweep 4*N + 1 windows
    ("region", dict(SYM_CFG, alpha=1e300)),
    ("region", dict(SYM_CFG, alpha=5.0, theta=1e-320)),
    ("region", dict(SYM_CFG, alpha=5.0, theta=1e-12)),
    # a*gamma and theta*phi past float range
    ("region", dict(GRID_CFG, user1=dict(USYM, a=1e308))),
    ("region", dict(GRID_CFG, theta1=1e308)),
    ("region", dict(GRID_CFG, theta2=1e308)),
    ("region", dict(SYM_CFG, a=1e308)),
], ids=["design-a", "design-P", "design-q", "d_grid-2**63", "d_grid-2**62",
        "curve_points-2**63", "curve_points-2**62", "n_gamma-2**63",
        "n_gamma-10**400", "n_gamma--2**64", "sym-alpha", "sym-theta-1e-320",
        "sym-theta-1e-12", "grid-a-1e308", "grid-theta1-1e308",
        "grid-theta2-1e308", "sym-a-1e308"])
def test_extreme_magnitudes_exit_cleanly(tmp_path, command, cfg):
    res = run_cli(command, cfg, tmp_path, timeout=60.0,
                  flags=("-W", "error::RuntimeWarning"))
    assert res.returncode in (0, 2, 3), res.stderr
    assert "Traceback" not in res.stderr
    text = res.stdout + res.stderr
    assert max(map(len, re.findall(r"\d+", text)), default=0) < 20, text


@pytest.mark.parametrize("q", [1e-11, 1e-12, 1e-100])
def test_design_tiny_q_never_fails_bracketing(tmp_path, q):
    # rbar_target's root sits ever closer to lam as q shrinks; the upper
    # bracket end follows it, and past float resolution the run is
    # infeasible with a message naming q
    res = run_cli("design", dict(DESIGN_PROBE, user1=dict(U1, q=q)),
                  tmp_path, timeout=60.0,
                  flags=("-W", "error::RuntimeWarning"))
    assert res.returncode in (0, 3), res.stderr
    assert "bracketing failed" not in res.stdout + res.stderr
    assert "Traceback" not in res.stderr
    if res.returncode == 3:
        assert f"q = {q!r}" in res.stderr and "float resolution" in res.stderr
