"""Output checks behind the benchmark's failure count.

`design` and `region` use no RNG and are checked byte for byte against the
committed reference digests. `detect` and `buffers` are checked
statistically: each error or event count must be a plausible binomial draw
from the committed reference frequency, and so must each kind of count
summed over the rows, so a change of RNG stream passes while a change of
behaviour does not.

`check(name, out_dir, config, reference)` returns the workload's item count
and raises CheckError on any mismatch.
"""

import csv
import hashlib
import math
from pathlib import Path

#: per-count false-alarm probability of a binomial check
TAIL = 1e-7
#: spread of the reference frequency allowed for, in standard errors
REF_SIGMAS = 4.0
#: largest standard score of a kind of count summed over rows
POOLED_Z = 5.0


class CheckError(Exception):
    """A workload's output does not match its reference."""


def output_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _rows(path: Path) -> list:
    if not path.exists():
        raise CheckError(f"missing output {path.name}")
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _log_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def _tail(ks, n: int, p: float) -> float:
    return sum(math.exp(_log_pmf(k, n, p)) for k in ks)


def binomial_ok(x: int, n: int, ref_x: int, ref_n: int) -> bool:
    """Whether x events in n trials fit the reference frequency ref_x/ref_n.

    The reference frequency is widened by REF_SIGMAS standard errors (at
    least 6/ref_n, so a zero or full reference count still admits rare
    events); x passes unless it sits in a tail of probability below TAIL
    under every frequency in that range.
    """
    p = ref_x / ref_n
    width = max(REF_SIGMAS * math.sqrt(p * (1.0 - p) / ref_n), 6.0 / ref_n)
    p_lo, p_hi = max(0.0, p - width), min(1.0, p + width)
    upper = _tail(range(x, n + 1), n, p_hi)   # P(X >= x) at the highest p
    lower = _tail(range(0, x + 1), n, p_lo)   # P(X <= x) at the lowest p
    return upper >= TAIL and lower >= TAIL


def pooled_ok(obs) -> bool:
    """Whether the total of (x, n, ref_x, ref_n) rows fits the summed
    reference expectation, by a normal approximation that counts the
    reference's own sampling error. Totals with variance under one are
    left to binomial_ok."""
    dev = var = 0.0
    for x, n, ref_x, ref_n in obs:
        p = ref_x / ref_n
        dev += x - n * p
        var += n * p * (1.0 - p) * (1.0 + n / ref_n)
    return var < 1.0 or abs(dev) <= POOLED_Z * math.sqrt(var)


def _check_counts(kind: str, obs):
    for label, x, n, ref_x, ref_n in obs:
        _expect(binomial_ok(x, n, ref_x, ref_n),
                f"{kind} {label}: {x} of {n} is outside the binomial bounds "
                f"of the reference {ref_x} of {ref_n}")
    _expect(pooled_ok([o[1:] for o in obs]),
            f"{kind}: {sum(o[1] for o in obs)} summed over rows is too far "
            f"from the reference frequencies")


def count(freq: str, trials: int) -> int:
    x = float(freq) * trials
    if abs(x - round(x)) > 1e-6 * max(1, trials):
        raise CheckError(f"frequency {freq} is not a count over {trials}")
    return int(round(x))


def _expect(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _check_exact(out_dir: Path, reference: dict):
    got = output_digests(out_dir)
    _expect(sorted(got) == sorted(reference["files"]),
            f"output files {sorted(got)} != {sorted(reference['files'])}")
    for name, want in reference["files"].items():
        _expect(got[name] == want, f"{name} differs from the reference")


def check_design(out_dir, config, reference) -> int:
    _check_exact(out_dir, reference)
    return sum(len(_rows(p)) for p in out_dir.glob("outage_N*.csv"))


def check_region(out_dir, config, reference) -> int:
    _check_exact(out_dir, reference)
    with (out_dir / "region_points.csv").open("rb") as fh:
        return sum(1 for _ in fh) - 1


def check_detect(out_dir, config, reference) -> int:
    rows = _rows(out_dir / "detect.csv")
    trials = config["trials"]
    obs = {"recovered_traces": [], "decode_errors": [], "e2e_errors": []}
    _expect([int(r["n"]) for r in rows] == config["n_values"],
            "detect.csv rows do not follow n_values")
    for r in rows:
        n = int(r["n"])
        ref = reference["rows"][str(n)]
        _expect(int(r["nprime"]) == math.isqrt(n - 1) + 1, f"nprime at n={n}")
        _expect(int(r["trials"]) == trials and int(r["traces"]) == 2 * trials
                and int(r["bursts_total"]) == 4 * trials,
                f"trial counts at n={n}")
        _expect(float(r["eff_rate"]) == math.log2(config["M"]) / n,
                f"eff_rate at n={n}")
        for key, over in (("recovered_traces", "traces"),
                          ("decode_errors", "traces"),
                          ("e2e_errors", "trials")):
            obs[key].append((f"n={n}", int(r[key]), int(r[over]), ref[key],
                             ref[over]))
    for key, rows_obs in obs.items():
        _check_counts(key, rows_obs)
    return sum(int(r["traces"]) for r in rows)


def check_buffers(out_dir, config, reference) -> int:
    trials = config["trials"]
    ns, N = config["n_values"], config["N"]
    gap = _rows(out_dir / "delay_gap.csv")
    imm = _rows(out_dir / "immediacy.csv")
    _expect([(int(r["n"]), int(r["j"])) for r in gap]
            == [(n, j) for n in ns for j in range(1, N + 1)],
            "delay_gap.csv rows do not follow n_values x codewords")
    _expect([int(r["n"]) for r in imm] == ns,
            "immediacy.csv rows do not follow n_values")
    _expect(all(int(r["trials"]) == trials for r in gap + imm),
            "trial counts in the buffer datasets")
    ref_n = reference["trials"]
    _check_counts("lag", [
        (f"n={r['n']} j={r['j']}", count(r["lag_freq"], trials), trials,
         reference["lag"][f"{r['n']},{r['j']}"], ref_n) for r in gap])
    _check_counts("violation", [
        (f"n={r['n']}", count(r["violation_freq"], trials), trials,
         reference["violation"][r["n"]], ref_n) for r in imm])
    return 2 * trials * len(ns)


CHECKS = {
    "design": check_design,
    "region": check_region,
    "detect": check_detect,
    "buffers": check_buffers,
}


def check(name: str, out_dir: Path, config: dict, reference: dict) -> int:
    ref = reference[name]

    def pinned(cfg):
        return {k: v for k, v in cfg.items() if k != "trials"}

    _expect(pinned(ref["config"]) == pinned(config),
            f"the {name} reference was made for another config; "
            f"rerun bench/make_reference.py")
    return CHECKS[name](out_dir, config, ref)
