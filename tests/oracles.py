"""Oracles and helpers that only the tests use.

Closed forms of the symmetric layout, the overlap triples rebuilt from a
channel state, the degeneracy filter for burst offsets, membership and
intersection of interval unions (the Monte Carlo side of the outage
checks), the former body of reliability.covered_lengths, the
per-window typicality test behind detection._typical_from_sums, and the
full-trace preamble scan that detection.estimate_arrivals replaced.
Names that a single test module needs live in that module.

Importable from any test module because pytest puts this directory on
sys.path.
"""

import math

import numpy as np

from burstgic.design import IntervalUnion
from burstgic.detection import (
    PDF_IDS,
    TypicalityParams,
    _mean_log_gauss,
    _typical_from_sums,
    _window_sums,
)
from burstgic.geometry import ChannelStateS, OverlapTriple, _critical_alphas


def _jstar(mu: float, alpha: float) -> int:
    """Offset class: the j with alpha/j < mu < alpha/(j-1)."""
    if alpha <= 0:
        return 1
    js = int(math.floor(alpha / mu)) + 1
    if not alpha / js < mu:
        raise ValueError(f"mu={mu} sits exactly on a breakpoint alpha/{js}")
    return js


def sym_omega(N: int, mu: float, theta: float, alpha: float) -> dict:
    """Overlap triples of the symmetric layout, straight from (mu, theta, alpha).

    Closed-form counterpart of overlap_profile when both users share N, mu
    and theta (offsets 0 and alpha >= 0). w_in is always 0: equal-length
    bursts never nest strictly.
    """
    if mu <= 0 or theta <= 0:
        raise ValueError("mu and theta must be positive")
    if N > 1 and mu <= theta:
        raise ValueError("bursts overlap their own successors")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    js = _jstar(mu, alpha)
    lo_ok = mu > (alpha - theta) / (js - 1) if js > 1 else alpha < theta
    hi_ok = mu < (alpha + theta) / js
    out = {}
    for j in range(1, N + 1):
        wm1 = j - js if j >= js + 1 and hi_ok else 0
        wp1 = j - js + 1 if j >= js and lo_ok else 0
        wm2 = j + js - 1 if j <= N - js + 1 and lo_ok else 0
        wp2 = j + js if j <= N - js and hi_ok else 0
        out[(1, j)] = OverlapTriple(wm1, wp1, 0)
        out[(2, j)] = OverlapTriple(wm2, wp2, 0)
    return out


def triples_from_state(S: ChannelStateS, N1: int, N2: int) -> dict:
    """Overlap triples of every codeword, reconstructed from the state alone.

    Works because the state pins down exactly which Tx-1 interval holds each
    Tx-2 endpoint: evenness of an index says the endpoint is inside a burst.
    """
    if len(S.pairs) != N2:
        raise ValueError(f"state has {len(S.pairs)} pairs, expected N2={N2}")
    if S.flat and max(S.flat) > 2 * N1 + 1:
        raise ValueError("state indices exceed 2*N1+1")
    out = {}
    for j, (u, v) in enumerate(S.pairs, 1):
        w_minus = u // 2 if u % 2 == 0 else 0
        w_plus = v // 2 if v % 2 == 0 else 0
        w_in = sum(1 for m in range(1, N1 + 1) if u <= 2 * m - 1 and v >= 2 * m + 1)
        out[(2, j)] = OverlapTriple(w_minus, w_plus, w_in)
    for m in range(1, N1 + 1):
        w_minus = w_plus = w_in = 0
        for j, (u, v) in enumerate(S.pairs, 1):
            if u <= 2 * m - 1 and v >= 2 * m:
                w_minus = j
            if u <= 2 * m and v >= 2 * m + 1:
                w_plus = j
            if u == v == 2 * m:
                w_in += 1
        out[(1, m)] = OverlapTriple(w_minus, w_plus, w_in)
    return out


def mild_check(schemes, nu1: float, nu2: float, tol: float) -> bool:
    """True when no burst-endpoint pair sits within tol of coinciding."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    s1, s2 = schemes
    alpha = nu2 - nu1
    return all(abs(alpha - v) > tol for v in _critical_alphas(s1, s2))


def contains(iu: IntervalUnion, x: float) -> bool:
    for lo, hi in iu.intervals:
        if lo < x < hi:
            return True
    return False


def contains_many(iu: IntervalUnion, xs: np.ndarray) -> np.ndarray:
    """Vectorized membership. A point equal to an interval's left end
    counts as outside and one equal to its right end as inside, which is
    immaterial for continuous draws."""
    if iu.is_empty:
        return np.zeros(len(xs), dtype=bool)
    bounds = np.array([b for iv in iu.intervals for b in iv])
    return np.searchsorted(bounds, xs) % 2 == 1


def intersect(iu: IntervalUnion, other: IntervalUnion) -> IntervalUnion:
    out = []
    for a_lo, a_hi in iu.intervals:
        for b_lo, b_hi in other.intervals:
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo < hi:
                out.append((lo, hi))
    return IntervalUnion.from_intervals(out)


def covered_lengths_loop(mu1, theta1, nu1, N1, mu2, theta2, nu2, N2):
    """reliability.covered_lengths as it was first written: codewords on
    the trailing axis, and one fresh array per operation. The kernel that
    replaced it writes each step into scratch arrays and must agree with
    this bit for bit, sign of zero included."""
    mu1, nu1, mu2, nu2 = (np.asarray(x, dtype=float)[..., None]
                          for x in (mu1, nu1, mu2, nu2))
    lo1 = np.arange(1, N1 + 1) * mu1 + nu1
    lo2 = np.arange(1, N2 + 1) * mu2 + nu2
    hi1, hi2 = lo1 + theta1, lo2 + theta2

    def covered(a, a2, b, b2):
        cov = 0.0
        for m in range(b.shape[-1]):
            over = np.minimum(a2, b2[..., m:m + 1]) - np.maximum(a, b[..., m:m + 1])
            cov = cov + np.maximum(over, 0.0)
        return cov

    return covered(lo1, hi1, lo2, hi2), covered(lo2, hi2, lo1, hi1)


def typicality_deviations(xs, ys, tp: TypicalityParams):
    """|empirical log-density + entropy| for the x, y and joint conditions."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs and ys must be equal-length nonempty vectors")
    m = xs.size
    dx = abs(_mean_log_gauss(float(xs @ xs), m, tp.var_x) + tp.h_x)
    dy = abs(_mean_log_gauss(float(ys @ ys), m, tp.var_y) + tp.h_y)
    res = ys - tp.coef * xs
    joint = (_mean_log_gauss(float(xs @ xs), m, tp.var_x)
             + _mean_log_gauss(float(res @ res), m, tp.var_res))
    dxy = abs(joint + tp.h_joint)
    return dx, dy, dxy


def typicality_test(xs, ys, tp: TypicalityParams) -> bool:
    """True iff (xs, ys) is an eps-jointly typical pair for tp's density."""
    return max(typicality_deviations(xs, ys, tp)) < tp.eps


def scan_densities(y, preambles, tps) -> dict:
    """typicality_test of both preambles at every window of y, under all
    four densities.

    preambles[0] is tested against p1/p2 and preambles[1] against p3/p4,
    as in estimate_arrivals. The window energies are summed once per
    trace and each preamble is cross-correlated once. The result is
    {pdf: (ok, joint_dev)} over the len(y)-m+1 window starts t: ok[t] is
    typicality_test on y[t:t+m], and joint_dev[t] is that window's
    joint-condition deviation (used to break ties between senders).
    """
    y = np.asarray(y, dtype=float)
    preambles = [np.asarray(p, dtype=float) for p in preambles]
    m = preambles[0].size
    if m == 0 or preambles[1].size != m:
        raise ValueError("preambles must be nonempty and of equal length")
    if y.size < m:
        empty = (np.zeros(0, dtype=bool), np.zeros(0))
        return {pdf: empty for pdf in PDF_IDS}
    sum_y = _window_sums(y, m)
    out = {}
    for xs, pdfs in zip(preambles, (("p1", "p2"), ("p3", "p4"))):
        cross = np.correlate(y, xs, mode="valid")
        sum_x = float(xs @ xs)
        for pdf in pdfs:
            out[pdf] = _typical_from_sums(sum_x, sum_y, cross, m, tps[pdf])
    return out


def estimate_arrivals_full(trace, preambles, tps, nprime: int,
                           n_codewords) -> list:
    """detection.estimate_arrivals as it was first written: every density
    scanned at every window of the trace (scan_densities) before the
    sequential loop reads them. The scan that replaced it tests only the
    windows the loop reads and must return the same estimates."""
    for pdf in PDF_IDS:
        if pdf not in tps:
            raise ValueError(f"missing typicality params for {pdf}")
    s1, s2 = (np.asarray(p, dtype=float) for p in preambles)
    if s1.size != nprime or s2.size != nprime:
        raise ValueError("preamble lengths must equal nprime")
    scans = scan_densities(trace.y, (s1, s2), tps)
    (ok1, dev1), (ok2, _), (ok3, dev3), (ok4, _) = (
        scans[pdf] for pdf in PDF_IDS)
    T = ok1.size
    found = []
    ends = {1: -1, 2: -1}
    t = 0
    while t < T:
        live = [i for i in (1, 2) if ends[i] >= t]
        if len(live) == 2:
            t = min(ends.values()) + 1
            continue
        if len(live) == 1:
            i = live[0]
            o = 3 - i
            ok_in = ok4 if o == 2 else ok2
            hits = np.flatnonzero(ok_in[t:min(ends[i], T - 1) + 1])
            if hits.size:
                ts = t + int(hits[0])
                found.append((ts, o))
                ends[o] = ts + nprime + n_codewords[o - 1] - 1
                t = ts + 1
            else:
                t = ends[i] + 1
            continue
        hits = np.flatnonzero(ok1[t:] | ok3[t:])
        if not hits.size:
            break
        ts = t + int(hits[0])
        if ok1[ts] and ok3[ts]:
            sender = 1 if dev1[ts] <= dev3[ts] else 2
        else:
            sender = 1 if ok1[ts] else 2
        found.append((ts, sender))
        ends[sender] = ts + nprime + n_codewords[sender - 1] - 1
        t = ts + 1
    return found
