"""Burst-count design against random activation offsets.

Given target average rates, enumerate the feasible burst counts (N1, N2),
work out which offset differences alpha = nu2 - nu1 keep every codeword
decodable, and pick the (N1, N2) minimizing the outage probability when
the offsets are drawn uniformly from [0, d].
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from burstgic import ConfigError, InfeasibleError
from burstgic.geometry import alpha_breakpoints
from burstgic.model import (
    IntervalUnion,
    UserParams,
    capacity_c,
    derive_scheme_v,
    rate_pair,
)
from burstgic.reliability import covered_lengths, rate_bound

__all__ = [
    "InfeasibleDesignError",
    "OutageCurve",
    "rbar_target",
    "active_set",
    "please1_holds",
    "admissible_alpha",
    "inadmissible_alpha",
    "outage",
    "d_max",
    "optimize_N",
    "outage_curve",
]


class InfeasibleDesignError(InfeasibleError):
    """No burst count is compatible with the requested rates."""


@dataclass(frozen=True)
class OutageCurve:
    """Outage probability sampled over a grid of offset spreads d."""

    N1: int
    N2: int
    samples: tuple  # of (d, outage)

    def __post_init__(self):
        if any(not 0.0 <= p <= 1.0 for _, p in self.samples):
            raise ValueError("outage values must lie in [0, 1]")


#: rbar_target solves on (lam*_BRACKET, lam). Its h divides by R and by
#: lam - R, so a design user's lam = k*q must be at least MIN_LAM (about
#: 2.2e-296), where the lower end is a normal float.
_BRACKET = 1e-12
MIN_LAM = sys.float_info.min / _BRACKET


@functools.lru_cache(maxsize=1024)
def rbar_target(u: UserParams, N: int) -> float:
    """Largest average rate with a decodable interference-free codeword.

    Solves theta_hat(R) * C(gamma_hat(R)) = k/N for R on (0, lam) to
    neighbouring floats; the left side strictly exceeds k/N below the root.
    Cached per (user, N): active_set asks for the same roots at every
    spread optimize_N visits and again in please1_holds.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    lam = u.lam

    def h(R):
        theta = (lam / R - 1.0) / u.q
        gamma = (u.P / N) * lam / (lam - R)
        return theta * capacity_c(gamma) - u.k / N

    lo, hi = lam * _BRACKET, lam
    if h(lo) <= 0.0:
        raise InfeasibleDesignError(f"no feasible rate for N={N}: even R->0 "
                                    f"cannot carry k/N={u.k / N}")
    # h > 0 below the root and h -> -k/N as R -> lam: bisect down to
    # neighbouring floats, where rounding may still step h up by an ulp,
    # and keep the end whose neighbours straddle the root
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if h(mid) > 0.0 else (lo, mid)
    if hi == lam:
        raise InfeasibleDesignError(f"q = {u.q!r}: the rate root for N={N} "
                                    "lies within float resolution of lam")
    return lo if h(math.nextafter(lo, 0.0)) > 0.0 > h(hi) else hi


def _n_window(u: UserParams, R: float) -> list:
    """All N whose feasible-rate window contains R.

    The window bounds are strict; a rate sitting on a bound (up to float
    noise) is excluded, so e.g. R = 0.8*lam does not activate N = 4.
    """
    if not 0.0 < R < u.lam:
        raise ConfigError(f"R must be in (0, lam={u.lam}), got {R}")
    tol = 1e-9 * u.lam
    out = []
    N = 1
    while True:
        lower = u.lam * N / (N + 1.0) if N > 1 else 0.0
        if lower >= R - tol:
            break
        if R < rbar_target(u, N) - tol:
            out.append(N)
        N += 1
    return out


def active_set(u1: UserParams, u2: UserParams, R1: float, R2: float) -> set:
    """Burst-count pairs (N1, N2) compatible with the target rates."""
    w1, w2 = _n_window(u1, R1), _n_window(u2, R2)
    return {(a, b) for a in w1 for b in w2}


#: Work budget of one design run over an active set. The alpha analysis of
#: a pair prices N1 + N2 codewords on each of its ~2*N1*N2 breakpoint
#: pieces, and costs about 1 us per unit of N1*N2*(N1 + N2) (measured on a
#: 2-CPU x86 box: 0.015 s at (141, 1), 0.42 s at (500, 2), 2.0 s at
#: (998, 2)). Its cache holds MAX_ACTIVE_PAIRS pairs, so each pair is
#: analysed once however many spreads optimize_N visits; a larger active
#: set would redo every analysis at every spread. MAX_ACTIVE_WORK units
#: summed over the active set are about 10 s of analysis. The README
#: design users at R1 = 0.999*lam, R2 = 0.7*lam have 1716 pairs and about
#: 1e9 units, some 15 minutes a pass.
MAX_ACTIVE_PAIRS = 256
MAX_ACTIVE_WORK = 10 ** 7

#: Most offset spreads one design run takes. Each spread costs every active
#: pair an outage value in optimize_N and a row of its outage curve, about
#: 9 us a pair on the 2-CPU benchmark machine (15,000 spreads of 9 pairs:
#: 1.3 s), so MAX_ACTIVE_PAIRS pairs at 2**12 spreads take about 10 s and
#: write about 40 MB of CSV.
MAX_SPREADS = 2 ** 12


def active_work(act) -> int:
    """Alpha-analysis work units N1*N2*(N1 + N2) summed over pairs."""
    return sum(N1 * N2 * (N1 + N2) for N1, N2 in act)


def _schemes_and_rates(u1, u2, N1, N2, R1, R2):
    s1 = derive_scheme_v(u1, N1, R1)
    s2 = derive_scheme_v(u2, N2, R2)
    rp1 = rate_pair(s1.gamma, s2.gamma, u2.a)
    rp2 = rate_pair(s2.gamma, s1.gamma, u1.a)
    return s1, s2, rp1, rp2


def _both_reliable(s1, s2, rp1, rp2) -> bool:
    """Whether both loads sit below their interference-free thresholds, so
    every overlap pattern decodes (no division: psi may round to 0)."""
    return s1.eta < s1.theta * rp1.psi and s2.eta < s2.theta * rp2.psi


def please1_holds(u1: UserParams, u2: UserParams, R1: float, R2: float) -> bool:
    """Whether offsets can matter: every active (N1, N2) leaves at least
    one user above its always-reliable load."""
    act = active_set(u1, u2, R1, R2)
    if not act:
        raise InfeasibleDesignError("active set is empty")
    for N1, N2 in act:
        if _both_reliable(*_schemes_and_rates(u1, u2, N1, N2, R1, R2)):
            return False
    return True


def _thresholds(s1, s2, rp1, rp2, nu1, nu2) -> np.ndarray:
    """Reliability threshold of every codeword, user 1's then user 2's,
    for arrays of offsets."""
    covs = covered_lengths(s1.mu, s1.theta, nu1, s1.N,
                           s2.mu, s2.theta, nu2, s2.N)
    out = []
    for s, rp, nu, cov in ((s1, rp1, nu1, covs[0]), (s2, rp2, nu2, covs[1])):
        lo = np.arange(1, s.N + 1) * s.mu + np.asarray(nu)[..., None]
        # the length as the codeword's endpoints give it, not theta, so
        # the thresholds match the per-layout oracle bit for bit
        out.append(rate_bound(cov, (lo + s.theta) - lo, rp))
    return np.concatenate(out, axis=-1)


def _probes(lo, hi):
    """Two interior alphas of one breakpoint piece."""
    if math.isinf(lo):
        return hi - 1.5, hi - 0.5
    if math.isinf(hi):
        return lo + 0.5, lo + 1.5
    return lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0


@functools.lru_cache(maxsize=MAX_ACTIVE_PAIRS)
def _alpha_analysis(u1, u2, N1, N2, R1, R2):
    """Admissible and inadmissible alpha intervals for one (N1, N2).

    Between consecutive breakpoints each codeword's threshold is affine in
    alpha; two probes per piece give its slope and intercept. Cached per
    argument tuple, which the frozen UserParams make hashable.
    """
    s1, s2, rp1, rp2 = _schemes_and_rates(u1, u2, N1, N2, R1, R2)
    if _both_reliable(s1, s2, rp1, rp2):
        # every overlap pattern decodes; offsets are irrelevant
        full = IntervalUnion.from_intervals([(-math.inf, math.inf)])
        return full, IntervalUnion.from_intervals([])

    edges = [-math.inf] + alpha_breakpoints((s1, s2)) + [math.inf]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    pa, pb = np.array([_probes(a, b) for a, b in zip(edges, edges[1:])]).T
    t = _thresholds(s1, s2, rp1, rp2, 0.0, np.concatenate([pa, pb]))
    ta, tb = t[:len(pa)], t[len(pa):]
    slope = (tb - ta) / (pb - pa)[:, None]
    # offsets must enter only through their difference: the coefficient on
    # nu1 has to cancel the coefficient on nu2
    h = 1e-5 * np.maximum(1.0, np.abs(pa))
    c1 = (_thresholds(s1, s2, rp1, rp2, h, pa + h) - ta) / h[:, None]
    drift = np.abs(c1) > 1e-6 * np.maximum(1.0, np.abs(slope))
    if drift.any():
        raise AssertionError(
            f"threshold depends on (nu1, nu2) beyond their difference: "
            f"joint-shift derivative {c1[drift][0]}"
        )
    eta = np.repeat([s1.eta, s2.eta], [N1, N2])
    margin = (ta - slope * pa[:, None]) - eta  # eta < slope*alpha + icept
    flat = np.abs(slope) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = -margin / slope
    clo = np.maximum(lo, np.where(~flat & (slope > 0.0), cut, -math.inf).max(1))
    chi = np.minimum(hi, np.where(~flat & (slope < 0.0), cut, math.inf).min(1))
    # a flat threshold at or below eta leaves nothing admissible in the piece
    good = (clo < chi) & ~(flat & (margin <= 0.0)).any(1)
    adm, bad = [], []
    for l, r, a, b, g in zip(edges, edges[1:], clo.tolist(), chi.tolist(),
                             good.tolist()):
        if g:
            adm.append((a, b))
            if a > l:
                bad.append((l, a))
            if b < r:
                bad.append((b, r))
        else:
            bad.append((l, r))
    return IntervalUnion.from_intervals(adm), IntervalUnion.from_intervals(bad)


def admissible_alpha(u1: UserParams, u2: UserParams, N1: int, N2: int,
                     R1: float, R2: float) -> IntervalUnion:
    """Offset differences alpha for which every codeword decodes reliably.

    Piecewise construction: between consecutive breakpoints the overlap
    pattern is frozen, each codeword's threshold is affine in alpha, and
    the admissible part of the piece is a single interval.
    """
    return _alpha_analysis(u1, u2, N1, N2, R1, R2)[0]


def inadmissible_alpha(u1: UserParams, u2: UserParams, N1: int, N2: int,
                       R1: float, R2: float) -> IntervalUnion:
    """Complement of admissible_alpha within the breakpoint sweep (the
    grey region of offset differences that break some codeword)."""
    return _alpha_analysis(u1, u2, N1, N2, R1, R2)[1]


def _triangular_cdf(x: float, d: float) -> float:
    """CDF of nu2 - nu1 with nu_i i.i.d. uniform on [0, d]."""
    if x <= -d:
        return 0.0
    if x >= d:
        return 1.0
    if x <= 0.0:
        return (x + d) ** 2 / (2.0 * d * d)
    return 1.0 - (d - x) ** 2 / (2.0 * d * d)


def outage(adm: IntervalUnion, d: float) -> float:
    """Probability that the offset difference misses the admissible set."""
    # _triangular_cdf squares up to 2d, so 4*d*d must not overflow either
    if not (math.isfinite(4 * d * d) and d > 0):
        raise ValueError(f"d must be positive with 4*d*d finite, got {d}")
    p = sum(
        _triangular_cdf(hi, d) - _triangular_cdf(lo, d)
        for lo, hi in adm.intervals
    )
    return min(1.0, max(0.0, 1.0 - p))


def d_max(u1: UserParams, u2: UserParams, N1: int, N2: int,
          R1: float, R2: float) -> float:
    """Largest offset spread with guaranteed zero outage.

    Returns +inf when no offset difference is inadmissible at all, and 0
    when inadmissible points sit arbitrarily close to alpha = 0.
    """
    _, bad = _alpha_analysis(u1, u2, N1, N2, R1, R2)
    if bad.is_empty:
        return math.inf
    dist = math.inf
    for lo, hi in bad.intervals:
        if lo < 0.0 < hi:
            return 0.0
        dist = min(dist, abs(lo) if lo >= 0.0 else abs(hi))
    return dist


def optimize_N(u1: UserParams, u2: UserParams, R1: float, R2: float,
               d: float):
    """Outage-minimizing burst counts at spread d.

    Returns ((N1, N2), table) where table maps each active pair to its
    outage. Ties go to the smallest N1+N2, then the smallest N1.
    """
    act = sorted(active_set(u1, u2, R1, R2))
    if not act:
        raise InfeasibleDesignError("active set is empty")
    table = {}
    for N1, N2 in act:
        adm = admissible_alpha(u1, u2, N1, N2, R1, R2)
        table[(N1, N2)] = outage(adm, d)
    best = min(act, key=lambda p: (round(table[p], 12), p[0] + p[1], p[0]))
    return best, table


def outage_curve(u1: UserParams, u2: UserParams, N1: int, N2: int,
                 R1: float, R2: float, ds) -> OutageCurve:
    """Outage versus spread d for one burst-count pair."""
    adm = admissible_alpha(u1, u2, N1, N2, R1, R2)
    samples = tuple((float(d), outage(adm, d)) for d in ds)
    return OutageCurve(N1=N1, N2=N2, samples=samples)
