"""Oracles and helpers that only the tests use.

The per-layout geometry the library no longer runs: BurstLayout, the
overlap triples (overlap_profile), the channel state (state_of) and its
enumeration, the degeneracy check for coinciding endpoints, and the
per-layout clear/interfered split (rate_decomp) with its case-by-case
closed form (closed_form_bound), which layout_bound prices through
reliability.rate_bound. Also closed forms of the symmetric layout, the
overlap triples rebuilt from a channel state, the degeneracy filter for
burst offsets, membership and intersection of interval unions (the Monte
Carlo side of the outage checks), the former body of
reliability.covered_lengths, the per-window typicality test behind
detection._typical_from_sums, the full-trace preamble scan that
detection.estimate_arrivals replaced, and the long-run power and
throughput that derive_scheme_v inverts. Names that a single test module
needs live in that module.

Importable from any test module because pytest puts this directory on
sys.path.
"""

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from burstgic.detection import (
    PDF_IDS,
    TypicalityParams,
    _mean_log_gauss,
    _typical_from_sums,
    _window_sums,
)
from burstgic.geometry import _COINCIDENCE_TOL, _critical_alphas
from burstgic.model import IntervalUnion, RatePair, UserParams, capacity_c
from burstgic.region import _pert_windows, _rbar_raw, _solve_windows, sym_curves
from burstgic.reliability import rate_bound


# ------------------------------------------------- per-layout geometry
#
# One layout of both users' bursts and what the library's covered-length
# kernel is checked against: the overlap triple of each codeword, the
# channel state, every state of a burst-count pair, and each codeword's
# clear/interfered split with its closed form.

_STATE_COUNT_GUARD = 10**7


class DegenerateLayoutError(ValueError):
    """Burst endpoints coincide, so overlap bookkeeping is ill-defined."""


@dataclass(frozen=True)
class BurstLayout:
    """Interval layout of both users' bursts in scaled time.

    Burst j of user i occupies (j*mu_i + nu_i, j*mu_i + nu_i + theta_i)
    for j = 1..N_i.
    """

    mu1: float
    theta1: float
    nu1: float
    N1: int
    mu2: float
    theta2: float
    nu2: float
    N2: int

    def __post_init__(self):
        for i, (mu, theta, N) in enumerate(
            [(self.mu1, self.theta1, self.N1), (self.mu2, self.theta2, self.N2)], 1
        ):
            if mu <= 0 or theta <= 0:
                raise ValueError(f"user {i}: need mu > 0 and theta > 0")
            if N < 1:
                raise ValueError(f"user {i}: N must be >= 1, got {N}")
            if N > 1 and mu <= theta:
                raise ValueError(
                    f"user {i}: bursts overlap each other (mu={mu} <= theta={theta})"
                )

    def params(self, user: int) -> tuple[float, float, float, int]:
        if user == 1:
            return self.mu1, self.theta1, self.nu1, self.N1
        if user == 2:
            return self.mu2, self.theta2, self.nu2, self.N2
        raise ValueError(f"user must be 1 or 2, got {user}")

    def burst(self, user: int, j: int) -> tuple[float, float]:
        """Endpoints of burst j of the given user."""
        mu, theta, nu, N = self.params(user)
        if not 1 <= j <= N:
            raise IndexError(f"user {user} has bursts 1..{N}, got {j}")
        lo = j * mu + nu
        return lo, lo + theta

    def bursts(self, user: int) -> list[tuple[float, float]]:
        _, _, _, N = self.params(user)
        return [self.burst(user, j) for j in range(1, N + 1)]


@dataclass(frozen=True)
class OverlapTriple:
    """How the other user's bursts sit relative to one codeword.

    w_minus / w_plus: index of the burst covering the codeword's left/right
    endpoint (0 when uncovered). w_in: number of bursts fully inside.
    """

    w_minus: int
    w_plus: int
    w_in: int

    def __post_init__(self):
        if min(self.w_minus, self.w_plus, self.w_in) < 0:
            raise ValueError("overlap indices are nonnegative")


@dataclass(frozen=True)
class ChannelStateS:
    """Channel state: interval indices (u_j, v_j) of each Tx-2 burst's
    endpoints in the partition cut by Tx-1's burst endpoints."""

    pairs: tuple

    def __post_init__(self):
        flat = self.flat
        if any(b < a for a, b in zip(flat, flat[1:])):
            raise ValueError(f"state sequence must be nondecreasing: {flat}")
        if any(f < 1 for f in flat):
            raise ValueError("interval indices start at 1")

    @property
    def flat(self) -> tuple:
        return tuple(x for p in self.pairs for x in p)

    @classmethod
    def from_flat(cls, flat) -> "ChannelStateS":
        flat = tuple(int(x) for x in flat)
        if len(flat) % 2:
            raise ValueError("flat state must have even length")
        return cls(pairs=tuple((flat[m], flat[m + 1]) for m in range(0, len(flat), 2)))


def _check_mild(l: BurstLayout, tol: float = _COINCIDENCE_TOL):
    ends1 = [e for b in l.bursts(1) for e in b]
    ends2 = [e for b in l.bursts(2) for e in b]
    for e1 in ends1:
        for e2 in ends2:
            if abs(e1 - e2) <= tol:
                raise DegenerateLayoutError(
                    f"burst endpoints coincide at t={e1} (within {tol})"
                )


def overlap_profile(l: BurstLayout) -> dict:
    """Overlap triple of every codeword, keyed by (user, j)."""
    _check_mild(l)
    out = {}
    for user, other in ((1, 2), (2, 1)):
        interferers = l.bursts(other)
        _, _, _, N = l.params(user)
        for j in range(1, N + 1):
            a, a2 = l.burst(user, j)
            w_minus = w_plus = w_in = 0
            for m, (b, b2) in enumerate(interferers, 1):
                if b < a < b2:
                    w_minus = m
                if b < a2 < b2:
                    w_plus = m
                if a < b and b2 < a2:
                    w_in += 1
            out[(user, j)] = OverlapTriple(w_minus, w_plus, w_in)
    return out


def state_of(l: BurstLayout) -> ChannelStateS:
    """Locate each Tx-2 endpoint in the partition cut by Tx-1 endpoints."""
    _check_mild(l)
    cuts = sorted(e for b in l.bursts(1) for e in b)
    pairs = []
    for b, b2 in l.bursts(2):
        u = bisect_left(cuts, b) + 1
        v = bisect_left(cuts, b2) + 1
        pairs.append((u, v))
    return ChannelStateS(pairs=tuple(pairs))


def enumerate_states(N1: int, N2: int) -> list:
    """All channel states reachable for burst counts (N1, N2).

    These are the nondecreasing sequences of length 2*N2 over the alphabet
    1..2*N1+1; there are C(2*N1+2*N2, 2*N2) of them.
    """
    if N1 < 1 or N2 < 1:
        raise ValueError("burst counts must be >= 1")
    count = math.comb(2 * N1 + 2 * N2, 2 * N2)
    if count > _STATE_COUNT_GUARD:
        raise ValueError(
            f"state count {count} exceeds guard {_STATE_COUNT_GUARD}"
        )
    alphabet = range(1, 2 * N1 + 2)
    states = []
    for flat in itertools.combinations_with_replacement(alphabet, 2 * N2):
        states.append(ChannelStateS.from_flat(flat))
    if len(states) != count:
        raise AssertionError(f"enumerated {len(states)} states, expected {count}")
    return states


@dataclass(frozen=True)
class RateDecomp:
    """Scaled lengths of the clear and interfered parts of one codeword."""

    len_clear: float
    len_interf: float

    def __post_init__(self):
        if self.len_clear < 0 or self.len_interf < 0:
            raise ValueError("subinterval lengths must be nonnegative")


def rate_decomp(l: BurstLayout, user: int, j: int) -> RateDecomp:
    """Split codeword j of the given user into clear/interfered lengths."""
    other = 2 if user == 1 else 1
    a, a2 = l.burst(user, j)
    covered = 0.0
    for b, b2 in l.bursts(other):
        covered += max(0.0, min(a2, b2) - max(a, b))
    theta = a2 - a
    d = RateDecomp(len_clear=theta - covered, len_interf=covered)
    if not abs(d.len_clear + d.len_interf - theta) < 1e-12:
        raise AssertionError(
            f"clear {d.len_clear} + interfered {d.len_interf} != length {theta}")
    return d


def closed_form_bound(triple, schemes, nu1: float, nu2: float,
                      user: int, j: int, rp: RatePair) -> float:
    """Same threshold as layout_bound, but from the overlap-case formulas.

    The interfered length is reconstructed from the overlap triple alone
    (plus the layout parameters), not from interval intersections.
    """
    s1, s2 = schemes
    if user == 1:
        mu, theta, nu = s1.mu, s1.theta, nu1
        mu_o, theta_o, nu_o = s2.mu, s2.theta, nu2
    elif user == 2:
        mu, theta, nu = s2.mu, s2.theta, nu2
        mu_o, theta_o, nu_o = s1.mu, s1.theta, nu1
    else:
        raise ValueError(f"user must be 1 or 2, got {user}")

    wm, wp, w = triple.w_minus, triple.w_plus, triple.w_in
    if wm == 0 and wp == 0:
        covered = w * theta_o
    elif wm != 0 and wp == wm:
        if w != 0:
            raise ValueError(f"containment triple cannot also enclose bursts: {triple}")
        covered = theta
    elif wm != 0 and wp != 0:
        if wp - wm != w + 1:
            raise ValueError(f"no overlap case matches triple {triple}")
        covered = theta - (1 + w) * (mu_o - theta_o)
    elif wm != 0:  # left end covered, right end clear
        covered = (wm * mu_o + nu_o + theta_o) - (j * mu + nu) + w * theta_o
    else:  # right end covered, left end clear
        covered = (j * mu + nu + theta) - (wp * mu_o + nu_o) + w * theta_o
    return theta * rp.phi - (rp.phi - rp.psi) * covered


def layout_bound(l: BurstLayout, user: int, j: int, rp: RatePair) -> float:
    """Reliability threshold of codeword j of the given user on layout l:
    reliability.rate_bound on rate_decomp's interfered length."""
    lo, hi = l.burst(user, j)
    return rate_bound(rate_decomp(l, user, j).len_interf, hi - lo, rp)


# ------------------------------------------------------- other oracles

def limit_power_rate(s, u: UserParams) -> tuple[float, float]:
    """Long-run (average power, throughput) of a scheme as n grows.

    Q = N*gamma / (1 + 1/(q*theta)),  R = lam / (1 + q*theta).

    s only needs N, gamma and theta.
    """
    theta = s.theta
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    qt = u.q * theta
    Q = s.N * s.gamma / (1.0 + 1.0 / qt)
    R = u.lam / (1.0 + qt)
    return Q, R


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


def sym_class_windows(js: int, N: int, theta: float, alpha: float):
    """mu-windows of offset class js >= 1 with their constraint lists.

    region._pert_windows gives them for js <= N; past N all four carry the
    one constraint (0, -theta), and region._sym_pert_region sweeps those
    classes as one window.
    """
    if js > 1:
        prev = (alpha - theta) / (js - 1)
        nxt = alpha / (js - 1)
    else:
        prev = -math.inf if alpha < theta else math.inf
        nxt = math.inf
    lo_slot = alpha / js
    hi_slot = (alpha + theta) / js
    if js <= N - 1:
        a_cons = ((1, theta), (1 - js, -alpha))
    elif js == N:
        a_cons = ((1 - N, -alpha),)
    else:
        a_cons = ((0, -theta),)
    b_cons = ((js, alpha),) if js <= N - 1 else ((0, -theta),)
    c_cons = ((1 - js, -alpha),) if js <= N else ((0, -theta),)
    d_cons = ((0, -theta),)
    return (
        ((max(prev, lo_slot), min(hi_slot, nxt)), a_cons),
        ((lo_slot, min(prev, hi_slot)), b_cons),
        ((max(prev, hi_slot), nxt), c_cons),
        ((hi_slot, prev), d_cons),
    )


def sym_pert_region_per_class(N, theta, lam, a, P, alpha, n_gamma=None):
    """The symmetric region over all ceil(alpha/theta) + 1 offset classes,
    four windows each: solved window by window by the exact solver, or
    swept on n_gamma powers when n_gamma is given."""
    js_max = math.ceil(alpha / theta) + 1
    windows = [w for js in range(1, js_max + 1)
               for w in sym_class_windows(js, N, theta, alpha)]
    if n_gamma is None:
        return _solve_windows(N, theta, lam, a, P, windows)
    return _sweep_windows(N, theta, lam, a, P, windows, n_gamma)


# ------------------------------------------------ sampled symmetric sweep
#
# The symmetric region as region.sym_region computed it before its exact
# union: the closed-form curves or the windows' constraints sampled on a
# grid of n_gamma powers over [0, gamma_bar], neighbouring nonempty samples
# joined by their hull. Each end it reports lags the exact one by at most
# what that end moves in one power step.

def _sweep_union(samples) -> IntervalUnion:
    """Union of a continuously moving interval sampled along a curve.

    samples yields (lo, hi) or None per grid point, in sweep order. When two
    consecutive samples are nonempty the interval never vanished in between
    (its endpoints move continuously), so their hull joins the union; this
    closes the pinholes a narrow interval leaves when it climbs faster per
    grid step than its own width.
    """
    pieces = []
    prev = None
    for cur in samples:
        if cur is not None:
            pieces.append(cur)
            if prev is not None:
                pieces.append((min(prev[0], cur[0]), max(prev[1], cur[1])))
        prev = cur
    return IntervalUnion.from_intervals(pieces)


def _sweep_windows(N, theta, lam, a, P, windows, n_gamma) -> IntervalUnion:
    """Union over windows of the rate interval swept across the power grid.

    A window is ((wlo, whi), constraints): a mu-range and the decoding
    constraints of _pert_windows that hold on it.
    """
    gbar = (1.0 / N + _rbar_raw(lam, P, N) / lam) * P
    grid = np.linspace(0.0, gbar, n_gamma)
    out = IntervalUnion.from_intervals([])

    def window_samples(wlo, whi, cons):
        for g in grid:
            p = capacity_c(g)
            s = capacity_c(g / (1.0 + a * g))
            d = p - s
            lo = max(lam if N > 1 else 0.0, (g / P - 1.0 / N) * lam,
                     wlo * lam / theta)
            hi = whi * lam / theta
            feasible = True
            for x, y in cons:
                coef = 1.0 - x * d / lam
                rhs = s - d * y / theta
                if abs(coef) < 1e-14:
                    if rhs <= 0:
                        feasible = False
                        break
                elif coef > 0:
                    hi = min(hi, rhs / coef)
                else:
                    lo = max(lo, rhs / coef)
            yield (lo, hi) if feasible and hi > lo else None

    for (wlo, whi), cons in windows:
        if whi <= wlo:
            continue
        out = out.union(_sweep_union(window_samples(wlo, whi, cons)))
    return out


def sym_region_sampled(N, theta, lam, a, P, alpha, n_gamma):
    """The symmetric region (N >= 2) sampled at n_gamma powers: the
    closed-form curves for alpha < theta, else every offset class up to N
    window by window and the classes past N as one window."""
    gbar = (1.0 / N + _rbar_raw(lam, P, N) / lam) * P
    if not alpha < theta:
        ratio = alpha / theta
        tail = ratio > N - 1
        classes = N if tail else math.ceil(ratio) + 1
        windows = [w for js in range(1, classes + 1)
                   for w in _pert_windows(js, N, theta, alpha)]
        if tail:
            lo = alpha / (math.ceil(ratio) + 1) if math.isfinite(ratio) \
                else 0.0
            windows.append(((lo, alpha / N), ((0, -theta),)))
        return _sweep_windows(N, theta, lam, a, P, windows, n_gamma)
    sc = sym_curves(N, theta, lam, a, P, alpha)
    grid = set(np.linspace(0.0, gbar, n_gamma))
    grid |= {g for g in (sc.gamma1, sc.gamma2) if 0.0 < g < gbar}

    def samples():
        for g in sorted(grid):
            f_val = sc.f(g)
            if f_val <= 0.0:
                yield None
                continue
            lo = max(f_val, sc.power_line(g))
            hi = sc.g(g)
            yield (lo, hi) if hi > lo else None

    return _sweep_union(samples())
