import math

import numpy as np
import pytest
from pytest import approx
from scipy.optimize import brentq

from burstgic.design import (
    InfeasibleDesignError,
    OutageCurve,
    active_set,
    admissible_alpha,
    d_max,
    inadmissible_alpha,
    optimize_N,
    outage,
    outage_curve,
    please1_holds,
    rbar_target,
)
from burstgic.geometry import alpha_breakpoints
from burstgic.model import (
    IntervalUnion,
    UserParams,
    capacity_c,
    derive_scheme_v,
    rate_pair,
)

from oracles import (
    BurstLayout,
    contains,
    contains_many,
    intersect,
    layout_bound,
    mild_check,
    state_of,
)

U1 = UserParams(k=3, q=0.3, P=1000.0, a=0.5)
U2 = UserParams(k=2, q=0.4, P=1000.0, a=0.7)
USYM10 = UserParams(k=5, q=0.2, P=10.0, a=0.5)
USYM30 = UserParams(k=5, q=0.2, P=1000.0, a=0.5)


def _schemes(u1, u2, N1, N2, R1, R2):
    s1 = derive_scheme_v(u1, N1, R1)
    s2 = derive_scheme_v(u2, N2, R2)
    rp1 = rate_pair(s1.gamma, s2.gamma, u2.a)
    rp2 = rate_pair(s2.gamma, s1.gamma, u1.a)
    return s1, s2, rp1, rp2


def _member_direct(u1, u2, N1, N2, R1, R2, alpha):
    """Ground truth: evaluate every codeword's bound on the actual layout."""
    s1, s2, rp1, rp2 = _schemes(u1, u2, N1, N2, R1, R2)
    l = BurstLayout(mu1=s1.mu, theta1=s1.theta, nu1=0.0, N1=N1,
                    mu2=s2.mu, theta2=s2.theta, nu2=alpha, N2=N2)
    for user, s, rp in ((1, s1, rp1), (2, s2, rp2)):
        for j in range(1, s.N + 1):
            if s.eta >= layout_bound(l, user, j, rp):
                return False
    return True


# ---------------------------------------------------------------- intervals

def test_interval_union_normalizes():
    iu = IntervalUnion.from_intervals([(3.0, 4.0), (1.0, 2.0), (1.5, 2.5), (5.0, 5.0)])
    assert iu.intervals == ((1.0, 2.5), (3.0, 4.0))


def test_interval_union_merges_touching():
    iu = IntervalUnion.from_intervals([(0.0, 1.0), (1.0 + 1e-13, 2.0)])
    assert iu.intervals == ((0.0, 2.0),)


def test_interval_union_set_ops():
    a = IntervalUnion.from_intervals([(0.0, 2.0), (5.0, 7.0)])
    b = IntervalUnion.from_intervals([(1.0, 6.0)])
    assert intersect(a, b).intervals == ((1.0, 2.0), (5.0, 6.0))
    assert a.union(b).intervals == ((0.0, 7.0),)
    assert contains(a, 1.5) and not contains(a, 3.0)


def test_interval_union_vectorized_membership():
    iu = IntervalUnion.from_intervals([(-1.0, 0.5), (2.0, math.inf)])
    xs = np.array([-2.0, 0.0, 1.0, 3.0, 100.0])
    assert contains_many(iu, xs).tolist() == [False, True, False, True, True]
    empty = IntervalUnion.from_intervals([])
    assert not contains_many(empty, xs).any()


def test_outage_curve_rejects_bad_probability():
    with pytest.raises(ValueError):
        OutageCurve(N1=1, N2=1, samples=((1.0, 1.2),))


# ------------------------------------------------------------- rate bounds

def test_rbar_root_residual():
    for u, N in [(U1, 1), (U1, 3), (U2, 2), (USYM10, 1)]:
        R = rbar_target(u, N)
        theta = (u.lam / R - 1.0) / u.q
        gamma = (u.P / N) * u.lam / (u.lam - R)
        assert abs(theta * capacity_c(gamma) - u.k / N) < 1e-8
        assert 0.0 < R < u.lam


@pytest.mark.parametrize("N", [1, 2, 3])
def test_rbar_root_at_tiny_q_is_float_exact(N):
    # at q = 1e-12 the root lies within about 1e-13*lam of lam, past the
    # first upper bracket end lam*(1 - 1e-12): h changes sign across the
    # floats next to the root
    u = UserParams(k=3, q=1e-12, P=1000.0, a=0.5)

    def h(R):
        theta = (u.lam / R - 1.0) / u.q
        return theta * capacity_c((u.P / N) * u.lam / (u.lam - R)) - u.k / N

    R = rbar_target(u, N)
    assert u.lam * (1.0 - 1e-12) < R < u.lam
    assert h(math.nextafter(R, 0.0)) > 0.0 > h(math.nextafter(R, u.lam))


@pytest.mark.parametrize("q", [1e-4, 1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_rbar_root_is_float_exact_at_small_q(q, N):
    # lam = 3q is small and the root sits within 3e-5*lam of lam, so an
    # absolute tolerance of 1e-10 in R stops short of it
    u = UserParams(k=3, q=q, P=1000.0, a=0.5)

    def h(R):
        theta = (u.lam / R - 1.0) / u.q
        return theta * capacity_c((u.P / N) * u.lam / (u.lam - R)) - u.k / N

    R = rbar_target(u, N)
    assert 0.0 < R < u.lam
    assert h(math.nextafter(R, 0.0)) > 0.0 > h(math.nextafter(R, u.lam))


def test_rbar_root_past_float_resolution_names_q():
    u = UserParams(k=3, q=1e-100, P=1000.0, a=0.5)
    with pytest.raises(InfeasibleDesignError,
                       match=r"q = 1e-100: .* float resolution of lam"):
        rbar_target(u, 1)


def test_rbar_admits_half_lambda():
    # 0.5*lam must be feasible at N=1 for the worked two-user setup
    assert rbar_target(U1, 1) > 0.45
    assert rbar_target(U2, 1) > 0.40


def test_rbar_grows_with_burst_count():
    # splitting into more bursts shrinks per-burst power gamma ~ 1/N but
    # shrinks the per-burst load k/N just as fast, and N*C(g/N) grows in N,
    # so the feasible-rate ceiling widens
    vals = [rbar_target(U1, N) for N in (1, 2, 3)]
    assert vals[0] < vals[1] < vals[2]


def test_rbar_reports_infeasible_power():
    with pytest.raises(InfeasibleDesignError):
        rbar_target(UserParams(k=1, q=1.0, P=1e-13, a=0.0), 1)


# -------------------------------------------------------------- active set

def test_active_set_worked_examples():
    lam1, lam2 = U1.lam, U2.lam
    assert active_set(U1, U2, 0.5 * lam1, 0.5 * lam2) == {(1, 1)}
    assert active_set(U1, U2, 0.7 * lam1, 0.7 * lam2) == {
        (m1, m2) for m1 in (1, 2) for m2 in (1, 2)
    }
    assert active_set(U1, U2, 0.8 * lam1, 0.8 * lam2) == {
        (m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)
    }


def test_active_set_empty_is_valid():
    weak = UserParams(k=3, q=0.3, P=0.01, a=0.5)
    assert active_set(weak, weak, 0.45, 0.45) == set()


def test_active_set_rejects_rate_out_of_range():
    with pytest.raises(ValueError):
        active_set(U1, U2, U1.lam, 0.4)


def test_please1_worked_examples():
    assert please1_holds(U1, U2, 0.4 * U1.lam, 0.4 * U2.lam) is False
    assert please1_holds(U1, U2, 0.5 * U1.lam, 0.5 * U2.lam) is True


def test_please1_no_cross_gain_is_always_false():
    u1 = UserParams(k=3, q=0.3, P=1000.0, a=0.0)
    u2 = UserParams(k=2, q=0.4, P=1000.0, a=0.0)
    for f in (0.4, 0.5, 0.7):
        assert please1_holds(u1, u2, f * u1.lam, f * u2.lam) is False


def test_please1_with_interfered_rate_zero():
    # a cross gain of 1e300 rounds user 2's interfered rate psi to 0, so
    # user 2 is never always reliable and offsets matter for every pair
    loud = UserParams(k=3, q=0.3, P=1000.0, a=1e300)
    R1, R2 = 0.7 * loud.lam, 0.7 * U2.lam
    for N1, N2 in active_set(loud, U2, R1, R2):
        assert _schemes(loud, U2, N1, N2, R1, R2)[3].psi == 0.0
    assert please1_holds(loud, U2, R1, R2) is True


def test_rbar_target_is_solved_once_per_user_and_count():
    # optimize_N re-derives the active set at every spread
    rbar_target.cache_clear()
    act = active_set(U1, U2, 0.8 * U1.lam, 0.8 * U2.lam)
    solved = rbar_target.cache_info().misses
    for d in (0.5, 1.0, 2.0):
        optimize_N(U1, U2, 0.8 * U1.lam, 0.8 * U2.lam, d)
    please1_holds(U1, U2, 0.8 * U1.lam, 0.8 * U2.lam)
    assert active_set(U1, U2, 0.8 * U1.lam, 0.8 * U2.lam) == act
    assert rbar_target.cache_info().misses == solved


def test_please1_errors_on_empty_active_set():
    weak = UserParams(k=3, q=0.3, P=0.01, a=0.5)
    with pytest.raises(InfeasibleDesignError):
        please1_holds(weak, weak, 0.45, 0.45)


# -------------------------------------------------------- admissible alpha

def test_admissible_matches_direct_evaluation():
    # interval representation vs per-layout evaluation of every bound
    rng = np.random.default_rng(501)
    cases = [
        (U1, U2, 1, 1, 0.5 * U1.lam, 0.5 * U2.lam),
        (U1, U2, 2, 2, 0.7 * U1.lam, 0.7 * U2.lam),
        (USYM10, USYM10, 1, 2, 0.7, 0.7),
        (USYM30, USYM30, 2, 2, 0.7, 0.7),
    ]
    for u1, u2, N1, N2, R1, R2 in cases:
        adm = admissible_alpha(u1, u2, N1, N2, R1, R2)
        s1, s2, _, _ = _schemes(u1, u2, N1, N2, R1, R2)
        bps = alpha_breakpoints((s1, s2))
        span = max(bps) - min(bps) + 4.0
        checked = 0
        for alpha in rng.uniform(min(bps) - 2.0, min(bps) + span, size=2500):
            alpha = float(alpha)
            if not mild_check((s1, s2), 0.0, alpha, 1e-9):
                continue
            assert contains(adm, alpha) == _member_direct(
                u1, u2, N1, N2, R1, R2, alpha
            ), f"disagreement at alpha={alpha} for {(N1, N2)}"
            checked += 1
        assert checked > 2000


def test_admissible_symmetric_boundary_from_first_principles():
    # (N1,N2)=(1,2) at 10 dB: the binding constraint near the left edge is
    # user 1's codeword against the overlap of length alpha + theta, giving
    # alpha* = (theta*phi1 - eta1)/(phi1 - psi1) - theta
    R = 0.7
    s1, s2, rp1, _ = _schemes(USYM10, USYM10, 1, 2, R, R)
    theta = s1.theta
    alpha_star = (theta * rp1.phi - s1.eta) / (rp1.phi - rp1.psi) - theta
    adm = admissible_alpha(USYM10, USYM10, 1, 2, R, R)
    assert adm.intervals[0][0] == -math.inf
    assert adm.intervals[0][1] == approx(alpha_star, abs=1e-9)


def test_admissible_fig13_pattern_single_interval():
    # the breakpoint cell where Tx-1's lone codeword is covered on both
    # ends and each Tx-2 codeword on one end: one alpha-free constraint
    # plus one bound in each direction, so the cell keeps a single piece
    R = 0.7
    s1, s2, _, _ = _schemes(USYM10, USYM10, 1, 2, R, R)
    bps = alpha_breakpoints((s1, s2))
    lo = next(b for b in bps if b == approx(s1.mu - s2.mu - s2.theta))
    hi = next(b for b in bps if b == approx(s2.theta))
    assert lo < hi
    mid = 0.5 * (lo + hi)
    l = BurstLayout(mu1=s1.mu, theta1=s1.theta, nu1=0.0, N1=1,
                    mu2=s2.mu, theta2=s2.theta, nu2=mid, N2=2)
    assert state_of(l).pairs == ((1, 2), (2, 3))
    adm = admissible_alpha(USYM10, USYM10, 1, 2, R, R)
    cell = intersect(adm, IntervalUnion.from_intervals([(lo, hi)]))
    assert len(cell.intervals) <= 1


def test_admissible_low_load_is_everything():
    u = UserParams(k=1, q=0.5, P=100.0, a=0.1)
    R = 0.2 * u.lam
    adm = admissible_alpha(u, u, 1, 1, R, R)
    assert adm.intervals == ((-math.inf, math.inf),)
    for d in (0.1, 1.0, 25.0):
        assert outage(adm, d) == 0.0
    assert math.isinf(d_max(u, u, 1, 1, R, R))


def test_inadmissible_stays_inside_breakpoint_hull():
    for u1, u2, N1, N2, f in [
        (U1, U2, 1, 1, 0.5),
        (U1, U2, 1, 2, 0.7),
        (USYM30, USYM30, 2, 2, 0.7),
    ]:
        R1, R2 = f * u1.lam, f * u2.lam
        bad = inadmissible_alpha(u1, u2, N1, N2, R1, R2)
        s1, s2, _, _ = _schemes(u1, u2, N1, N2, R1, R2)
        bps = alpha_breakpoints((s1, s2))
        for lo, hi in bad.intervals:
            assert lo >= min(bps) - 1e-9
            assert hi <= max(bps) + 1e-9


# ------------------------------------------------------------------ outage

def test_outage_half_line():
    adm = IntervalUnion.from_intervals([(0.0, math.inf)])
    for d in (0.3, 1.0, 7.0):
        assert outage(adm, d) == approx(0.5)


def test_outage_full_support():
    d = 1.7
    adm = IntervalUnion.from_intervals([(-d, d)])
    assert outage(adm, d) == approx(0.0, abs=1e-15)


def test_outage_rejects_nonpositive_spread():
    adm = IntervalUnion.from_intervals([(-1.0, 1.0)])
    for d in (0.0, -1.0, math.nan, math.inf, 1e308):
        with pytest.raises(ValueError):
            outage(adm, d)
    assert outage(adm, 1e153) > 0.0


def test_outage_worked_example_zero_below_dmax():
    R1, R2 = 0.5 * U1.lam, 0.5 * U2.lam
    adm = admissible_alpha(U1, U2, 1, 1, R1, R2)
    assert outage(adm, 0.80) == 0.0
    assert outage(adm, 0.90) > 0.0


def test_outage_matches_monte_carlo():
    rng = np.random.default_rng(77)
    cases = [
        (U1, U2, 1, 1, 0.5 * U1.lam, 0.5 * U2.lam, 1.2),
        (U1, U2, 1, 2, 0.7 * U1.lam, 0.7 * U2.lam, 2.0),
        (U1, U2, 2, 2, 0.7 * U1.lam, 0.7 * U2.lam, 3.5),
        (USYM10, USYM10, 1, 1, 0.7, 0.7, 2.4),
        (USYM30, USYM30, 2, 2, 0.7, 0.7, 0.9),
    ]
    T = 200_000
    for u1, u2, N1, N2, R1, R2, d in cases:
        adm = admissible_alpha(u1, u2, N1, N2, R1, R2)
        ana = outage(adm, d)
        alpha = rng.uniform(0, d, T) * -1.0 + rng.uniform(0, d, T)
        hat = 1.0 - contains_many(adm, alpha).mean()
        se = math.sqrt(max(hat * (1 - hat), 1e-12) / T)
        assert abs(ana - hat) <= 3.0 * se + 1e-9, (N1, N2, d, ana, hat)


# ------------------------------------------------------------------- d_max

def test_dmax_worked_example():
    dm = d_max(U1, U2, 1, 1, 0.5 * U1.lam, 0.5 * U2.lam)
    assert dm == approx(0.83, abs=0.02)


def test_dmax_zero_when_zero_offset_is_bad():
    for u in (USYM10, USYM30):
        for pair in active_set(u, u, 0.7, 0.7):
            assert d_max(u, u, *pair, 0.7, 0.7) == 0.0


def test_dmax_consistency_with_outage():
    R1, R2 = 0.5 * U1.lam, 0.5 * U2.lam
    dm = d_max(U1, U2, 1, 1, R1, R2)
    adm = admissible_alpha(U1, U2, 1, 1, R1, R2)
    assert outage(adm, 0.99 * dm) == 0.0
    assert outage(adm, 1.01 * dm) > 0.0


def test_outage_curve_rises_past_dmax():
    R1, R2 = 0.5 * U1.lam, 0.5 * U2.lam
    dm = d_max(U1, U2, 1, 1, R1, R2)
    ds = np.linspace(dm, 1.3 * dm, 8)
    curve = outage_curve(U1, U2, 1, 1, R1, R2, ds)
    vals = [p for _, p in curve.samples]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == approx(0.0, abs=1e-12)
    assert vals[-1] > 0.0


# --------------------------------------------------------------- optimizer

def test_optimize_errors_on_empty_active_set():
    weak = UserParams(k=3, q=0.3, P=0.01, a=0.5)
    with pytest.raises(InfeasibleDesignError):
        optimize_N(weak, weak, 0.45, 0.45, 1.0)


def test_optimize_table_covers_active_set():
    R1, R2 = 0.7 * U1.lam, 0.7 * U2.lam
    best, table = optimize_N(U1, U2, R1, R2, 1.0)
    assert set(table) == active_set(U1, U2, R1, R2)
    assert all(0.0 <= v <= 1.0 for v in table.values())
    assert best in table


def test_optimize_crossover_at_07lam():
    R1, R2 = 0.7 * U1.lam, 0.7 * U2.lam
    assert optimize_N(U1, U2, R1, R2, 1.5)[0] == (1, 2)
    assert optimize_N(U1, U2, R1, R2, 2.5)[0] == (1, 1)
    adm = {p: admissible_alpha(U1, U2, *p, R1, R2)
           for p in ((1, 1), (1, 2))}
    cross = brentq(
        lambda d: outage(adm[(1, 2)], d) - outage(adm[(1, 1)], d),
        1.2, 3.0, xtol=1e-9,
    )
    assert cross == approx(2.0, abs=0.05)


def test_optimize_crossovers_at_08lam():
    R1, R2 = 0.8 * U1.lam, 0.8 * U2.lam
    assert optimize_N(U1, U2, R1, R2, 1.0)[0] == (1, 3)
    assert optimize_N(U1, U2, R1, R2, 2.0)[0] == (1, 2)
    assert optimize_N(U1, U2, R1, R2, 3.0)[0] == (1, 1)
    adm = {p: admissible_alpha(U1, U2, *p, R1, R2)
           for p in ((1, 1), (1, 2), (1, 3))}
    c1 = brentq(lambda d: outage(adm[(1, 3)], d) - outage(adm[(1, 2)], d),
                1.0, 2.0, xtol=1e-9)
    c2 = brentq(lambda d: outage(adm[(1, 2)], d) - outage(adm[(1, 1)], d),
                2.0, 3.0, xtol=1e-9)
    assert c1 == approx(1.43, abs=0.05)
    assert c2 == approx(2.51, abs=0.05)


def test_optimize_symmetric_low_power():
    # (1,1) wins everywhere except a sliver near d=2 where the lopsided
    # (1,2) region slips an admissible tail closer to zero; the gap there
    # stays under 1e-3
    act = active_set(USYM10, USYM10, 0.7, 0.7)
    assert act == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for d in (0.5, 1.0, 1.5, 3.0, 5.0, 10.0):
        best, _ = optimize_N(USYM10, USYM10, 0.7, 0.7, d)
        assert best == (1, 1), d
    for d in (1.9, 2.0):
        best, table = optimize_N(USYM10, USYM10, 0.7, 0.7, d)
        assert best == (1, 2), d
        assert table[(1, 1)] - table[(1, 2)] < 1e-3


def test_optimize_symmetric_high_power():
    for d in (0.5, 1.0, 2.0, 5.0, 10.0):
        best, _ = optimize_N(USYM30, USYM30, 0.7, 0.7, d)
        assert best == (2, 2), d


def test_optimize_tie_break_prefers_fewer_bursts():
    # at tiny spread every pair sits in permanent outage; ties resolve to
    # the smallest N1+N2, then the smallest N1
    best, table = optimize_N(USYM30, USYM30, 0.7, 0.7, 0.05)
    assert len(set(table.values())) == 1
    assert best == (1, 1)
