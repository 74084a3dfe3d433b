"""Acceptance suite: one end-to-end check per shipped capability.

Each test exercises a full pipeline at the documented operating points and
tolerances; the unit suites cover the pieces. Run with -v to get one
pass/fail line per capability.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

from burstgic.arrivals import (
    ArrivalTrace,
    delay_gap_experiment,
    run_async_scheduler,
    run_sync_scheduler,
    trial_rngs,
)
from burstgic.design import (
    active_set,
    admissible_alpha,
    d_max,
    optimize_N,
    outage,
    please1_holds,
)
from burstgic.detection import (
    DetectionConfig,
    GaussianCodebook,
    channel_run,
    decode_codeword,
    detection_experiment,
    rx_params,
)
from burstgic.geometry import alpha_breakpoints
from burstgic.model import (
    UserParams,
    derive_scheme_v,
    rate_pair,
)
from burstgic.region import rbar_c, region, sym_curves, sym_region

from oracles import (
    BurstLayout,
    DegenerateLayoutError,
    closed_form_bound,
    contains_many,
    enumerate_states,
    layout_bound,
    limit_power_rate,
    mild_check,
    overlap_profile,
    state_of,
    sym_omega,
)

U1 = UserParams(k=3, q=0.3, P=1000.0, a=0.5)
U2 = UserParams(k=2, q=0.4, P=1000.0, a=0.7)
USYM10 = UserParams(k=5, q=0.2, P=10.0, a=0.5)
USYM30 = UserParams(k=5, q=0.2, P=1000.0, a=0.5)
UREG = UserParams(k=2, q=0.3, P=100.0, a=0.5)

DETECT_CFG = DetectionConfig(n_values=(1000, 2000, 4000), gamma1=100.0,
                             gamma2=100.0, a1=0.1, a2=0.1, eps=0.48, M=64)


class _Sch:
    def __init__(self, mu, theta, N):
        self.mu, self.theta, self.N = mu, theta, N


@pytest.fixture(scope="module")
def detection_rows():
    t0 = time.monotonic()
    rows = detection_experiment(DETECT_CFG, trials=1000, seed=20260818)
    return rows, time.monotonic() - t0


def _optimizer_winners(u, R, ds):
    """(d, winner, vacuous, table) per spread; vacuous marks an all-pairs
    tie."""
    out = []
    for d in ds:
        best, table = optimize_N(u, u, R, R, float(d))
        vacuous = len({round(v, 12) for v in table.values()}) == 1
        out.append((float(d), best, vacuous, table))
    return out


def test_state_enumeration_count_and_sweep():
    t0 = time.monotonic()
    for N1 in range(1, 5):
        for N2 in range(1, 5):
            states = enumerate_states(N1, N2)
            assert len(states) == math.comb(2 * N1 + 2 * N2, 2 * N2)
            assert len({s.flat for s in states}) == len(states)
    s1, s2 = _Sch(3.0, 2.3, 3), _Sch(2.05, 0.5, 4)
    allowed = {s.flat for s in enumerate_states(3, 4)}
    bps = alpha_breakpoints((s1, s2))
    checked = 0
    for nu1 in np.linspace(0.0, 2.0, 41):
        for nu2 in np.linspace(bps[0] - 1.0, bps[-1] + 1.0, 161):
            if not mild_check((s1, s2), nu1, nu2, 1e-9):
                continue
            lay = BurstLayout(3.0, 2.3, nu1, 3, 2.05, 0.5, nu2, 4)
            assert state_of(lay).flat in allowed
            checked += 1
    assert checked > 5000
    assert time.monotonic() - t0 < 5.0


def test_two_user_design_example():
    t0 = time.monotonic()
    expected = {
        0.5: {(1, 1)},
        0.7: {(n1, n2) for n1 in (1, 2) for n2 in (1, 2)},
        0.8: {(n1, n2) for n1 in (1, 2, 3) for n2 in (1, 2, 3)},
    }
    for r, want in expected.items():
        assert active_set(U1, U2, r * U1.lam, r * U2.lam) == want

    assert d_max(U1, U2, 1, 1, 0.5 * U1.lam, 0.5 * U2.lam) == \
        approx(0.83, abs=0.02)

    def switches(r):
        R1, R2 = r * U1.lam, r * U2.lam
        ds = np.arange(0.02, 3.001, 0.01)
        winners = [optimize_N(U1, U2, R1, R2, float(d))[0] for d in ds]
        return [0.5 * (a + b) for a, b, wa, wb in
                zip(ds, ds[1:], winners, winners[1:]) if wa != wb]

    assert any(abs(s - 2.0) <= 0.05 for s in switches(0.7))
    sw = switches(0.8)
    assert any(abs(s - 1.43) <= 0.05 for s in sw)
    assert any(abs(s - 2.51) <= 0.05 for s in sw)
    assert time.monotonic() - t0 < 30.0


def test_symmetric_design_example():
    R = 0.7  # lam = 1, so this is 0.7 * lam
    for u in (USYM10, USYM30):
        for pair in sorted(active_set(u, u, R, R)):
            assert d_max(u, u, *pair, R, R) == 0.0
    ds = np.arange(0.1, 5.01, 0.1)
    for d, best, vacuous, _ in _optimizer_winners(USYM30, R, ds):
        if not vacuous:
            assert best == (2, 2), f"high-power winner {best} at d={d}"
    # Low power: where a lone codeword's overlap (theta - |alpha|) is the
    # binding constraint, it decodes iff |alpha| > theta - t with
    # t = (theta*phi - eta)/(phi - psi). (1,1) is admissible iff |alpha| > b;
    # (1,2) iff alpha < -c or alpha > mu2 + c, c taken from user 1's rate
    # pair against the half-power two-burst user. For d in (b, mu2 + c):
    # outage(1,1) = 1 - (d-b)^2/d^2 and outage(1,2) = 1 - (d-c)^2/(2d^2),
    # so (1,2) (tie-break over its mirror (2,1)) wins exactly on (c, d*).
    s1, s2 = derive_scheme_v(USYM10, 1, R), derive_scheme_v(USYM10, 2, R)

    def edge(rp):
        return s1.theta - (s1.theta * rp.phi - s1.eta) / (rp.phi - rp.psi)

    b = edge(rate_pair(s1.gamma, s1.gamma, USYM10.a))
    c = edge(rate_pair(s1.gamma, s2.gamma, USYM10.a))
    d_star = (math.sqrt(2.0) * b - c) / (math.sqrt(2.0) - 1.0)
    assert c < b < d_star < s2.mu + c
    in_sliver = 0
    for d, best, vacuous, table in _optimizer_winners(USYM10, R, ds):
        if d > c:
            assert not vacuous, f"vacuous table at d={d} > c={c}"
        if vacuous:
            continue
        if c < d < d_star:
            in_sliver += 1
            assert best == (1, 2), f"low-power sliver winner {best} at d={d}"
            assert 0.0 < table[(1, 1)] - table[(1, 2)] < 1e-3, (d, table)
        else:
            assert best == (1, 1), f"low-power winner {best} at d={d}"
    assert in_sliver >= 1


def test_rate_region_constants():
    assert rbar_c(UREG, 2) == approx(4.8774, abs=1e-3)
    c = sym_curves(2, 1.0, 0.6, 0.5, 100.0, 0.5)
    assert 10.0 * math.log10(c.gamma0) == approx(6.84, abs=0.01)
    assert c.psi(c.gamma0) == approx(0.6358, abs=1e-3)


def test_closed_form_bounds_match_geometry():
    rng = np.random.default_rng(99)
    cases = {"clear": 0, "left": 0, "right": 0, "inner": 0}
    layouts = 0
    while layouts < 10_000:
        N1, N2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        mu1, mu2 = rng.uniform(0.5, 3.0, size=2)
        s1 = _Sch(mu1, mu1 * rng.uniform(0.1, 0.95), N1)
        s2 = _Sch(mu2, mu2 * rng.uniform(0.1, 0.95), N2)
        nu1, nu2 = rng.uniform(-4.0, 4.0, size=2)
        lay = BurstLayout(s1.mu, s1.theta, nu1, N1, s2.mu, s2.theta, nu2, N2)
        try:
            prof = overlap_profile(lay)
        except DegenerateLayoutError:
            continue
        rp = rate_pair(rng.uniform(0.5, 20), rng.uniform(0.0, 20),
                       rng.uniform(0.1, 2))
        for (user, j), trip in prof.items():
            want = layout_bound(lay, user, j, rp)
            got = closed_form_bound(trip, (s1, s2), nu1, nu2, user, j, rp)
            assert abs(got - want) <= 1e-9
            if trip.w_minus == 0 and trip.w_plus == 0 and trip.w_in == 0:
                cases["clear"] += 1
            if trip.w_minus:
                cases["left"] += 1
            if trip.w_plus:
                cases["right"] += 1
            if trip.w_in:
                cases["inner"] += 1
        layouts += 1
    assert all(v > 0 for v in cases.values()), cases

    rng = np.random.default_rng(13)
    checked = 0
    while checked < 1000:
        N = int(rng.integers(1, 6))
        theta = float(rng.uniform(0.2, 2.0))
        mu = float(rng.uniform(theta * 1.01, theta * 6.0))
        alpha = float(rng.uniform(0.0, 3.5 * theta))
        lay = BurstLayout(mu, theta, 0.0, N, mu, theta, alpha, N)
        try:
            want = overlap_profile(lay)
            got = sym_omega(N, mu, theta, alpha)
        except ValueError:
            continue
        assert got == want
        checked += 1


def test_symmetric_region_matches_diagonal():
    seen_disconnected = False
    for P, alpha in ((100.0, 0.5), (1000.0, 0.5), (100.0, 5.0)):
        u = UserParams(k=2, q=0.3, P=P, a=0.5)
        iv = sym_region(2, 1.0, u.lam, u.a, u.P, alpha).intervals
        seen_disconnected = seen_disconnected or len(iv) > 1
        reg = region(u, u, 2, 2, 1.0, 1.0, alpha, m_grid=40, resolution=0.08)
        cell = reg.cell[0]
        for ix, x in enumerate(reg.xs()):
            member = bool(reg.mask[ix, ix])
            inside = any(lo + cell < x < hi - cell for lo, hi in iv)
            outside = all(x < lo - cell or x > hi + cell for lo, hi in iv)
            if inside:
                assert member, f"missing diagonal point {x} at alpha={alpha}"
            elif outside:
                assert not member, \
                    f"spurious diagonal point {x} at alpha={alpha}"
    assert seen_disconnected


def test_outage_matches_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    done = 0
    while done < 5:
        u1 = UserParams(k=int(rng.integers(2, 5)),
                        q=float(rng.uniform(0.2, 0.45)),
                        P=float(10 ** rng.uniform(2.0, 3.5)),
                        a=float(rng.uniform(0.3, 0.8)))
        u2 = UserParams(k=int(rng.integers(2, 5)),
                        q=float(rng.uniform(0.2, 0.45)),
                        P=float(10 ** rng.uniform(2.0, 3.5)),
                        a=float(rng.uniform(0.3, 0.8)))
        r = float(rng.uniform(0.6, 0.8))
        R1, R2 = r * u1.lam, r * u2.lam
        act = sorted(active_set(u1, u2, R1, R2))
        if not act or not please1_holds(u1, u2, R1, R2):
            continue
        N1, N2 = act[len(act) // 2]
        d = float(rng.uniform(0.8, 2.5))
        adm = admissible_alpha(u1, u2, N1, N2, R1, R2)
        p = outage(adm, d)
        if not 0.02 < p < 0.9:
            continue
        nu = rng.uniform(0.0, d, size=(2, 1_000_000))
        phat = 1.0 - contains_many(adm, nu[1] - nu[0]).mean()
        se = math.sqrt(phat * (1.0 - phat) / 1_000_000)
        assert abs(p - phat) <= 3.0 * se, (p, phat, se)
        done += 1
    assert time.monotonic() - t0 < 60.0


def test_scheduler_stochastic_laws():
    # trigger slots follow the trials-to-success law
    u = UserParams(k=3, q=0.3, P=1.0, a=0.0)
    n, N, nu = 600, 2, 0.5
    chunk = math.floor(n * u.k / N)
    T = 10_000
    taus = np.empty((T, N))
    for t, rng in enumerate(trial_rngs(7, T)):
        ind = (rng.random(9000) < u.q).astype(np.uint8)
        tr = ArrivalTrace(indicators=ind)
        sched = run_async_scheduler(tr, u, n=n, N=N, nprime=8, theta=1.0,
                                    nu=nu)
        taus[t] = sched.taus
    shift = math.floor(n * nu) - 1
    for j in (1, 2):
        r = j * chunk / u.k
        mean, var = r / u.q, r * (1 - u.q) / u.q**2
        xi = taus[:, j - 1] - shift
        assert abs(xi.mean() - mean) < 4 * math.sqrt(var / T)
        kurt = (6 + u.q**2 / (1 - u.q)) / r
        se_var = var * math.sqrt((2 + kurt) / (T - 1))
        assert abs(xi.var(ddof=1) - var) < 4 * se_var

    # long-run average power and throughput converge to the closed form
    u2 = UserParams(k=3, q=0.3, P=30.0, a=0.5)
    s = derive_scheme_v(u2, N=2, R=0.7)
    Q, Rlim = limit_power_rate(s, u2)
    qs, rs = [], []
    for rng in trial_rngs(31, 6):
        n_big = 100_000
        chunk = math.floor(n_big * u2.k / 2)
        ind = (rng.random(500_000) < u2.q).astype(np.uint8)
        sched = run_async_scheduler(ArrivalTrace(indicators=ind),
                                    u2, n=n_big, N=2, nprime=None,
                                    theta=s.theta, nu=0.0)
        window = sched.taus[-1] + sched.nprime + sched.n_i
        qs.append(2 * s.gamma * (sched.nprime + sched.n_i) / window)
        rs.append(2 * chunk / window)
    assert abs(np.mean(qs) / Q - 1.0) < 0.01
    assert abs(np.mean(rs) / Rlim - 1.0) < 0.01

    # the slotted scheme's first dispatch concentrates on its modal slot
    n_mode, theta = 10_000, 1.5
    n_i = math.floor(n_mode * theta)
    mstar = math.floor((1 / u.q) / theta)
    hits = 0
    T_mode = 400
    for rng in trial_rngs(19, T_mode):
        ind = (rng.random(70_000) < u.q).astype(np.uint8)
        sync = run_sync_scheduler(ArrivalTrace(indicators=ind), u,
                                  n=n_mode, N=1, theta=theta)
        hits += sync.sigmas[0] == (mstar + 1) * n_i
    assert hits / T_mode >= 0.95

    # and it lags the eager scheme by a (1+delta) factor almost surely
    freq = delay_gap_experiment(u, 10_000, N=1, theta=1.5, delta=0.2,
                                trials=500, seed=5)
    assert freq[0] >= 0.95


def test_detection_recovery_and_dichotomy(detection_rows):
    rows, elapsed = detection_rows
    by_n = {r.n: r for r in rows}
    top = by_n[4000]
    assert top.nprime == 64  # ceil(sqrt(4000))
    assert top.recovery_rate >= 0.9
    assert top.misid_rate <= 0.01
    det = [r.detect_error_rate for r in rows]
    e2e = [r.e2e_error_rate for r in rows]
    assert det[0] > det[1] > det[2]
    assert e2e[0] > e2e[1] > e2e[2]

    # decode success stays high below the reliability margin: the
    # experiment's codewords run at log2(64)/n bits per slot, far under it
    assert all(1.0 - r.decode_error_rate >= 0.95 for r in rows)

    # above the clear-channel cap unique decoding collapses:
    # log2(M)/n = 2 bits against capacity C(4) ~ 1.16 bits
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    gamma, n, nprime = 4.0, 8, 4
    hits = 0
    trials = 200
    for _ in range(trials):
        cb = GaussianCodebook.draw(1 << 16, n, nprime, gamma, rng)
        msg = int(rng.integers(cb.M))
        tr, _ = channel_run((((0, msg),), ()), (cb, cb), 0.0, 0.0, rng,
                            nprime + n)
        tps = rx_params(0.45, gamma, gamma, 0.0)
        out = decode_codeword(tr, cb, (((nprime, nprime + n), "p1"),), tps)
        hits += out == msg
    assert hits / trials <= 0.05
    assert elapsed + (time.monotonic() - t0) < 600.0


def test_error_decay_trends_substitute_for_exponents(detection_rows):
    """Exact error-exponent constants need blocklengths far beyond what a
    desk-scale Monte Carlo can visit; what is checkable is that the error
    frequencies decay strictly and substantially with n, and that the
    decode threshold separates cleanly (both pinned above). This test
    asserts the decay is substantive rather than marginal."""
    rows, _ = detection_rows
    assert [r.n for r in rows] == [1000, 2000, 4000]
    first, last = rows[0], rows[-1]
    assert last.e2e_error_rate <= first.e2e_error_rate / 3.0
    assert last.detect_error_rate <= first.detect_error_rate / 3.0
    assert all(r.decode_errors == 0 for r in rows)
