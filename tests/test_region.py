import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from pytest import approx
from scipy.optimize import brentq

from burstgic.geometry import (
    BurstLayout,
    ChannelStateS,
    enumerate_states,
    overlap_profile,
    state_of,
)
from burstgic.model import UserParams, capacity_c, rate_pair
from burstgic.region import (
    _BLOCK,
    _WORKSPACE_BYTES,
    MAX_CELLS,
    MAX_REGION_WORK,
    Region2D,
    _region_work,
    _sym_pert_region,
    gamma_grid,
    rbar_c,
    region,
    region_members,
    sym_curves,
    sym_region,
)
from burstgic.reliability import covered_lengths, rate_bound

from oracles import contains_many, sym_omega, triples_from_state

U = UserParams(k=2, q=0.3, P=100.0, a=0.5)  # lam = 0.6


# ------------------------------------------- per-state polyhedra (oracle)
#
# Each channel state S and power pair contributes one polyhedron in the
# (R_c1, R_c2) plane: the geometric rows pin every burst endpoint to the
# interval S names, the reliability rows make every codeword decode. The
# rows are (a, b, c) for the open half-plane a*R_c1 + b*R_c2 < c. The
# library never builds them; they are the independent route that
# region_members must agree with.

def _geom_rows(S, theta1, theta2, lam1, lam2, alpha, N1, N2):
    """Linear constraints pinning every Tx-2 burst endpoint to its interval.

    Intervals are indexed 1..2*N1+1 by the partition Tx-1's burst endpoints
    cut on the time axis; the state says where each Tx-2 endpoint landed.
    A run of consecutive endpoints in the same interval only needs its
    outermost two bounds (their mutual order is already forced by the burst
    spacing), and the open end intervals have no outer bound at all. The
    two closing rows keep each user's bursts apart from their successors.
    """
    if len(S.pairs) != N2:
        raise ValueError(f"state has {len(S.pairs)} pairs, expected N2={N2}")
    if max(S.flat) > 2 * N1 + 1:
        raise ValueError("state indices exceed 2*N1+1")

    def lower(w):
        # affine (cR1, cR2, c0) for the interval's left edge, None at w=1
        if w == 1:
            return None
        if w % 2 == 0:
            return (w // 2 * theta1 / lam1, 0.0, 0.0)
        return ((w - 1) // 2 * theta1 / lam1, 0.0, theta1)

    def upper(w):
        if w == 2 * N1 + 1:
            return None
        if w % 2 == 0:
            return (w // 2 * theta1 / lam1, 0.0, theta1)
        return ((w + 1) // 2 * theta1 / lam1, 0.0, 0.0)

    def endpoint(m):
        # E_1, E_2, ... = B_1, B'_1, B_2, B'_2, ...
        j = (m + 1) // 2
        return (0.0, j * theta2 / lam2, alpha + (theta2 if m % 2 == 0 else 0.0))

    flat = S.flat
    rows = []
    m = 1
    while m <= 2 * N2:
        m_end = m
        while m_end < 2 * N2 and flat[m_end] == flat[m - 1]:
            m_end += 1
        lo, up = lower(flat[m - 1]), upper(flat[m - 1])
        if lo is not None:
            e = endpoint(m)
            rows.append((lo[0] - e[0], lo[1] - e[1], e[2] - lo[2]))
        if up is not None:
            e = endpoint(m_end)
            rows.append((e[0] - up[0], e[1] - up[1], up[2] - e[2]))
        m = m_end + 1
    if N1 > 1:
        rows.append((-1.0, 0.0, -lam1))
    if N2 > 1:
        rows.append((0.0, -1.0, -lam2))
    return np.array(rows, dtype=float)


def _covered_affine(t, j, theta_own, theta_other, nu_own, nu_other):
    """Interfered length of codeword j as (coef_mu_own, coef_mu_other, const)."""
    wm, wp, win = t.w_minus, t.w_plus, t.w_in
    if wm and wp:
        if wm == wp:
            return 0.0, 0.0, theta_own
        assert wp - wm == win + 1, t
        return 0.0, -(1.0 + win), theta_own + (1.0 + win) * theta_other
    if wm:
        return -float(j), float(wm), nu_other - nu_own + (1.0 + win) * theta_other
    if wp:
        return float(j), -float(wp), nu_own - nu_other + theta_own + win * theta_other
    return 0.0, 0.0, win * theta_other


def _rel_rows(S, theta1, theta2, lam1, lam2, alpha, gamma1, gamma2, a1, a2,
              N1, N2, P1, P2):
    """Decoding constraints of every codeword at one fixed power pair.

    The state pins each codeword's overlap triple, making its interfered
    length affine in (R_c1, R_c2); each decoding condition is then a single
    open half-plane. The last two rows are the average-power constraints.
    """
    triples = triples_from_state(S, N1, N2)
    rp = {1: rate_pair(gamma1, gamma2, a2), 2: rate_pair(gamma2, gamma1, a1)}
    theta = {1: theta1, 2: theta2}
    lam = {1: lam1, 2: lam2}
    nu = {1: 0.0, 2: alpha}
    counts = {1: N1, 2: N2}
    rows = []
    for user in (1, 2):
        other = 3 - user
        d = rp[user].phi - rp[user].psi
        for j in range(1, counts[user] + 1):
            cown, coth, c0 = _covered_affine(
                triples[(user, j)], j, theta[user], theta[other],
                nu[user], nu[other])
            a_own = theta[user] * (1.0 + d * cown / lam[user])
            b_oth = d * coth * theta[other] / lam[other]
            rhs = theta[user] * rp[user].phi - d * c0
            rows.append((a_own, b_oth, rhs) if user == 1 else (b_oth, a_own, rhs))
    rows.append((-1.0, 0.0, lam1 * (1.0 / N1 - gamma1 / P1)))
    rows.append((0.0, -1.0, lam2 * (1.0 / N2 - gamma2 / P2)))
    return np.array(rows, dtype=float)


def _margin(rows, x, y):
    """Smallest row slack c - (a*x + b*y); positive iff strictly inside."""
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    return (rows[:, 2] - (rows[:, 0] * x + rows[:, 1] * y)).min(axis=-1)


# ------------------------------------------------------------------ rbar_c

def test_rbar_is_fixed_point():
    for N in (1, 2, 3, 5):
        r = rbar_c(U, N)
        assert r == approx(capacity_c((1.0 / N + r / U.lam) * U.P), abs=1e-8)


def test_rbar_anchor():
    assert rbar_c(U, 2) == approx(4.8774, abs=1e-3)


def test_rbar_monotone():
    assert rbar_c(U, 2) < rbar_c(U, 1)
    assert rbar_c(UserParams(k=2, q=0.3, P=10.0, a=0.5), 2) < rbar_c(U, 2)
    with pytest.raises(ValueError):
        rbar_c(U, 0)


def test_gamma_grid_interior():
    g = gamma_grid(U, 2, 10)
    gbar = (0.5 + rbar_c(U, 2) / U.lam) * U.P
    assert len(g) == 9
    assert 0 < g[0] and g[-1] < gbar
    assert np.allclose(np.diff(g), g[0])
    with pytest.raises(ValueError):
        gamma_grid(U, 2, 1)


# ---------------------------------------------------------------- polyhedra

def region_contains(r: Region2D, x, y) -> bool:
    """Membership of the cell holding (x, y); False outside the box."""
    if not (r.x0 <= x <= r.x1 and r.y0 <= y <= r.y1):
        return False
    dx, dy = r.cell
    ix = min(int((x - r.x0) / dx), r.mask.shape[0] - 1)
    iy = min(int((y - r.y0) / dy), r.mask.shape[1] - 1)
    return bool(r.mask[ix, iy])


def test_region2d_lookup():
    xs = (np.arange(40) + 0.5) * 0.1
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    r = Region2D(0.0, 4.0, 0.0, 4.0, (X < 2.0) & (Y < 3.0))
    assert region_contains(r, 1.0, 1.0)
    assert not region_contains(r, 3.5, 3.5)
    assert not region_contains(r, -1.0, 1.0)  # outside the window
    assert r.mask.shape == (40, 40)
    assert r.xs() == approx(xs) and r.ys() == approx(xs)
    with pytest.raises(ValueError):
        Region2D(0.0, 4.0, 0.0, 4.0, X)  # not a boolean mask


def test_geometry_rows_worked_example():
    # Hand-checked constraint matrix: endpoints of the second user's two
    # bursts land in intervals (1, 2) and (2, 4) cut by the first user's
    # bursts, at theta = (1.3, 0.7), lam = (0.8, 0.5), offset 0.9.
    S = ChannelStateS(pairs=((1, 2), (2, 4)))
    got = [tuple(r) for r in _geom_rows(S, 1.3, 0.7, 0.8, 0.5, 0.9, 2, 2)]
    expected = [
        (-1.625, 1.4, -0.9),
        (1.625, -1.4, 1.6),
        (-1.625, 2.8, 0.4),
        (3.25, -2.8, 1.6),
        (-3.25, 2.8, -0.3),
        (-1.0, 0.0, -0.8),
        (0.0, -1.0, -0.5),
    ]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == approx(e, abs=1e-12)


def test_geometry_rows_open_end_intervals():
    # both endpoints past every burst of user 1: the trailing interval has
    # no upper edge, so only one lower-edge row survives (and single-burst
    # users get no immediacy row)
    S = ChannelStateS(pairs=((3, 3),))
    rows = _geom_rows(S, 1.0, 1.0, 0.5, 0.5, 0.0, 1, 1)
    assert len(rows) == 1
    assert tuple(rows[0]) == approx((2.0, -2.0, -1.0))


def test_geometry_rows_validate_state():
    with pytest.raises(ValueError):
        _geom_rows(ChannelStateS(pairs=((1, 2),)), 1.0, 1.0, 0.5, 0.5,
                   0.0, 1, 2)
    with pytest.raises(ValueError):
        _geom_rows(ChannelStateS(pairs=((1, 9),)), 1.0, 1.0, 0.5, 0.5,
                   0.0, 1, 1)


def test_geometry_polyhedron_roundtrip():
    # membership in the state's polyhedron must coincide with the layout at
    # those rates actually producing that state
    rng = np.random.default_rng(7)
    tested = 0
    for _ in range(80):
        N1, N2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        th1, th2 = rng.uniform(0.3, 1.5, 2)
        lam1, lam2 = rng.uniform(0.3, 1.0, 2)
        alpha = float(rng.uniform(0.0, 3.0))
        R1 = float(rng.uniform(lam1 * 1.05, lam1 * 6))
        R2 = float(rng.uniform(lam2 * 1.05, lam2 * 6))
        base = BurstLayout(th1 * R1 / lam1, th1, 0.0, N1,
                           th2 * R2 / lam2, th2, alpha, N2)
        try:
            S = state_of(base)
        except ValueError:
            continue
        rows = _geom_rows(S, th1, th2, lam1, lam2, alpha, N1, N2)
        assert _margin(rows, R1, R2) > 0
        for _ in range(12):
            Q1 = float(rng.uniform(lam1 * 1.01, lam1 * 8))
            Q2 = float(rng.uniform(lam2 * 1.01, lam2 * 8))
            other = BurstLayout(th1 * Q1 / lam1, th1, 0.0, N1,
                                th2 * Q2 / lam2, th2, alpha, N2)
            try:
                S2 = state_of(other)
            except ValueError:
                continue
            m = float(_margin(rows, Q1, Q2))
            if abs(m) < 1e-9:
                continue  # knife-edge between states
            tested += 1
            assert (m > 0) == (S2 == S)
    assert tested > 500


def test_reliability_rows_match_codeword_bounds():
    # each row of the decoding polyhedron must agree in sign with the
    # corresponding codeword's rate bound on the actual layout
    rng = np.random.default_rng(21)
    tested = 0
    for _ in range(60):
        N1, N2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        th1, th2 = rng.uniform(0.3, 1.5, 2)
        lam1, lam2 = rng.uniform(0.3, 1.0, 2)
        alpha = float(rng.uniform(0.0, 2.0))
        g1, g2 = float(rng.uniform(0.5, 30)), float(rng.uniform(0.5, 30))
        a1, a2 = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.5))
        P1, P2 = float(rng.uniform(5, 200)), float(rng.uniform(5, 200))
        R1 = float(rng.uniform(lam1 * 1.05, lam1 * 5))
        R2 = float(rng.uniform(lam2 * 1.05, lam2 * 5))
        lay = BurstLayout(th1 * R1 / lam1, th1, 0.0, N1,
                          th2 * R2 / lam2, th2, alpha, N2)
        try:
            S = state_of(lay)
        except ValueError:
            continue
        rows = _rel_rows(S, th1, th2, lam1, lam2, alpha, g1, g2,
                         a1, a2, N1, N2, P1, P2)
        assert len(rows) == N1 + N2 + 2
        rp1 = rate_pair(g1, g2, a2)
        rp2 = rate_pair(g2, g1, a1)
        bounds = [rate_bound(lay, 1, j, rp1) - th1 * R1 for j in range(1, N1 + 1)]
        bounds += [rate_bound(lay, 2, j, rp2) - th2 * R2 for j in range(1, N2 + 1)]
        for row, b in zip(rows, bounds):
            m = row[2] - (row[0] * R1 + row[1] * R2)
            if abs(m) < 1e-9 or abs(b) < 1e-9:
                continue
            tested += 1
            assert (m > 0) == (b > 0)
        prow1, prow2 = rows[-2:]
        assert tuple(prow1[:2]) == (-1.0, 0.0)
        assert prow1[2] == approx(lam1 * (1.0 / N1 - g1 / P1))
        assert tuple(prow2[:2]) == (0.0, -1.0)
        assert prow2[2] == approx(lam2 * (1.0 / N2 - g2 / P2))
    assert tested > 100


def test_reliability_rows_reject_negative_power():
    with pytest.raises(ValueError):
        _rel_rows(ChannelStateS(pairs=((1, 1),)), 1.0, 1.0, 0.5, 0.5,
                  0.0, -1.0, 2.0, 0.5, 0.5, 1, 1, 10.0, 10.0)


# ------------------------------------------------------------- full region

def _member_direct(u1, u2, N1, N2, th1, th2, alpha, m_grid, R1, R2):
    """Slow reference: try every grid power pair against every codeword."""
    if N1 > 1 and R1 <= u1.lam:
        return False
    if N2 > 1 and R2 <= u2.lam:
        return False
    lay = BurstLayout(th1 * R1 / u1.lam, th1, 0.0, N1,
                      th2 * R2 / u2.lam, th2, alpha, N2)
    cap1 = (1.0 / N1 + R1 / u1.lam) * u1.P
    cap2 = (1.0 / N2 + R2 / u2.lam) * u2.P
    for g1, g2 in itertools.product(gamma_grid(u1, N1, m_grid),
                                    gamma_grid(u2, N2, m_grid)):
        if g1 > cap1 or g2 > cap2:
            continue
        rp1 = rate_pair(g1, g2, u2.a)
        rp2 = rate_pair(g2, g1, u1.a)
        if all(rate_bound(lay, 1, j, rp1) > th1 * R1 for j in range(1, N1 + 1)) \
                and all(rate_bound(lay, 2, j, rp2) > th2 * R2
                        for j in range(1, N2 + 1)):
            return True
    return False


def test_region_members_against_direct_evaluation():
    rng = np.random.default_rng(5)
    rb = rbar_c(U, 2)
    R1 = rng.uniform(U.lam * 1.02, rb, 60)
    R2 = rng.uniform(U.lam * 1.02, rb, 60)
    got = region_members(U, U, 2, 2, 1.0, 1.0, 0.9, 6, R1, R2)
    for x, y, g in zip(R1, R2, got):
        assert g == _member_direct(U, U, 2, 2, 1.0, 1.0, 0.9, 6, x, y)


def test_region_members_asymmetric_against_direct():
    u2 = UserParams(k=3, q=0.2, P=40.0, a=0.8)
    rng = np.random.default_rng(11)
    R1 = rng.uniform(U.lam * 1.02, rbar_c(U, 1), 30)
    R2 = rng.uniform(u2.lam * 1.02, rbar_c(u2, 3), 30)
    got = region_members(U, u2, 1, 3, 0.8, 1.2, 1.7, 5, R1, R2)
    for x, y, g in zip(R1, R2, got):
        assert g == _member_direct(U, u2, 1, 3, 0.8, 1.2, 1.7, 5, x, y)


U3 = UserParams(k=3, q=0.2, P=40.0, a=0.8)


@pytest.mark.parametrize("u2, N1, N2, th1, th2, alpha, m_grid", [
    (U, 2, 2, 1.0, 1.0, 0.5, 6),
    (U3, 1, 3, 0.8, 1.2, 1.7, 5),
    (U3, 3, 2, 1.1, 0.9, 0.3, 5),
], ids=["2x2", "1x3", "3x2"])
def test_region_members_match_union_of_state_polyhedra(u2, N1, N2, th1, th2,
                                                       alpha, m_grid):
    # the region is the union, over every channel state and grid power
    # pair, of the state's geometric and reliability polyhedra
    u1 = U
    rng = np.random.default_rng(N1 * 10 + N2)
    R1 = rng.uniform(0.0, 1.05 * rbar_c(u1, N1), 2000)
    R2 = rng.uniform(0.0, 1.05 * rbar_c(u2, N2), 2000)
    inside = np.zeros(R1.shape, dtype=bool)
    near = np.zeros(R1.shape, dtype=bool)
    for S in enumerate_states(N1, N2):
        geom = _margin(_geom_rows(S, th1, th2, u1.lam, u2.lam, alpha, N1, N2),
                       R1, R2)
        if not (geom > -1e-9).any():
            continue  # no sampled point in or near this state
        for g1, g2 in itertools.product(gamma_grid(u1, N1, m_grid),
                                        gamma_grid(u2, N2, m_grid)):
            rel = _rel_rows(S, th1, th2, u1.lam, u2.lam, alpha, g1, g2,
                            u1.a, u2.a, N1, N2, u1.P, u2.P)
            m = np.minimum(geom, _margin(rel, R1, R2))
            inside |= m > 0
            near |= np.abs(m) <= 1e-9
    got = region_members(u1, u2, N1, N2, th1, th2, alpha, m_grid, R1, R2)
    keep = ~near
    assert keep.sum() >= 1990
    assert 100 < got[keep].sum() < keep.sum() - 100
    assert np.array_equal(got[keep], inside[keep])


# ------------------------------------- every cell at every power pair (oracle)
#
# region_members tests only undecided cells. This is its former body, which
# tests every cell at every power pair; the two masks must agree exactly.

def _members_full_grid(u1, u2, N1, N2, theta1, theta2, alpha, m_grid, R1, R2):
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    if R1.shape != R2.shape:
        raise ValueError("R1 and R2 must have matching shapes")
    base = (R1 > (u1.lam if N1 > 1 else 0.0)) & (R2 > (u2.lam if N2 > 1 else 0.0))
    cov1, cov2 = covered_lengths(theta1 * R1 / u1.lam, theta1, 0.0, N1,
                                 theta2 * R2 / u2.lam, theta2, alpha, N2)
    worst1 = cov1.max(axis=-1)
    worst2 = cov2.max(axis=-1)
    cap1 = (1.0 / N1 + R1 / u1.lam) * u1.P
    cap2 = (1.0 / N2 + R2 / u2.lam) * u2.P
    members = np.zeros(R1.shape, dtype=bool)
    for g1 in gamma_grid(u1, N1, m_grid):
        for g2 in gamma_grid(u2, N2, m_grid):
            rp1 = rate_pair(g1, g2, u2.a)
            rp2 = rate_pair(g2, g1, u1.a)
            ok = (g1 <= cap1) & (g2 <= cap2)
            ok &= theta1 * R1 < theta1 * rp1.phi - (rp1.phi - rp1.psi) * worst1
            ok &= theta2 * R2 < theta2 * rp2.phi - (rp2.phi - rp2.psi) * worst2
            members |= ok
        if members.all():
            break
    return members & base


def _random_user(rng):
    return UserParams(k=int(rng.integers(1, 4)), q=float(rng.uniform(0.1, 0.6)),
                      P=float(10 ** rng.uniform(0.5, 3.0)),
                      a=float(rng.choice([0.0, rng.uniform(0.05, 2.0)])))


def _rates(rng, u, N, shape):
    # spans [0, 1.1 rbar_c], so points at or below lam and beyond the cap
    # both occur; the exact endpoints lam and rbar_c are planted too
    rb = rbar_c(u, N)
    R = rng.uniform(0.0, 1.1 * rb, shape)
    if R.ndim:
        R.flat[:2] = u.lam, rb
    return R


def test_region_members_matches_full_grid_oracle():
    rng = np.random.default_rng(606)
    seen = {"in": 0, "out": 0}
    for trial in range(36):
        u1, u2 = _random_user(rng), _random_user(rng)
        N1, N2 = (int(n) for n in rng.integers(1, 4, 2))
        th1, th2 = (float(t) for t in rng.uniform(0.3, 1.5, 2))
        alpha = float(rng.choice([0.0, 0.25, 0.9, 1.7, 4.0]))
        m_grid = (2, 5, 12)[trial % 3]
        args = (u1, u2, N1, N2, th1, th2, alpha, m_grid)
        for shape in ((), (37,), (6, 9)):
            R1, R2 = _rates(rng, u1, N1, shape), _rates(rng, u2, N2, shape)
            got = region_members(*args, R1, R2)
            want = _members_full_grid(*args, R1, R2)
            assert got.shape == want.shape == np.shape(R1)
            assert got.dtype == want.dtype == np.bool_
            assert np.array_equal(got, want), (args, shape)
            seen["in"] += int(want.sum())
            seen["out"] += int(want.size - want.sum())
    assert min(seen.values()) > 100  # both outcomes are well represented


def test_region_members_full_grid_oracle_all_and_none():
    # a far offset keeps the users apart, so the box interior is all in;
    # beyond rbar_c nothing decodes, and at or below lam nothing is in
    rb = rbar_c(U, 2)
    pts = np.linspace(U.lam + 0.1 * (rb - U.lam), rb - 0.1 * (rb - U.lam), 12)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    cases = {"all": X, "beyond": X + rb, "below": X - (rb - U.lam)}
    for name, R1 in cases.items():
        R2 = Y if name == "all" else R1.T
        args = (U, U, 2, 2, 1.0, 1.0, 20.0, 12, R1, R2)
        got = region_members(*args)
        assert np.array_equal(got, _members_full_grid(*args))
        assert got.all() if name == "all" else not got.any(), name


def test_region_members_full_grid_oracle_across_blocks():
    # region_members tests _BLOCK raw cells at a time; this grid's base
    # cells span four blocks' worth, the last one partial. x-major, its
    # rows run: at or below lam (no base cells), beyond rbar_c (none),
    # across the box (mixed), inside the far-offset square (all in), so
    # whole blocks are all out or in. Row counts follow _BLOCK: each of
    # the last three sections holds 1.125 blocks of cells
    rb = rbar_c(U, 2)
    ny = 307
    rows = lambda blocks: math.ceil(blocks * _BLOCK / ny)
    box = lambda lo, hi, n: U.lam + (rb - U.lam) * np.linspace(lo, hi, n)
    xs = np.concatenate((np.linspace(0.5 * U.lam, U.lam, rows(0.375)),
                         box(1.01, 1.5, rows(1.125)),
                         box(0.02, 0.98, rows(1.125)),
                         box(0.4, 0.85, rows(1.125))))
    X, Y = np.meshgrid(xs, box(0.4, 0.85, ny), indexing="ij")
    args = (U, U, 2, 2, 1.0, 1.0, 20.0, 3, X, Y)
    got = region_members(*args)
    assert X.size > 2 * _BLOCK and X.size % _BLOCK
    assert np.array_equal(got, _members_full_grid(*args))
    cells = np.flatnonzero((X > U.lam) & (Y > U.lam))
    shares = [got.ravel()[cells[s:s + _BLOCK]].mean()
              for s in range(0, cells.size, _BLOCK)]
    assert len(shares) == 4 and cells.size % _BLOCK
    assert shares[0] == 0.0 and shares[-1] == 1.0
    assert 0.0 < min(shares[1:3]) and max(shares[1:3]) < 1.0


def test_region_members_matches_full_grid_oracle_at_benchmark_m_grid():
    # m_grid = 40 is the benchmark's power grid: 39 g2 indices a row, so
    # the per-row windows have room to be off by more than one index
    rng = np.random.default_rng(4040)
    seen = {"in": 0, "out": 0}
    for trial in range(10):
        u1, u2 = _random_user(rng), _random_user(rng)
        N1, N2 = (int(n) for n in rng.integers(1, 4, 2))
        th1, th2 = (float(t) for t in rng.uniform(0.3, 1.5, 2))
        alpha = float(rng.choice([0.0, 0.25, 0.9, 1.7, 4.0]))
        args = (u1, u2, N1, N2, th1, th2, alpha, 40)
        R1, R2 = _rates(rng, u1, N1, (400,)), _rates(rng, u2, N2, (400,))
        got = region_members(*args, R1, R2)
        want = _members_full_grid(*args, R1, R2)
        assert np.array_equal(got, want), args
        seen["in"] += int(want.sum())
        seen["out"] += int(want.size - want.sum())
    assert min(seen.values()) > 200


def _spy_g2_runs(monkeypatch):
    """Record how many uncertified g2 steps each call of _g2_runs finds."""
    mod = sys.modules["burstgic.region"]
    cuts = []

    def spy(*args):
        runs = real(*args)
        cuts.append(sum(len(row) - 1 for row in runs))
        return runs

    real = mod._g2_runs
    monkeypatch.setattr(mod, "_g2_runs", spy)
    return cuts


@pytest.mark.parametrize("a1", [1e12, 1e15, 1e300])
def test_region_members_uncertified_steps_match_full_grid_oracle(monkeypatch,
                                                                 a1):
    # a huge cross gain at user 2's receiver flattens psi2 to a few ulps,
    # and theta1 > theta2 lets a user-1 burst cover a whole user-2
    # codeword, so user 2's right-hand side rises by less than the
    # rounding bound: those steps get no certificate and every index
    # beside them is tested on its own
    u1 = UserParams(k=2, q=0.3, P=100.0, a=a1)
    rng = np.random.default_rng(12)
    R1, R2 = _rates(rng, u1, 2, (3000,)), _rates(rng, U, 2, (3000,))
    args = (u1, U, 2, 2, 1.5, 0.8, 0.5, 40, R1, R2)
    cuts = _spy_g2_runs(monkeypatch)
    got = region_members(*args)
    assert cuts and min(cuts) > 0
    want = _members_full_grid(*args)
    assert 100 < want.sum() < want.size - 100
    assert np.array_equal(got, want)


def _missed_at_window_end(u1, u2, N1, N2, theta1, theta2, alpha, m_grid,
                          R1, R2):
    """Cells that some g1 row admits, though in every row user 2 fails at
    the largest g2 where user 1 decodes within both caps: testing user 2
    only at the end of that window would leave them out."""
    cov1, cov2 = covered_lengths(theta1 * R1 / u1.lam, theta1, 0.0, N1,
                                 theta2 * R2 / u2.lam, theta2, alpha, N2)
    worst1, worst2 = cov1.max(axis=-1), cov2.max(axis=-1)
    cap1 = (1.0 / N1 + R1 / u1.lam) * u1.P
    cap2 = (1.0 / N2 + R2 / u2.lam) * u2.P
    hit = np.zeros(R1.shape, dtype=bool)
    end_hit = np.zeros(R1.shape, dtype=bool)
    for g1 in gamma_grid(u1, N1, m_grid):
        end_ok = np.zeros(R1.shape, dtype=bool)
        for g2 in gamma_grid(u2, N2, m_grid):
            rp1 = rate_pair(g1, g2, u2.a)
            rp2 = rate_pair(g2, g1, u1.a)
            ok1 = (g1 <= cap1) & (g2 <= cap2)
            ok1 &= theta1 * R1 < theta1 * rp1.phi - (rp1.phi - rp1.psi) * worst1
            ok2 = theta2 * R2 < theta2 * rp2.phi - (rp2.phi - rp2.psi) * worst2
            hit |= ok1 & ok2
            end_ok = np.where(ok1, ok2, end_ok)
        end_hit |= end_ok
    return hit & ~end_hit


def test_region_members_fallback_decides_tiny_rate_cells(monkeypatch):
    # at these rates user 2's right-hand side is a few ulps, so rounding
    # makes it fall along g2 in places; some members decode only below
    # the end of their row's window, and only the uncertified-step path
    # tests them there
    u1 = UserParams(k=2, q=0.3, P=100.0, a=1e15)
    u2 = UserParams(k=1, q=0.5, P=10.0, a=0.5)
    X, Y = np.meshgrid(np.linspace(1e-6, u1.lam, 60),
                       np.linspace(1e-18, 1e-15, 60), indexing="ij")
    args = (u1, u2, 1, 1, 1.5, 0.8, 0.5, 40, X, Y)
    cuts = _spy_g2_runs(monkeypatch)
    got = region_members(*args)
    assert cuts and min(cuts) > 0
    want = _members_full_grid(*args)
    assert np.array_equal(got, want)
    missed = _missed_at_window_end(*args)
    assert missed.sum() >= 20 and not missed[~want].any()


@pytest.mark.parametrize("m_grid", [2, 5, 40])
def test_region_members_matches_full_grid_oracle_at_user1_ties(m_grid):
    # far apart, no codeword is interfered (worst1 = 0), so user 1's test
    # is load1 < theta1*phi1 on the whole row and the searchsorted guess
    # (theta1*phi1 - load1)/worst1 is +inf, -inf or, at a tie, NaN; the
    # rates sit on each row's phi1 and one float either side of it
    g1s = gamma_grid(U, 2, m_grid)
    phi = np.array([capacity_c(g) for g in g1s])
    R1 = np.concatenate((phi, np.nextafter(phi, 0.0), np.nextafter(phi, 9.0)))
    R1 = R1[R1 > U.lam]
    X, Y = np.meshgrid(R1, np.linspace(U.lam, rbar_c(U, 2), 25)[1:-1],
                       indexing="ij")
    args = (U, U, 2, 2, 1.0, 1.0, 20.0, m_grid, X, Y)
    got = region_members(*args)
    want = _members_full_grid(*args)
    assert np.array_equal(got, want)
    assert want.any() and not want.all()


def test_region_members_benchmark_table_is_certified(monkeypatch):
    # the benchmark's grid scenario needs no fallback anywhere
    cuts = _spy_g2_runs(monkeypatch)
    rng = np.random.default_rng(9)
    R1, R2 = rng.uniform(0.0, 1.1 * rbar_c(U, 2), (2, 2000))
    region_members(U, U, 2, 2, 1.0, 1.0, 0.5, 40, R1, R2)
    assert cuts == [0]


def test_user1_ends_are_exact_from_any_guess():
    # the searchsorted guess only saves steps: from any starting index the
    # test itself moves each cell to the first failing g2 index of the run
    mod = sys.modules["burstgic.region"]
    rng = np.random.default_rng(21)
    s1 = np.sort(np.round(rng.uniform(0.0, 2.0, 12), 1))  # with repeats
    t1 = 1.3
    worst1 = rng.choice([0.0, 0.5, 1.0, 2.5], 500)
    load1 = np.round(rng.uniform(-1.0, 2.0, 500), 2)
    holds = load1[:, None] < t1 - s1[None, :] * worst1[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (t1 - load1) / worst1
    scratch = (np.empty(500, np.intp), np.empty(500, np.intp), np.empty(500),
               np.empty(500, bool), np.empty(500, bool))
    guesses = {"exact": exact, "zero": np.zeros(500), "inf": np.full(500, np.inf),
               "-inf": np.full(500, -np.inf), "nan": np.full(500, np.nan),
               "random": rng.uniform(-5.0, 5.0, 500)}
    for a, b in ((0, 12), (3, 9), (5, 6)):
        want = a + np.argmin(np.column_stack((holds[:, a:b], np.zeros(500, bool))),
                             axis=1)
        for name, x in guesses.items():
            got = mod._user1_ends(load1, worst1, t1, s1, a, b, x, scratch)
            assert np.array_equal(got, want), (a, b, name)


def test_g2_runs_cut_at_every_uncertified_step():
    mod = sys.modules["burstgic.region"]
    flat = np.zeros((2, 5))
    rising = np.tile(np.arange(5.0), (2, 1))
    # certified rows are one run
    assert mod._g2_runs(flat, rising, flat, 0.0, 1.0) == [[(0, 5)], [(0, 5)]]
    # a falling slope1 cuts its row after the fall
    s1 = flat.copy()
    s1[1, 3] = -1.0
    assert mod._g2_runs(s1, rising, flat, 0.0, 1.0) == \
        [[(0, 5)], [(0, 3), (3, 5)]]
    # user 2's right-hand side T - S*w must rise at both ends of [wlo, whi]
    s2 = flat.copy()
    s2[0, 2] = 2.0  # T - S*w falls from j = 1 to 2 once w > 0.5
    assert mod._g2_runs(flat, rising, s2, 0.0, 0.4) == [[(0, 5)], [(0, 5)]]
    assert mod._g2_runs(flat, rising, s2, 0.0, 1.0) == \
        [[(0, 2), (2, 5)], [(0, 5)]]
    assert mod._g2_runs(flat, rising, -s2, -1.0, 0.0) == \
        [[(0, 2), (2, 5)], [(0, 5)]]
    # a step within the rounding bound is not certified
    t2 = np.tile(np.array([1.0, 1.0 + 2e-16, 2.0, 3.0, 4.0]), (2, 1))
    assert mod._g2_runs(flat, t2, flat, 0.0, 1.0) == [[(0, 1), (1, 5)]] * 2
    # a NaN bound certifies nothing
    assert mod._g2_runs(flat, rising, flat, 0.0, math.nan) == \
        [[(j, j + 1) for j in range(5)]] * 2


# ------------------------------------------ pre-pass routes and batches
#
# region_members decides most cells before the row loop: cells that fail
# one user at every affordable power pair are excluded, interference-free
# cells are decided by two prefix maxima, and only the rest are gathered
# into batches for the row loop (_test_batch), each cell starting at its
# first live g1 row. These tests force each route and check the mask
# against the full-grid oracle.

def _spy_batches(monkeypatch):
    """Record the flat cell indices of every batch _test_batch receives."""
    mod = sys.modules["burstgic.region"]
    batches = []

    def spy(members, fl, it, *rest):
        batches.append(it[0].copy())
        return real(members, fl, it, *rest)

    real = mod._test_batch
    monkeypatch.setattr(mod, "_test_batch", spy)
    return batches


def _first_live_rows(u1, u2, N1, N2, theta1, theta2, alpha, m_grid, R1, R2):
    """Each cell's first g1 row where user 1's test can pass at some g2
    within its power cap, or m_grid - 1 if none: the row loop's start."""
    g1s = gamma_grid(u1, N1, m_grid)
    g2s = gamma_grid(u2, N2, m_grid)
    cov1, _ = covered_lengths(theta1 * R1 / u1.lam, theta1, 0.0, N1,
                              theta2 * R2 / u2.lam, theta2, alpha, N2)
    worst1 = cov1.max(axis=-1)
    cap1 = (1.0 / N1 + R1 / u1.lam) * u1.P
    first = np.full(R1.shape, g1s.size)
    for i in reversed(range(g1s.size)):
        rps = [rate_pair(g1s[i], g2, u2.a) for g2 in g2s]
        smin = min(rp.phi - rp.psi for rp in rps)
        live = (theta1 * R1 < theta1 * rps[0].phi - smin * worst1) & (g1s[i] <= cap1)
        first[live] = i
    return first


def test_region_members_interference_free_cells_skip_the_row_loop(monkeypatch):
    # at a far offset no burst meets a codeword of the other user, so every
    # base cell is interference-free and the two prefix maxima decide it:
    # inside the box it is in, past rbar_c or at a power cap it is out
    rb = rbar_c(U, 2)
    xs = np.linspace(U.lam, 1.2 * rb, 90)
    ys = np.linspace(0.5 * U.lam, 1.2 * rb, 80)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    args = (U, U, 2, 2, 1.0, 1.0, 50.0, 12, X, Y)
    batches = _spy_batches(monkeypatch)
    got = region_members(*args)
    assert batches == []
    want = _members_full_grid(*args)
    assert np.array_equal(got, want)
    base = (X > U.lam) & (Y > U.lam)
    assert 100 < want.sum() < base.sum() - 100


def test_region_members_excluded_cells_skip_the_row_loop(monkeypatch):
    # beyond rbar_c user 1 fails at every power pair it can afford, however
    # much interference: every base cell is excluded by the pre-pass
    rb = rbar_c(U, 2)
    X, Y = np.meshgrid(np.linspace(1.02 * rb, 1.5 * rb, 40),
                       np.linspace(U.lam, rb, 41)[1:], indexing="ij")
    for alpha in (0.0, 0.5, 50.0):
        args = (U, U, 2, 2, 1.0, 1.0, alpha, 12, X, Y)
        batches = _spy_batches(monkeypatch)
        got = region_members(*args)
        assert batches == [] and not got.any()
        assert np.array_equal(got, _members_full_grid(*args))


def test_region_members_batches_fill_mid_grid_then_a_partial_one(monkeypatch):
    # about 1.2 workspaces' worth of undecided cells: a batch is decided
    # once it is more than three quarters full, in the middle of the grid,
    # and the cells left at the end make a last, partial batch
    rb = rbar_c(U, 2)
    n = math.ceil(math.sqrt(7 * _BLOCK))
    xs = np.linspace(U.lam, 1.05 * rb, n)
    ys = np.linspace(U.lam, 1.05 * rb, n + 1)
    args = (U, U, 2, 2, 1.0, 1.0, 0.5, 5)
    batches = _spy_batches(monkeypatch)
    got = region_members(*args, xs[:, None], ys[None, :])
    sizes = [b.size for b in batches]
    assert len(sizes) >= 2 and min(sizes[:-1]) > 3 * _BLOCK // 4, sizes
    assert sizes[-1] < min(sizes[:-1]) and max(sizes) <= _BLOCK, sizes
    # a batch holds cells of several raw blocks, in grid order
    assert all(np.all(np.diff(b) > 0) for b in batches)
    assert batches[0][-1] < batches[1][0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    want = _members_full_grid(*args, X, Y)
    assert np.array_equal(got, want)
    assert 0.1 < want.mean() < 0.9


def test_region_members_cells_start_at_different_first_live_rows(monkeypatch):
    # at m_grid 40 the undecided cells' first live rows spread over many g1
    # rows, so each row's tests run on the earlier cells still undecided
    # plus the cells that start there
    rb = rbar_c(U, 2)
    X, Y = np.meshgrid(np.linspace(U.lam, rb, 70)[1:],
                       np.linspace(U.lam, rb, 60)[1:], indexing="ij")
    args = (U, U, 2, 2, 1.0, 1.0, 0.5, 40, X, Y)
    batches = _spy_batches(monkeypatch)
    got = region_members(*args)
    assert len(batches) == 1
    first = _first_live_rows(*args).ravel()[batches[0]]
    assert len(set(first[first < 39].tolist())) >= 10
    want = _members_full_grid(*args)
    assert np.array_equal(got, want)
    # members among cells that start late as well as early
    late = batches[0][first >= 5]
    assert want.ravel()[late].any() and not want.ravel()[late].all()


def test_region_members_exclusion_never_refuses_a_member(monkeypatch):
    # a cell the pre-pass neither admits nor sends to a batch is refused;
    # on random users and rates, none of those is in the oracle's region
    rng = np.random.default_rng(2609)
    refused = 0
    for trial in range(30):
        u1, u2 = _random_user(rng), _random_user(rng)
        N1, N2 = (int(n) for n in rng.integers(1, 4, 2))
        th1, th2 = (float(t) for t in rng.uniform(0.3, 1.5, 2))
        alpha = float(rng.choice([0.0, 0.25, 0.9, 1.7, 4.0]))
        args = (u1, u2, N1, N2, th1, th2, alpha, (2, 5, 12)[trial % 3])
        R1, R2 = _rates(rng, u1, N1, (300,)), _rates(rng, u2, N2, (300,))
        batches = _spy_batches(monkeypatch)
        got = region_members(*args, R1, R2)
        want = _members_full_grid(*args, R1, R2)
        sent = np.zeros(R1.size, dtype=bool)
        for b in batches:
            sent[b] = True
        base = ((R1 > (u1.lam if N1 > 1 else 0.0))
                & (R2 > (u2.lam if N2 > 1 else 0.0)))
        out = base & ~sent & ~got
        assert not want[out].any(), args
        assert np.array_equal(got, want), args
        refused += int(out.sum())
    assert refused > 1000


def test_region_members_full_grid_oracle_across_blocks_and_batches(monkeypatch):
    # the four sections of test_region_members_full_grid_oracle_across_blocks
    # at a near offset and m_grid 12, with larger mixed sections (2.5
    # blocks each): at or below lam (no base cells), beyond rbar_c (all
    # refused by the pre-pass), then two sections across the box, whose
    # undecided cells fill one batch past three quarters, mid-grid, and
    # leave a partial one. Row counts follow _BLOCK
    rb = rbar_c(U, 2)
    ny = 307
    rows = [math.ceil(blocks * _BLOCK / ny) for blocks in (0.375, 1.125, 2.5, 2.5)]
    box = lambda lo, hi, n: U.lam + (rb - U.lam) * np.linspace(lo, hi, n)
    xs = np.concatenate((np.linspace(0.5 * U.lam, U.lam, rows[0]),
                         box(1.01, 1.5, rows[1]),
                         box(0.02, 0.98, rows[2]),
                         box(0.3, 0.98, rows[3])))
    ys = box(0.02, 0.98, ny)
    args = (U, U, 2, 2, 1.0, 1.0, 0.5, 12)
    batches = _spy_batches(monkeypatch)
    got, X, Y = _axes_match_mesh(args, xs, ys)
    assert X.size > 6 * _BLOCK
    assert np.array_equal(got, _members_full_grid(*args, X, Y))
    # the grid's axes and its mesh batch the same cells
    half = len(batches) // 2
    assert len(batches) == 2 * half
    assert all(np.array_equal(a, b) for a, b in zip(batches[:half], batches[half:]))
    sizes = [b.size for b in batches[:half]]
    assert half >= 2 and min(sizes[:-1]) > 3 * _BLOCK // 4, sizes
    assert sizes[-1] <= 3 * _BLOCK // 4, sizes
    # only the mixed sections reach the row loop; the first batch ends
    # in the last section, so it holds cells of several raw blocks
    ends = np.cumsum(rows) * ny
    sent = np.concatenate(batches[:half])
    assert sent.min() >= ends[1] and batches[0][-1] >= ends[2]
    shares = [got.ravel()[a:b].mean() for a, b in zip([0, *ends[:-1]], ends)]
    assert shares[:2] == [0.0, 0.0]
    assert 0.0 < min(shares[2:]) and max(shares[2:]) < 1.0


def test_region_members_row_loop_tests_on_the_benchmark_grid(monkeypatch):
    # the benchmark's grid (428 x 428 cells, m_grid 40): the row loop runs
    # user 1's window search once a row per cell it still tests. Testing
    # every undecided cell against every row up to its cap took 2,228,863
    # cell-row tests; the pre-pass and first live rows leave 317,905
    mod = sys.modules["burstgic.region"]
    tests = []

    def spy(load1, *rest):
        tests.append(load1.size)
        return real(load1, *rest)

    real = mod._user1_ends
    monkeypatch.setattr(mod, "_user1_ends", spy)
    reg = region(U, U, 2, 2, 1.0, 1.0, 0.5, 40, 0.01)
    assert reg.mask.shape == (428, 428)
    assert sum(tests) <= 400_000, sum(tests)


def test_region_members_memory_does_not_grow_with_cells():
    # beyond the mask, region_members holds one block of cells at a time,
    # so 3n more cells cost a few bytes each; covered_lengths on every
    # cell at once costs about 150 bytes a cell
    rng = np.random.default_rng(17)
    rb = rbar_c(U, 2)
    peaks = []
    for n in (2 ** 17, 2 ** 19):
        R1, R2 = rng.uniform(0.0, 1.1 * rb, (2, n))
        tracemalloc.start()
        try:
            region_members(U, U, 2, 2, 1.0, 1.0, 0.5, 5, R1, R2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_cell = (peaks[1] - peaks[0]) / (2 ** 19 - 2 ** 17)
    assert per_cell < 32, per_cell


def test_region_members_memory_does_not_grow_with_N():
    # a block's buffers are one workspace of _WORKSPACE_BYTES, and the
    # worst covered length is a running maximum over codewords, so no
    # array region_members makes has a codeword axis. Besides the mask and
    # the workspace, a call holds at most three transient arrays of 8
    # bytes a block cell at once (the block's two rate copies and its base
    # cells' indices) at any N; at m_grid 5 its tables and Python objects
    # take well under 64 KiB. The row loop's own transients (flatnonzero,
    # searchsorted) are one such array, one intp an undecided cell, and
    # the undecided cells are all that N changes, so the peaks at two N
    # differ by at most 8 bytes a block cell. Before the workspace, the
    # covered lengths of every codeword of a block made it grow by about
    # 2 MB per unit of N.
    rb = rbar_c(U, 2)
    xs = np.linspace(0.0, 1.1 * rb, 300)
    ys = np.linspace(0.0, 1.1 * rb, 301)
    assert xs.size * ys.size > 4 * _BLOCK
    peaks = {}
    for N in (2, 16):
        tracemalloc.start()
        try:
            mask = region_members(U, U, N, N, 1.0, 1.0, 0.5, 5,
                                  xs[:, None], ys[None, :])
            peaks[N] = tracemalloc.get_traced_memory()[1] - mask.nbytes
        finally:
            tracemalloc.stop()
        assert mask.any() and not mask.all()
    bound = _WORKSPACE_BYTES + 3 * 8 * _BLOCK + 2 ** 16
    assert max(peaks.values()) <= bound, (peaks, bound)
    assert abs(peaks[16] - peaks[2]) <= 8 * _BLOCK, peaks


def test_region_work_budget_is_checked_before_allocating():
    # the README cap run (MAX_CELLS cells at m_grid 40) and the benchmark
    # grid at N1 = N2 = 32 (428 x 428 cells) fit the budget
    assert _region_work(MAX_CELLS, 2, 2, 40) <= MAX_REGION_WORK
    assert _region_work(428 * 428, 32, 32, 40) <= MAX_REGION_WORK
    rb = rbar_c(U, 2)
    for N1, N2, m_grid, resolution in ((400, 400, 10, None),
                                       (10 ** 9, 1, 10, None),
                                       (2, 2, 2000, rb)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_REGION_WORK"):
                region(U, U, N1, N2, 1.0, 1.0, 0.5, m_grid, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16, (N1, N2, m_grid, peak)


def test_region_members_power_grid_nesting():
    rng = np.random.default_rng(3)
    R1 = rng.uniform(U.lam * 1.02, rbar_c(U, 2), 400)
    R2 = rng.uniform(U.lam * 1.02, rbar_c(U, 2), 400)
    m5 = region_members(U, U, 2, 2, 1.0, 1.0, 0.5, 5, R1, R2)
    m10 = region_members(U, U, 2, 2, 1.0, 1.0, 0.5, 10, R1, R2)
    assert np.all(m10[m5])  # refining the grid only adds points
    assert m10.sum() > m5.sum()


def test_region_shrinks_with_burst_count():
    rb = rbar_c(U, 2)
    pts = np.linspace(U.lam + 1e-6, rb, 24)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    masks = {N: region_members(U, U, N, N, 1.0, 1.0, 0.5, 12,
                               X.ravel(), Y.ravel())
             for N in (1, 2, 3, 4)}
    for hi, lo in ((4, 3), (3, 2), (2, 1)):
        assert np.all(masks[lo][masks[hi]])
        assert masks[hi].sum() < masks[lo].sum()


def test_region_becomes_square_for_large_offset():
    # once the offset exceeds the largest burst span in the box, the users
    # never interact and the region is exactly the open box
    rb = rbar_c(U, 2)
    cell = (rb - U.lam) / 40
    pts = np.linspace(U.lam - 5 * cell, rb + 5 * cell, 50)
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    mem = region_members(U, U, 2, 2, 1.0, 1.0, 20.0, 20, X.ravel(),
                         Y.ravel()).reshape(50, 50)
    inner = (X > U.lam + cell) & (X < rb - cell) & (Y > U.lam + cell) & (Y < rb - cell)
    outer = (X < U.lam - cell) | (X > rb + cell) | (Y < U.lam - cell) | (Y > rb + cell)
    assert mem[inner].all()
    assert not mem[outer].any()


def test_region_wrapper_shape_and_lookup():
    rb = rbar_c(U, 2)
    reg = region(U, U, 2, 2, 1.0, 1.0, 0.5, m_grid=8, resolution=(rb - U.lam) / 30)
    assert reg.mask.shape == (31, 31)
    assert reg.x0 == approx(U.lam) and reg.x1 == approx(rb)
    assert region_contains(reg, U.lam * 1.05, U.lam * 1.05)
    assert not region_contains(reg, rb * 2, rb * 2)
    with pytest.raises(ValueError):
        region(U, U, 2, 2, 1.0, 1.0, 0.5, resolution=-1.0)


def test_region_rates_must_match_shape():
    with pytest.raises(ValueError):
        region_members(U, U, 2, 2, 1.0, 1.0, 0.5, 5,
                       np.ones(3), np.ones(4))


# ------------------------------------------- axis inputs and point shapes
#
# region() passes region_members the grid's axes, xs[:, None] and
# ys[None, :], in place of their mesh; the masks must agree bit for bit.

def _axes_match_mesh(args, xs, ys):
    """region_members on the axes of xs, ys and on their mesh, checked
    equal; returns the mask and the mesh."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    got = region_members(*args, xs[:, None], ys[None, :])
    want = region_members(*args, X, Y)
    assert got.shape == want.shape == X.shape and got.dtype == np.bool_
    assert np.array_equal(got, want)
    return got, X, Y


def test_region_members_axes_match_mesh_across_blocks():
    # 3.97 blocks of raw cells: four blocks, the last one partial. The
    # first rows, 1.07 blocks of cells, sit at or below lam, so the first
    # block holds no base cell and the second starts among them; columns
    # at or below lam leave no base cell in any row either. Row counts
    # follow _BLOCK
    rb = rbar_c(U, 2)
    ys = np.linspace(0.5 * U.lam, 1.05 * rb, 500)
    below = math.ceil(1.07 * _BLOCK / ys.size)
    total = math.floor(3.97 * _BLOCK / ys.size)
    xs = np.concatenate((np.linspace(0.3 * U.lam, U.lam, below),
                         np.linspace(U.lam, 1.05 * rb, total - below + 1)[1:]))
    args = (U, U, 2, 2, 1.0, 1.0, 0.5, 12)
    got, X, Y = _axes_match_mesh(args, xs, ys)
    assert 3 * _BLOCK < X.size < 4 * _BLOCK and below * ys.size > _BLOCK
    assert np.array_equal(got, _members_full_grid(*args, X, Y))
    assert not got[:below].any() and not got[:, ys <= U.lam].any()
    assert got.any() and not got[below:].all()


def test_region_members_axes_match_mesh_at_one_burst():
    # with N = 1 a user's base test is R > 0, not R > lam: rates at 0 and
    # below drop out, rates in (0, lam] may be members
    u1 = UserParams(k=1, q=0.5, P=100.0, a=0.3)
    for N2 in (1, 2):
        rb1, rb2 = rbar_c(u1, 1), rbar_c(U, N2)
        xs = np.concatenate(([0.0], np.linspace(-0.2 * rb1, 1.1 * rb1, 90)))
        ys = np.concatenate(([0.0], np.linspace(-0.1 * rb2, 1.1 * rb2, 70)))
        args = (u1, U, 1, N2, 1.0, 0.8, 0.5, 8)
        got, X, Y = _axes_match_mesh(args, xs, ys)
        assert np.array_equal(got, _members_full_grid(*args, X, Y))
        assert not got[xs <= 0.0].any()
        assert got[(xs > 0.0) & (xs <= u1.lam)].any()
        assert not got[:, ys <= (U.lam if N2 > 1 else 0.0)].any()


def test_region_members_point_inputs_broadcast():
    # 1-d points, 0-d pairs (Python floats and 0-d arrays), and a 0-d rate
    # against a 1-d one, which broadcasts to the 1-d shape
    rng = np.random.default_rng(44)
    R1, R2 = _rates(rng, U, 2, (40,)), _rates(rng, U, 2, (40,))
    args = (U, U, 2, 2, 1.0, 1.0, 0.5, 12)
    want = _members_full_grid(*args, R1, R2)
    assert want.any() and not want.all()
    assert np.array_equal(region_members(*args, R1, R2), want)
    for i in range(R1.size):
        for r1, r2 in ((float(R1[i]), float(R2[i])),
                       (np.array(R1[i]), np.array(R2[i]))):
            got = region_members(*args, r1, r2)
            assert got.shape == () and got.dtype == np.bool_
            assert bool(got) == want[i]
    for i in (0, 7):
        col = np.full(R1.shape, R1[i])
        assert np.array_equal(region_members(*args, R1[i], R2),
                              _members_full_grid(*args, col, R2))
        assert np.array_equal(region_members(*args, R2, R1[i]),
                              _members_full_grid(*args, R2, col))


def test_region_members_rejects_rates_that_do_not_broadcast():
    for R1, R2 in ((np.ones((3, 1)), np.ones((2, 4))),
                   (np.ones((1, 3)), np.ones(4)),
                   (np.ones((2, 3)), np.ones((3, 2)))):
        with pytest.raises(ValueError):
            region_members(U, U, 2, 2, 1.0, 1.0, 0.5, 5, R1, R2)


def test_region_peak_grows_by_the_mask_alone():
    # region() hands region_members the grid's axes, and the blocks walk
    # raw cells, so the one array the size of the grid is the mask, 1 byte
    # a cell. The axes add 8 bytes a row and a column, about 0.03 bytes per
    # added cell between these grids. A block's buffers are one workspace
    # of the same size on both grids, and its transients are bounded by
    # _BLOCK cells; with the workspace this reads 1.001 bytes per added
    # cell. So the peak may grow by 1 + 1 bytes per added
    # cell. A mesh of the axes costs 16 bytes a cell, a full-grid index of
    # the base cells 8 more, and the two together read 26 here.
    rb = rbar_c(U, 2)
    peaks, cells = [], []
    for n in (2 ** 9, 2 ** 10):
        tracemalloc.start()
        try:
            reg = region(U, U, 2, 2, 1.0, 1.0, 0.5, m_grid=5,
                         resolution=(rb - U.lam) / n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        cells.append(reg.mask.size)
    per_cell = (peaks[1] - peaks[0]) / (cells[1] - cells[0])
    assert cells[0] > 4 * _BLOCK
    assert per_cell < 2.0, per_cell


# --------------------------------------------------------- symmetric model

def test_sym_omega_matches_layout_profile():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 400:
        N = int(rng.integers(1, 6))
        theta = float(rng.uniform(0.2, 2.0))
        mu = float(rng.uniform(theta * 1.01, theta * 6.0))
        alpha = float(rng.uniform(0.0, 3.5 * theta))
        lay = BurstLayout(mu, theta, 0.0, N, mu, theta, alpha, N)
        try:
            want = overlap_profile(lay)
            got = sym_omega(N, mu, theta, alpha)
        except ValueError:
            continue  # breakpoint layouts are rejected by both routes
        assert got == want
        checked += 1


def test_sym_omega_rejects_degenerate():
    with pytest.raises(ValueError):
        sym_omega(2, 0.9, 1.0, 0.5)  # bursts swallow their successors
    with pytest.raises(ValueError):
        sym_omega(2, 1.0, 1.0, 2.0)  # offset sits exactly on a breakpoint


def test_sym_curves_power_threshold_anchor():
    c = sym_curves(2, 1.0, 0.6, 0.5, 100.0, 0.5)
    assert c.gamma0 == approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
    assert 10.0 * math.log10(c.gamma0) == approx(6.84, abs=0.01)
    assert c.psi(c.gamma0) == approx(0.6358, abs=1e-3)
    # at the threshold the interfered rate is exactly half the clear rate
    assert 2.0 * c.psi(c.gamma0) == approx(c.phi(c.gamma0), abs=1e-12)


def test_sym_curves_known_roots():
    c = sym_curves(2, 1.0, 0.5, 0.5, 100.0, 0.25)
    assert c.gamma1 == approx(2.0, rel=1e-12)  # psi(2) = 0.5 at a = 0.5
    c = sym_curves(2, 1.0, 0.3, 1.0, 100.0, 0.25)
    assert c.gamma0 == approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)
    # zero offset collapses the handoff onto gamma1
    c = sym_curves(2, 1.0, 0.6, 0.5, 100.0, 0.0)
    assert c.gamma2 == c.gamma1
    # saturated interference: psi never reaches lam
    c = sym_curves(2, 1.0, 1.2, 1.0, 100.0, 0.5)
    assert math.isinf(c.gamma1)


def test_sym_curves_branch_invariant():
    for N, lam, a, P, alpha in [
        (4, 0.5722, 0.5, 10 ** 0.3617, 0.5),
        (4, 0.7629, 0.5, 10.0, 0.5),
        (2, 0.6, 0.5, 100.0, 0.5),
        (3, 0.4, 0.3, 50.0, 0.9),
    ]:
        c = sym_curves(N, 1.0, lam, a, P, alpha)
        assert c.branch_low == (c.gamma1 < c.gamma2)


def test_sym_curves_interval_consistent_with_gap():
    # wherever f and g say the interval is nonempty, g must exceed f, and
    # the interval must be empty before the branch's opening power
    c = sym_curves(4, 1.0, 0.5722, 0.5, 10 ** 0.3617, 0.5)
    assert c.branch_low
    for gamma in np.linspace(0.1, 8.0, 200):
        f, g = c.f(gamma), c.g(gamma)
        if gamma <= c.gamma1:
            assert f == 0.0 and g == 0.0
        else:
            assert g > f > 0.0


def test_sym_curves_gamma0_at_extreme_cross_gain():
    # gamma0 = (1 + sqrt(1 + 4a^2)) / (2a^2) stays finite for huge a ...
    c = sym_curves(2, 1.0, 0.6, 1e200, 100.0, 0.5)
    assert c.gamma0 == approx(1e-200, rel=1e-12)
    assert not c.branch_low
    # ... and near overflow psi(gamma0) approaches log2(1/a)/2, the value
    # branch_low compares once gamma0 itself is past float range
    c = sym_curves(2, 1.0, 0.6, 1e-150, 100.0, 0.5)
    assert c.psi(c.gamma0) == approx(-0.5 * math.log2(1e-150), rel=1e-12)
    for a in (1e-200, 5e-324):
        assert math.isinf(sym_curves(2, 1.0, 0.6, a, 100.0, 0.5).gamma0)
    assert sym_curves(2, 1.0, 0.6, 1e-200, 100.0, 0.5).branch_low
    assert not sym_curves(2, 1.0, 400.0, 1e-200, 100.0, 0.0).branch_low


def test_sym_curves_rejects_large_offset():
    with pytest.raises(ValueError):
        sym_curves(2, 1.0, 0.6, 0.5, 100.0, 1.0)
    with pytest.raises(ValueError):
        sym_curves(2, 1.0, 0.6, 0.5, 100.0, 1.5)


def test_sym_region_single_burst():
    # one burst per frame never waits for a successor, so rates start at 0;
    # with a large offset the users are independent and the cap is the
    # fixed point of the power-limited clear rate
    iv = sym_region(1, 1.0, 0.6, 0.5, 100.0, 5.0)
    assert len(iv.intervals) == 1
    lo, hi = iv.intervals[0]
    assert lo == 0.0
    assert hi == approx(4.924058227507308, rel=1e-9)
    # small offset: interference caps the rate below that
    iv2 = sym_region(1, 1.0, 0.6, 0.5, 100.0, 0.5)
    (lo2, hi2), = iv2.intervals
    assert lo2 == 0.0
    assert hi2 == approx(2.6683697104935176, rel=1e-6)
    assert hi2 < hi


def test_sym_region_low_branch_window():
    iv = sym_region(4, 1.0, 0.5722, 0.5, 10 ** 0.3617, 0.5)
    (lo, hi), = iv.intervals
    assert lo == approx(0.7379119, abs=1e-5)
    assert hi == approx(0.9043227, abs=1e-5)
    assert lo > 0.5722  # strictly above the arrival rate


def test_sym_region_high_branch_window():
    iv = sym_region(4, 1.0, 0.7629, 0.5, 10.0, 0.5)
    (lo, hi), = iv.intervals
    assert lo == approx(0.8268352, abs=1e-5)
    assert hi == approx(1.5116185, abs=1e-5)


def test_sym_region_agrees_with_perturbation_route():
    # closed-form curves vs direct per-power constraint sweeps
    for N, lam, a, P, alpha in [
        (4, 0.5722, 0.5, 10 ** 0.3617, 0.5),
        (4, 0.7629, 0.5, 10.0, 0.5),
        (2, 0.6, 0.5, 1000.0, 0.5),
        (3, 0.45, 0.4, 60.0, 0.8),
    ]:
        got = sym_region(N, 1.0, lam, a, P, alpha)
        ref = _sym_pert_region(N, 1.0, lam, a, P, alpha)
        assert len(got.intervals) == len(ref.intervals)
        for (a0, b0), (a1, b1) in zip(got.intervals, ref.intervals):
            assert a0 == approx(a1, rel=1e-6, abs=1e-9)
            assert b0 == approx(b1, rel=1e-6, abs=1e-9)


def test_sym_region_disconnects_at_moderate_offset():
    iv = sym_region(2, 1.0, 0.6, 0.5, 100.0, 5.0)
    assert len(iv.intervals) == 2
    (a0, b0), (a1, b1) = iv.intervals
    assert a0 == approx(0.6, abs=1e-9)
    assert b0 == approx(2.6911, abs=1e-3)
    assert a1 == approx(3.4083, abs=1e-3)
    assert b1 == approx(4.8774, abs=1e-3)


def test_sym_region_aligned_bursts():
    iv = sym_region(2, 1.0, 0.6, 0.5, 100.0, 0.0)
    (lo, hi), = iv.intervals
    assert lo == approx(0.6, abs=1e-9)
    assert hi == approx(0.7872017, abs=1e-5)


def test_sym_region_power_rich_cap():
    # with power to spare the interval runs from lam up to the crossing of
    # the offset-stub cap with the power line
    N, lam, a, P, alpha = 2, 0.6, 0.5, 1000.0, 0.5
    iv = sym_region(N, 1.0, lam, a, P, alpha)
    (lo, hi), = iv.intervals
    assert lo == approx(lam, abs=1e-9)
    c = sym_curves(N, 1.0, lam, a, P, alpha)
    gx = brentq(lambda g: c.clear_cap(g) - c.power_line(g), 1.0, 1e5, xtol=1e-10)
    cap = c.power_line(gx)
    # the sweep approaches the crossing from below at the grid step
    assert hi <= cap + 1e-9
    assert hi == approx(cap, abs=5e-3)
    assert sym_region(N, 1.0, lam, a, P, alpha, n_gamma=1 << 15).intervals[0][1] \
        == approx(cap, abs=2e-4)
    assert hi == approx(3.5587510, abs=1e-5)


def test_sym_region_matches_region_diagonal():
    # the symmetric interval must be the diagonal slice of the 2-d region,
    # up to one rate cell at the interval edges
    for alpha, N, lam_scale in [(0.0, 2, 1.0), (5.0, 2, 1.0), (0.5, 4, 1.0)]:
        u = U
        rb = rbar_c(u, N)
        cell = (rb - u.lam) / 400
        Rs = np.linspace(u.lam + cell / 2, rb - cell / 2, 400)
        mem = region_members(u, u, N, N, 1.0, 1.0, alpha, 80, Rs, Rs)
        sym = sym_region(N, 1.0, u.lam, u.a, u.P, alpha)
        want = contains_many(sym, Rs)
        mismatch = np.flatnonzero(mem != want)
        edges = [b for iv in sym.intervals for b in iv]
        for i in mismatch:
            assert min(abs(Rs[i] - b) for b in edges) < cell


# ------------------------------------------------- root finder vs brentq
#
# The package solves its scalar root problems with model.find_root. The
# oracle doubles hi from the same start while the sign has not changed,
# then calls scipy's brentq at xtol 1e-10. region_points.csv prints the box
# edges at full precision, so the roots must agree bit for bit, not just
# within tolerance.

def _brentq_doubling(short, hi, grow_while_negative):
    while (short(hi) < 0) if grow_while_negative else (short(hi) > 0):
        hi *= 2.0
    return brentq(short, 0.0, hi, xtol=1e-10)


def test_root_problems_match_brentq_exactly():
    rng = np.random.default_rng(2024)
    overflowed = 0
    for _ in range(300):
        lam = 10 ** rng.uniform(-2, 1.5)
        P = 10 ** rng.uniform(-3, 5)
        theta = 10 ** rng.uniform(-2, 1.5)
        a = 0.0 if rng.random() < 0.2 else 10 ** rng.uniform(-3, 2)
        alpha = rng.uniform(0.0, theta)
        N = int(rng.integers(1, 8))

        # rate cap rbar_c: R = C((1/N + R/lam) P)
        u = UserParams(k=int(rng.integers(1, 9)), q=rng.uniform(0.01, 1.0),
                       P=P, a=a)
        want = _brentq_doubling(
            lambda R: R - capacity_c((1.0 / N + R / u.lam) * u.P), 64.0, True)
        assert rbar_c(u, N) == want

        def psi(g):
            return capacity_c(g / (1.0 + a * g))

        # sym_curves' gamma2: the overlap-free cap meets (1 + alpha/theta) lam
        def cap_short(g):
            return psi(g) + alpha / theta * (capacity_c(g) - psi(g)) \
                - (1.0 + alpha / theta) * lam

        try:
            want = _brentq_doubling(cap_short, 1.0, True)
        except ValueError:  # f(inf) is NaN: no root below overflow
            overflowed += 1
            with pytest.raises(ValueError, match="before overflow"):
                sym_curves(max(N, 2), theta, lam, a, P, alpha)
        else:
            assert sym_curves(max(N, 2), theta, lam, a, P, alpha).gamma2 == want

        # sym_region at N = 1: the same cap meets the power line
        def line_short(g):
            return psi(g) + alpha / theta * (capacity_c(g) - psi(g)) \
                - (g / P - 1.0) * lam

        gstar = _brentq_doubling(line_short, 2.0 * P, False)
        (lo, hi), = sym_region(1, theta, lam, a, P, alpha).intervals
        assert (lo, hi) == (0.0, (gstar / P - 1.0) * lam)
    assert overflowed < 30  # the comparison must mostly be of real roots


def test_sym_curves_bracket_overflow_is_value_error():
    # the overlap-free cap saturates below (1 + alpha/theta) lam, so no
    # finite power reaches it
    with pytest.raises(ValueError, match="no sign change .* before overflow"):
        sym_curves(2, 2.4737, 1.9023, 1.4283, 3.2709, 0.0038)


@pytest.mark.parametrize("bad", ["theta", "lam", "a", "P", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sym_args_must_be_finite(bad, value):
    args = dict(theta=1.0, lam=0.6, a=0.5, P=100.0, alpha=0.5)
    args[bad] = value
    for N in (1, 2):
        with pytest.raises(ValueError, match="finite"):
            sym_region(N, **args)


def test_sym_curves_huge_rate_needs_infinite_power():
    # 2**(2*lam) overflows: psi = lam is out of reach, so gamma1 = +inf
    # and the handoff power has no finite root either
    with pytest.raises(ValueError, match="before overflow"):
        sym_curves(2, 1.0, 1e300, 0.5, 100.0, 0.5)
    assert math.isinf(sym_curves(2, 1.0, 1e300, 0.5, 100.0, 0.0).gamma1)
