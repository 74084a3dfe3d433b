import numpy as np
import pytest

from burstgic.model import rate_pair
from burstgic.reliability import covered_lengths

from oracles import (
    BurstLayout,
    DegenerateLayoutError,
    OverlapTriple,
    closed_form_bound,
    covered_lengths_loop,
    layout_bound,
    overlap_profile,
    rate_decomp,
)


class _Sch:
    def __init__(self, mu, theta, N):
        self.mu, self.theta, self.N = mu, theta, N


def _layout(s1, nu1, s2, nu2):
    return BurstLayout(
        mu1=s1.mu, theta1=s1.theta, nu1=nu1, N1=s1.N,
        mu2=s2.mu, theta2=s2.theta, nu2=nu2, N2=s2.N,
    )


RP = rate_pair(5.0, 3.0, 0.5)


def test_no_overlap_gives_clear_bound():
    s1, s2 = _Sch(1.0, 0.4, 2), _Sch(0.7, 0.3, 2)
    l = _layout(s1, 0.0, s2, 50.0)
    for j in (1, 2):
        assert layout_bound(l, 1, j, RP) == pytest.approx(0.4 * RP.phi)


def test_full_containment_gives_interfered_bound():
    # user 1's short codeword sits strictly inside user 2's long burst
    s1, s2 = _Sch(5.0, 0.5, 1), _Sch(5.0, 3.0, 1)
    l = _layout(s1, 0.0, s2, -1.0)  # cw (5, 5.5) inside burst (4, 7)
    assert layout_bound(l, 1, 1, RP) == pytest.approx(0.5 * RP.psi)


def test_decomp_sums_to_theta():
    s1, s2 = _Sch(3.0, 2.3, 3), _Sch(2.05, 0.5, 5)
    l = _layout(s1, 0.0, s2, 0.9)
    for j in (1, 2, 3):
        d = rate_decomp(l, 1, j)
        assert d.len_clear + d.len_interf == pytest.approx(2.3, abs=1e-12)


def test_index_out_of_range():
    s1, s2 = _Sch(1.0, 0.4, 2), _Sch(0.7, 0.3, 2)
    l = _layout(s1, 0.0, s2, 50.0)
    with pytest.raises(IndexError):
        layout_bound(l, 1, 3, RP)


def test_one_vs_two_overlapped_codeword():
    # single long tx-1 burst (2, 4); tx-2 codeword 2 = (3.5, 4.5) has its
    # left half interfered, so the bound lands midway between psi and phi
    s1, s2 = _Sch(2.0, 2.0, 1), _Sch(2.0, 1.0, 2)
    l = _layout(s1, 0.0, s2, -0.5)
    got = layout_bound(l, 2, 2, RP)
    assert got == pytest.approx(0.5 * (RP.phi + RP.psi))
    trip = overlap_profile(l)[(2, 2)]
    assert trip == OverlapTriple(1, 0, 0)
    cf = closed_form_bound(trip, (s1, s2), 0.0, -0.5, 2, 2, RP)
    assert cf == pytest.approx(got, abs=1e-12)


def test_closed_form_matches_geometry_all_cases():
    rng = np.random.default_rng(2024)
    seen = {"none": 0, "contain": 0, "both": 0, "left": 0, "right": 0}
    trials = 0
    while trials < 1500:
        N1, N2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        mu1, mu2 = rng.uniform(0.5, 3.0, size=2)
        s1 = _Sch(mu1, mu1 * rng.uniform(0.1, 0.95), N1)
        s2 = _Sch(mu2, mu2 * rng.uniform(0.1, 0.95), N2)
        nu1, nu2 = rng.uniform(-4.0, 4.0, size=2)
        l = _layout(s1, nu1, s2, nu2)
        try:
            prof = overlap_profile(l)
        except DegenerateLayoutError:
            continue
        rp = rate_pair(rng.uniform(0.5, 20), rng.uniform(0.0, 20), rng.uniform(0.1, 2))
        for (user, j), trip in prof.items():
            want = layout_bound(l, user, j, rp)
            got = closed_form_bound(trip, (s1, s2), nu1, nu2, user, j, rp)
            assert got == pytest.approx(want, abs=1e-9)
            if trip.w_minus == 0 and trip.w_plus == 0:
                seen["none"] += 1
            elif trip.w_minus == trip.w_plus:
                seen["contain"] += 1
            elif trip.w_minus and trip.w_plus:
                seen["both"] += 1
            elif trip.w_minus:
                seen["left"] += 1
            else:
                seen["right"] += 1
            trials += 1
    assert all(v > 0 for v in seen.values()), seen


def test_bound_between_extremes():
    rng = np.random.default_rng(5)
    for _ in range(300):
        mu1, mu2 = rng.uniform(0.5, 3.0, size=2)
        s1 = _Sch(mu1, mu1 * rng.uniform(0.1, 0.95), int(rng.integers(1, 4)))
        s2 = _Sch(mu2, mu2 * rng.uniform(0.1, 0.95), int(rng.integers(1, 4)))
        l = _layout(s1, rng.uniform(-4, 4), s2, rng.uniform(-4, 4))
        try:
            prof = overlap_profile(l)
        except DegenerateLayoutError:
            continue
        for (user, j) in prof:
            b = layout_bound(l, user, j, RP)
            theta = s1.theta if user == 1 else s2.theta
            assert theta * RP.psi - 1e-12 <= b <= theta * RP.phi + 1e-12


def test_bound_monotone_in_interferer_length():
    s1 = _Sch(3.0, 1.0, 2)
    prev = None
    for th2 in np.linspace(0.05, 1.9, 40):
        s2 = _Sch(2.0, float(th2), 2)
        l = _layout(s1, 0.0, s2, 0.31)
        try:
            b = layout_bound(l, 1, 1, RP)
        except DegenerateLayoutError:
            continue
        if prev is not None:
            assert b <= prev + 1e-12
        prev = b


def test_zero_cross_gain_means_clear_everywhere():
    rp0 = rate_pair(5.0, 3.0, 0.0)
    s1, s2 = _Sch(5.0, 0.5, 1), _Sch(5.0, 3.0, 1)
    l = _layout(s1, 0.0, s2, -1.0)  # full containment
    assert layout_bound(l, 1, 1, rp0) == pytest.approx(0.5 * rp0.phi)


def test_inconsistent_triples_rejected():
    s1, s2 = _Sch(1.0, 0.4, 3), _Sch(0.7, 0.3, 3)
    with pytest.raises(ValueError):
        closed_form_bound(OverlapTriple(1, 3, 0), (s1, s2), 0.0, 0.0, 1, 1, RP)
    with pytest.raises(ValueError):
        closed_form_bound(OverlapTriple(2, 2, 1), (s1, s2), 0.0, 0.0, 1, 1, RP)


def test_covered_lengths_match_rate_decomp_exactly():
    # the vectorized kernel accumulates overlaps in rate_decomp's order, so
    # every entry must equal the geometric route bit for bit
    rng = np.random.default_rng(4)
    for _ in range(50):
        N1, N2 = (int(n) for n in rng.integers(1, 5, 2))
        th1, th2 = rng.uniform(0.2, 1.5, 2)
        mu1 = rng.uniform(th1 * 1.01, th1 * 4, 6)
        mu2 = rng.uniform(th2 * 1.01, th2 * 4, 6)
        nu1, nu2 = rng.uniform(-3.0, 3.0, (2, 6))
        cov1, cov2 = covered_lengths(mu1, th1, nu1, N1, mu2, th2, nu2, N2)
        assert cov1.shape == (6, N1) and cov2.shape == (6, N2)
        for i in range(6):
            l = BurstLayout(mu1[i], th1, nu1[i], N1, mu2[i], th2, nu2[i], N2)
            assert cov1[i].tolist() == [rate_decomp(l, 1, j).len_interf
                                        for j in range(1, N1 + 1)]
            assert cov2[i].tolist() == [rate_decomp(l, 2, j).len_interf
                                        for j in range(1, N2 + 1)]


def test_covered_lengths_broadcast_scalars():
    # scalar offsets against a grid of burst spacings
    mu = np.array([[2.0, 3.0], [4.0, 5.0]])
    cov1, cov2 = covered_lengths(mu, 1.0, 0.0, 2, 2.0, 1.0, 0.5, 3)
    assert cov1.shape == (2, 2, 2) and cov2.shape == (2, 2, 3)
    # identical spacing shifted by half a burst: every codeword but the
    # second user's last one overlaps exactly half its length
    assert cov1[0, 0].tolist() == [0.5, 0.5]
    assert cov2[0, 0].tolist() == [0.5, 0.5, 0.0]



def _same_bits(got, want):
    """Equal shapes and values, NaN where NaN, and the same sign of zero."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_covered_lengths_match_loop_oracle_bit_for_bit():
    # random layouts hold overlaps of every kind; in touching ones a burst
    # of one user ends exactly where one of the other starts (an overlap
    # of exactly 0.0), and in disjoint ones every overlap is negative
    # before clipping. Shapes broadcast as region does (one mu per cell,
    # scalar nu) and as design does (scalar mu, one nu per offset)
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(30):
        N1, N2 = (int(n) for n in rng.integers(1, 6, 2))
        th1, th2 = (float(t) for t in rng.uniform(0.2, 1.5, 2))
        mu1 = rng.uniform(th1, 4.0 * th1, (5, 3))
        mu2 = rng.uniform(th2, 4.0 * th2, (5, 3))
        cases.append((mu1, th1, 0.0, N1, mu2, th2, rng.uniform(-3.0, 3.0), N2))
        cases.append((float(mu1[0, 0]), th1, rng.uniform(-3.0, 3.0, 7), N1,
                      float(mu2[0, 0]), th2, rng.uniform(-3.0, 3.0, 7), N2))
    mu = np.array([1.5, 2.0, 3.25, 7.0])
    for N1, N2 in ((1, 1), (2, 3), (4, 2)):
        for nu2 in (1.0, -0.75, 100.0, -100.0):  # touching, then disjoint
            cases.append((mu, 1.0, 0.0, N1, mu, 0.75, nu2, N2))
    zeros = 0
    for case in cases:
        got = covered_lengths(*case)
        want = covered_lengths_loop(*case)
        assert all(_same_bits(g, w) for g, w in zip(got, want)), case
        zeros += int((want[0] == 0.0).sum())
    assert zeros > 100


def test_covered_lengths_negative_zero_overlap_sums_to_positive_zero():
    # user 1's burst [-0.0, -0.0] meets user 2's [0.0, 1.0], so the raw
    # overlap min(-0.0, 1.0) - max(-0.0, 0.0) is -0.0; clipped by numpy's
    # maximum (which returns its second argument on a tie) and added to
    # the starting 0.0, it must come out +0.0 on both routes
    a = np.array([-0.0])
    over = np.minimum(a, 1.0) - np.maximum(a, 0.0)
    assert over[0] == 0.0 and np.signbit(over[0])
    case = (a, -0.0, -0.0, 2, np.array([0.0]), 1.0, 0.0, 2)
    got, want = covered_lengths(*case), covered_lengths_loop(*case)
    for g, w in zip(got, want):
        assert _same_bits(g, w)
        assert g.tolist() == [[0.0, 0.0]] and not np.signbit(g).any()
