import math
import random
import types

import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from burstgic.model import (
    InfeasibleRateError,
    RatePair,
    SchemeV,
    UserParams,
    capacity_c,
    derive_scheme_v,
    find_root,
    rate_pair,
)

from oracles import limit_power_rate


def test_capacity_anchors():
    assert capacity_c(0.0) == 0.0
    assert capacity_c(3.0) == pytest.approx(1.0)
    assert capacity_c(1.0) == pytest.approx(0.5)


def test_capacity_rejects_negative():
    with pytest.raises(ValueError):
        capacity_c(-0.1)


@given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=1e-6, max_value=10.0))
def test_capacity_strictly_increasing(x, dx):
    assert capacity_c(x + dx) > capacity_c(x)


def test_find_root_expands_bracket():
    def f(x):
        return x - 1000.0

    assert find_root(f, 0.0, 1.0) == brentq(f, 0.0, 1024.0, xtol=1e-10)
    assert find_root(f, 0.0, 1000.0) == 1000.0  # exact root at a bracket end
    with pytest.raises(ValueError, match="before overflow"):
        find_root(lambda x: -1.0, 0.0, 1.0)


def test_find_root_zero_denominator_bisects_like_brentq():
    # at this scale the inverse-quadratic denominator underflows to 0; C's
    # brentq divides to inf or NaN there and bisects, and so must find_root
    rng = random.Random(5)
    for _ in range(50):
        r, c = rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0)

        def f(x):
            return 1e-120 * ((x - r) ** 3 + c * (x - r))

        assert find_root(f, 0.0, 1.0) == brentq(f, 0.0, 1.0, xtol=1e-10)


def test_rate_pair_no_interference_collapses():
    rp = rate_pair(1.0, 7.3, 0.0)
    assert rp.phi == pytest.approx(0.5)
    assert rp.psi == pytest.approx(0.5)


def test_rate_pair_known_point():
    g = 2.0 + 2.0 * math.sqrt(2.0)
    rp = rate_pair(g, g, 0.5)
    assert rp.psi == pytest.approx(0.6358, abs=1e-4)
    # at this power the interfered rate is exactly half the clear rate
    assert 2.0 * rp.psi == pytest.approx(rp.phi, abs=1e-12)


def test_rate_pair_zero_other_power():
    rp = rate_pair(3.0, 0.0, 0.7)
    assert rp.phi == pytest.approx(1.0)
    assert rp.psi == pytest.approx(1.0)


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_rate_pair_ordering(go, gi, a):
    rp = rate_pair(go, gi, a)
    assert 0.0 <= rp.psi <= rp.phi


def test_rate_pair_invariant_enforced():
    with pytest.raises(ValueError):
        RatePair(phi=0.4, psi=0.5)


def test_user_params_validation():
    with pytest.raises(ValueError):
        UserParams(k=0, q=0.5, P=1.0, a=0.0)
    with pytest.raises(ValueError):
        UserParams(k=2, q=0.0, P=1.0, a=0.0)
    with pytest.raises(ValueError):
        UserParams(k=2, q=1.1, P=1.0, a=0.0)
    with pytest.raises(ValueError):
        UserParams(k=2, q=0.5, P=-1.0, a=0.0)
    for P, a in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf),
                 (1.0, math.nan)):
        with pytest.raises(ValueError):
            UserParams(k=2, q=0.5, P=P, a=a)
    # boundary q = 1 stays constructible for deterministic arrivals
    assert UserParams(k=1, q=1.0, P=1.0, a=0.0).lam == 1.0


def test_derive_scheme_single_codeword():
    u = UserParams(k=3, q=0.3, P=30.0, a=0.5)
    s = derive_scheme_v(u, N=1, R=0.45)
    assert s.theta == pytest.approx(10.0 / 3.0)
    assert s.gamma == pytest.approx(2.0 * u.P)
    assert s.mu == pytest.approx(10.0 / 3.0)
    assert s.eta == pytest.approx(3.0)


def test_derive_scheme_second_example():
    u = UserParams(k=2, q=0.4, P=12.0, a=0.7)
    s = derive_scheme_v(u, N=1, R=0.4)
    assert s.theta == pytest.approx(2.5)
    assert s.gamma == pytest.approx(2.0 * u.P)


def test_derive_scheme_two_codewords():
    u = UserParams(k=2, q=0.3, P=10.0, a=0.5)
    s = derive_scheme_v(u, N=2, R=0.42)
    assert s.mu == pytest.approx(1.0 / 0.6)
    assert s.theta == pytest.approx((0.6 / 0.42 - 1.0) / 0.3)
    assert s.mu > s.theta


def test_derive_scheme_rejects_out_of_window():
    u = UserParams(k=2, q=0.3, P=10.0, a=0.5)
    with pytest.raises(InfeasibleRateError):
        derive_scheme_v(u, N=1, R=0.6)  # R = lam
    with pytest.raises(InfeasibleRateError):
        derive_scheme_v(u, N=1, R=0.0)
    with pytest.raises(InfeasibleRateError):
        derive_scheme_v(u, N=2, R=0.39)  # below lam*N/(N+1) = 0.4


def test_limit_power_rate_round_trip():
    u = UserParams(k=3, q=0.3, P=30.0, a=0.5)
    for N, R in [(1, 0.45), (1, 0.2), (2, 0.7), (3, 0.85)]:
        s = derive_scheme_v(u, N=N, R=R)
        Q, Rlim = limit_power_rate(s, u)
        assert Q == pytest.approx(u.P, rel=1e-12)
        assert Rlim == pytest.approx(R, rel=1e-12)


def test_limit_power_rate_explicit_scheme():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    s = types.SimpleNamespace(N=1, theta=1.0, gamma=2.0)
    Q, R = limit_power_rate(s, u)
    assert Q == pytest.approx(1.0)
    assert R == pytest.approx(u.lam / 2.0)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_round_trip_property(k, q, N, frac):
    u = UserParams(k=k, q=q, P=7.0, a=0.3)
    lo = u.lam * N / (N + 1.0) if N > 1 else 0.0
    R = lo + frac * (u.lam - lo)
    if not (lo < R < u.lam):  # frac at float edges can land on a bound
        return
    s = derive_scheme_v(u, N=N, R=R)
    Q, Rlim = limit_power_rate(s, u)
    assert Q == pytest.approx(u.P, rel=1e-9)
    assert Rlim == pytest.approx(R, rel=1e-9)


def test_stability_threshold():
    # N=2, q=0.3 gives mu = 1/(N q) = 1.666...; compare against theta
    u = UserParams(k=2, q=0.3, P=10.0, a=0.5)
    slow = SchemeV(user=u, N=2, R=0.6 / 1.6)  # theta = 2
    assert slow.theta == pytest.approx(2.0)
    assert not slow.mu > slow.theta
    fast = SchemeV(user=u, N=2, R=0.6 / 1.45)  # theta = 1.5
    assert fast.theta == pytest.approx(1.5)
    assert fast.mu > fast.theta
