import math

import numpy as np
import pytest

from burstgic.geometry import alpha_breakpoints

from oracles import (
    BurstLayout,
    ChannelStateS,
    DegenerateLayoutError,
    OverlapTriple,
    enumerate_states,
    mild_check,
    overlap_profile,
    state_of,
    triples_from_state,
)


def _layout(mu1, th1, nu1, N1, mu2, th2, nu2, N2):
    return BurstLayout(
        mu1=mu1, theta1=th1, nu1=nu1, N1=N1,
        mu2=mu2, theta2=th2, nu2=nu2, N2=N2,
    )


# a three-vs-five burst arrangement exhibiting the three canonical overlap
# patterns: both ends covered by different bursts / one fully inside /
# right end covered plus one inside
FIG8 = _layout(3.0, 2.3, 0.0, 3, 2.05, 0.5, 0.9, 5)


def test_layout_translation_equivariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.uniform(-10, 10)
        base = _layout(1.0, 0.4, 0.0, 2, 0.7, 0.3, 0.05, 3)
        shifted = _layout(1.0, 0.4, 0.0 + c, 2, 0.7, 0.3, 0.05 + c, 3)
        for user in (1, 2):
            for j in range(1, base.params(user)[3] + 1):
                lo, hi = base.burst(user, j)
                slo, shi = shifted.burst(user, j)
                assert slo == pytest.approx(lo + c)
                assert shi == pytest.approx(hi + c)


def test_layout_rejects_self_overlap():
    with pytest.raises(ValueError):
        _layout(0.3, 0.4, 0.0, 2, 1.0, 0.5, 0.0, 1)


def test_overlap_three_vs_five():
    prof = overlap_profile(FIG8)
    assert prof[(1, 1)] == OverlapTriple(1, 2, 0)
    assert prof[(1, 2)] == OverlapTriple(0, 0, 1)
    assert prof[(1, 3)] == OverlapTriple(0, 5, 1)


def test_overlap_left_end_only():
    # interferer burst 1 = (0.75, 1.05) covers the left end of (1, 1.4);
    # burst 2 = (1.45, 1.75) misses the right end
    l = _layout(1.0, 0.4, 0.0, 1, 0.7, 0.3, 0.05, 2)
    prof = overlap_profile(l)
    assert prof[(1, 1)] == OverlapTriple(1, 0, 0)


def test_overlap_disjoint_supports():
    l = _layout(1.0, 0.4, 0.0, 2, 0.7, 0.3, 100.0, 3)
    prof = overlap_profile(l)
    assert all(t == OverlapTriple(0, 0, 0) for t in prof.values())


def test_overlap_rejects_coincident_endpoints():
    # burst 1 of user 2 starts exactly at user 1's first codeword start
    l = _layout(1.0, 0.4, 0.0, 1, 0.7, 0.3, 0.3, 1)
    with pytest.raises(DegenerateLayoutError):
        overlap_profile(l)


def test_state_three_vs_four():
    # endpoints interleave one tx-2 burst per tx-1 gap, last burst past the end
    l = _layout(2.0, 1.0, 0.0, 3, 1.9, 0.8, -0.1, 4)
    assert state_of(l).pairs == ((1, 2), (3, 4), (5, 6), (7, 7))


def test_state_one_vs_two():
    l = _layout(2.0, 2.0, 0.0, 1, 2.0, 1.0, -0.5, 2)
    assert state_of(l).pairs == ((1, 2), (2, 3))


def test_state_far_right():
    l = _layout(2.0, 1.0, 0.0, 3, 1.9, 0.8, 1000.0, 2)
    assert state_of(l).pairs == ((7, 7), (7, 7))


def test_state_translation_invariant():
    for c in (-3.7, 0.0, 12.25):
        l = _layout(2.0, 1.0, c, 3, 1.9, 0.8, -0.1 + c, 4)
        assert state_of(l).pairs == ((1, 2), (3, 4), (5, 6), (7, 7))


def test_state_serialization_round_trip():
    s = ChannelStateS.from_flat([1, 2, 3, 4])
    assert s.pairs == ((1, 2), (3, 4))
    assert s.flat == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        ChannelStateS.from_flat([2, 1])


def test_enumerate_counts():
    assert len(enumerate_states(1, 1)) == 6
    assert len(enumerate_states(2, 2)) == 70
    assert len(enumerate_states(3, 5)) == 8008


def test_enumerate_matches_binomial():
    for N1 in range(1, 5):
        for N2 in range(1, 5):
            got = enumerate_states(N1, N2)
            assert len(got) == math.comb(2 * N1 + 2 * N2, 2 * N2)
            assert len(set(s.flat for s in got)) == len(got)


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_states(40, 40)


class _Sch:
    """Bare (mu, theta, N) bundle for sweep helpers."""

    def __init__(self, mu, theta, N):
        self.mu, self.theta, self.N = mu, theta, N


def test_breakpoints_simple():
    s = _Sch(1.0, 0.5, 1)
    assert alpha_breakpoints((s, s)) == pytest.approx([-0.5, 0.0, 0.5])


def test_breakpoints_count_bound():
    s1, s2 = _Sch(1.0, 0.3, 3), _Sch(0.7, 0.25, 4)
    assert len(alpha_breakpoints((s1, s2))) <= 4 * 3 * 4


def test_state_changes_exactly_at_breakpoints():
    s1, s2 = _Sch(1.0, 0.3, 2), _Sch(0.7, 0.25, 2)
    bps = alpha_breakpoints((s1, s2))
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]

    def st(alpha):
        l = _layout(s1.mu, s1.theta, 0.0, s1.N, s2.mu, s2.theta, alpha, s2.N)
        return state_of(l).pairs

    # constant inside each interval
    for a, b in zip(bps, bps[1:]):
        assert st(a + (b - a) / 3) == st(b - (b - a) / 3)
    # different across every breakpoint
    for m1, m2 in zip(mids, mids[1:]):
        assert st(m1) != st(m2)
    assert st(bps[0] - 0.1) != st(mids[0])
    assert st(mids[-1]) != st(bps[-1] + 0.1)


def test_sweep_states_are_enumerated():
    s1, s2 = _Sch(3.0, 2.3, 3), _Sch(2.05, 0.5, 5)
    allowed = {s.flat for s in enumerate_states(3, 5)}
    bps = alpha_breakpoints((s1, s2))
    for alpha in np.linspace(bps[0] - 1.0, bps[-1] + 1.0, 801):
        if not mild_check((s1, s2), 0.0, alpha, 1e-9):
            continue
        l = _layout(3.0, 2.3, 0.0, 3, 2.05, 0.5, alpha, 5)
        assert state_of(l).flat in allowed


def test_mild_check_on_and_off_breakpoints():
    s = _Sch(1.0, 0.5, 1)
    assert not mild_check((s, s), 0.0, 0.5, 1e-9)
    assert mild_check((s, s), 0.0, 0.25, 1e-9)
    with pytest.raises(ValueError):
        mild_check((s, s), 0.0, 0.25, -1.0)


def test_mild_check_random_offsets_pass():
    s1, s2 = _Sch(1.0, 0.3, 3), _Sch(0.7, 0.25, 4)
    rng = np.random.default_rng(123)
    hits = sum(
        mild_check((s1, s2), rng.uniform(-5, 5), rng.uniform(-5, 5), 1e-12)
        for _ in range(10_000)
    )
    assert hits == 10_000


def test_state_and_profile_agree():
    # the combinatorial reconstruction from the state must match the
    # direct interval computation, whatever the layout
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 400:
        N1, N2 = rng.integers(1, 5), rng.integers(1, 5)
        mu1, mu2 = rng.uniform(0.5, 3.0, size=2)
        th1 = mu1 * rng.uniform(0.1, 0.95)
        th2 = mu2 * rng.uniform(0.1, 0.95)
        nu1, nu2 = rng.uniform(-4.0, 4.0, size=2)
        l = _layout(mu1, th1, nu1, int(N1), mu2, th2, nu2, int(N2))
        try:
            prof = overlap_profile(l)
            S = state_of(l)
        except DegenerateLayoutError:
            continue
        assert triples_from_state(S, int(N1), int(N2)) == prof
        checked += 1
