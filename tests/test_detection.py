import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx
from hypothesis import given, settings
from hypothesis import strategies as st

from burstgic import detection
from burstgic.detection import (
    BAND_SLACK,
    DECODE_AMBIGUOUS,
    DECODE_NONE,
    MAX_POWER,
    MAX_TRACE,
    M_CAP,
    DetectionConfig,
    GaussianCodebook,
    PDF_IDS,
    RxTrace,
    SentWordCodebook,
    TypicalityParams,
    channel_run,
    codeword_segments,
    decode_codeword,
    detection_experiment,
    deviations_from_sums,
    eps_guard,
    estimate_arrivals,
    rx_params,
    typicality_deviations,
    typicality_test,
    _energy_band,
    _typical_from_sums,
    _window_sums,
)
from oracles import estimate_arrivals_full, scan_densities

LOG2E = math.log2(math.e)
GAMMA = 100.0  # 20 dB


# ---------------------------------------------------------------------------
# typicality tests

def test_accepts_true_density():
    tp = TypicalityParams(0.1, "p1", GAMMA, GAMMA, 0.5)
    rng = np.random.default_rng(1)
    m, trials = 4000, 1000
    hits = 0
    for _ in range(trials):
        xs = math.sqrt(GAMMA) * rng.standard_normal(m)
        ys = xs + rng.standard_normal(m)
        hits += typicality_test(xs, ys, tp)
    assert hits / trials >= 0.99


def test_zero_sequence_rejected_analytically():
    # an all-zero x sits exactly 0.5*log2(e) below the marginal entropy
    tp = TypicalityParams(0.1, "p1", GAMMA, GAMMA, 0.5)
    rng = np.random.default_rng(2)
    xs = np.zeros(5000)
    ys = rng.standard_normal(5000)
    dx, _, _ = typicality_deviations(xs, ys, tp)
    assert dx == approx(0.5 * LOG2E)
    assert 0.5 * LOG2E > tp.eps
    assert not typicality_test(xs, ys, tp)


def test_clean_pair_rejected_against_interfered_density():
    # data from p1, reference p2 with a2*gamma2 large: the y and joint
    # conditions sit a constant gap away, so rejection is near-certain
    tp = TypicalityParams(0.1, "p2", GAMMA, GAMMA, 1.0)
    rng = np.random.default_rng(3)
    m, trials = 2000, 300
    rejects = 0
    for _ in range(trials):
        xs = math.sqrt(GAMMA) * rng.standard_normal(m)
        ys = xs + rng.standard_normal(m)
        rejects += not typicality_test(xs, ys, tp)
    assert rejects / trials >= 0.99


def test_acceptance_monotone_in_window_length():
    tp = TypicalityParams(0.08, "p1", GAMMA, GAMMA, 0.5)
    rng = np.random.default_rng(4)
    acc = []
    for m in (500, 2000, 8000):
        hits = 0
        trials = 400
        for _ in range(trials):
            xs = math.sqrt(GAMMA) * rng.standard_normal(m)
            ys = xs + rng.standard_normal(m)
            hits += typicality_test(xs, ys, tp)
        acc.append(hits / trials)
    # nondecreasing within a 3-sigma binomial allowance, and clearly up overall
    slack = 3 * math.sqrt(0.25 / 400)
    assert acc[1] >= acc[0] - slack
    assert acc[2] >= acc[1] - slack
    assert acc[2] > acc[0]
    assert acc[2] >= 0.99


def test_length_mismatch_raises():
    tp = TypicalityParams(0.1, "p1", GAMMA, GAMMA, 0.5)
    with pytest.raises(ValueError):
        typicality_deviations(np.zeros(8), np.zeros(9), tp)
    with pytest.raises(ValueError):
        typicality_deviations(np.zeros(0), np.zeros(0), tp)


def test_params_validation():
    with pytest.raises(ValueError):
        TypicalityParams(0.0, "p1", GAMMA, GAMMA, 0.5)
    with pytest.raises(ValueError):
        TypicalityParams(0.1, "p9", GAMMA, GAMMA, 0.5)
    with pytest.raises(ValueError):
        TypicalityParams(0.1, "p1", -1.0, GAMMA, 0.5)
    with pytest.raises(ValueError):
        TypicalityParams(0.1, "p1", GAMMA, GAMMA, -0.5)


def test_rx_params_frames():
    a2 = 0.3
    tps = rx_params(0.4, GAMMA, 50.0, a2)
    assert set(tps) == {"p1", "p2", "p3", "p4"}
    assert tps["p1"].var_res == 1.0
    assert tps["p2"].var_res == approx(1.0 + a2 * 50.0)
    assert tps["p4"].var_res == approx(1.0 + GAMMA)
    assert tps["p3"].coef == approx(math.sqrt(a2))
    for tp in tps.values():
        assert tp.var_y == approx(tp.coef ** 2 * tp.var_x + tp.var_res)
    assert eps_guard(GAMMA, 50.0, a2) == approx(
        min(GAMMA / 3.0, (GAMMA + a2 * 50.0) / 2.0) * LOG2E)


def scan_typicality(y, xs, tp: TypicalityParams):
    """Typicality of (xs, y[t:t+m]) for every window start t.

    Returns (ok, joint_dev): a boolean vector over the len(y)-m+1 window
    positions and the joint-condition deviation at each (used to break
    ties between senders). The sliding sums come from a cumulative sum
    and a cross-correlation, so a whole trace is one vectorized pass.
    """
    y = np.asarray(y, dtype=float)
    xs = np.asarray(xs, dtype=float)
    m = xs.size
    if m == 0:
        raise ValueError("empty reference sequence")
    if y.size < m:
        return np.zeros(0, dtype=bool), np.zeros(0)
    return _typical_from_sums(float(xs @ xs), _window_sums(y, m),
                              np.correlate(y, xs, mode="valid"), m, tp)


def test_scan_matches_pointwise_test():
    rng = np.random.default_rng(5)
    tp = TypicalityParams(0.6, "p3", GAMMA, 80.0, 0.4)
    y = rng.standard_normal(300) * 3.0
    xs = math.sqrt(80.0) * rng.standard_normal(24)
    ok, dev = scan_typicality(y, xs, tp)
    assert ok.size == 300 - 24 + 1
    for t in range(ok.size):
        win = y[t:t + 24]
        assert ok[t] == typicality_test(xs, win, tp)
        assert dev[t] == approx(typicality_deviations(xs, win, tp)[2])


def test_scan_edge_cases():
    tp = TypicalityParams(0.5, "p1", GAMMA, GAMMA, 0.5)
    ok, dev = scan_typicality(np.zeros(3), np.zeros(7) + 1.0, tp)
    assert ok.size == 0 and dev.size == 0
    with pytest.raises(ValueError):
        scan_typicality(np.zeros(10), np.zeros(0), tp)


def test_scan_densities_match_scan_typicality():
    # shared window sums and one correlation per preamble must not move a
    # single bit of any density's pass mask or joint deviation
    rng = np.random.default_rng(22)
    for _ in range(5):
        g1, g2, a = rng.uniform(1.0, 100.0, size=2).tolist() + [0.3]
        m = int(rng.integers(2, 70))
        y = rng.uniform(1.0, 12.0) * rng.standard_normal(
            int(rng.integers(m, 3000)))
        s1 = math.sqrt(g1) * rng.standard_normal(m)
        s2 = math.sqrt(g2) * rng.standard_normal(m)
        tps = rx_params(0.4, g1, g2, a)
        scans = scan_densities(y, (s1, s2), tps)
        for pdf, xs in zip(PDF_IDS, (s1, s1, s2, s2)):
            ok, dev = scan_typicality(y, xs, tps[pdf])
            assert np.array_equal(scans[pdf][0], ok)
            assert np.array_equal(scans[pdf][1], dev)
    tps = rx_params(0.4, GAMMA, GAMMA, 0.3)
    short = scan_densities(np.zeros(3), (np.ones(5), np.ones(5)), tps)
    assert all(ok.size == 0 and dev.size == 0 for ok, dev in short.values())
    with pytest.raises(ValueError):
        scan_densities(np.zeros(10), (np.ones(4), np.ones(5)), tps)


def _doubles_around(edges, k):
    """Each of edges and the k doubles on either side of it."""
    out = [edges]
    up = down = edges
    for _ in range(k):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_energy_band_holds_every_passing_window():
    # window energies planted at the edges of dy < eps solved in exact
    # arithmetic, across the widest rounding excess the band allows for,
    # and at the band's own edges: every energy whose computed dy passes
    # lies in the band, and the band is no wider than its slack
    rng = np.random.default_rng(24)
    passing = 0
    for _ in range(300):
        pdf = str(rng.choice(PDF_IDS))
        g1, g2 = np.exp(rng.uniform(math.log(1e-3),
                                    math.log(MAX_POWER / 3), size=2))
        a = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        eps = float(np.exp(rng.uniform(math.log(1e-7), math.log(4.0))))
        tp = TypicalityParams(eps, pdf, float(g1), float(g2), a)
        assert tp.var_y <= MAX_POWER
        m = int(np.exp(rng.uniform(math.log(2), math.log(512))))
        lo, hi = _energy_band(tp, m)
        c = 2.0 * eps / LOG2E
        exact = np.array([m * tp.var_y * (1.0 - c), m * tp.var_y * (1.0 + c)])
        rel = np.arange(-64, 65) * 2.0 ** -45  # up to 2**-39 either way
        sums = np.concatenate([
            _doubles_around(exact, 64),
            _doubles_around(np.array([lo, hi]), 64),
            (exact[:, None] * (1.0 + rel)).ravel()])
        sums = sums[sums >= 0.0]
        _, dy, _ = deviations_from_sums(1.0, sums, 0.0, m, tp)
        ok = dy < eps
        passing += int(ok.sum())
        assert np.all((sums[ok] >= lo) & (sums[ok] <= hi))
        slack = 2.0 * BAND_SLACK * (1.0 + c) * m * tp.var_y
        assert exact[1] < hi <= exact[1] + slack
        assert exact[0] - slack <= lo < exact[0]
    assert passing > 0


# ---------------------------------------------------------------------------
# codebooks and the channel

def test_codebook_size_cap():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        GaussianCodebook(words=np.zeros((M_CAP + 1, 2)) + 1.0,
                         preamble=np.ones(2), gamma=1.0)
    cb = GaussianCodebook.draw(4, 16, 5, 2.5, rng)
    assert cb.M == 4 and cb.n == 16 and cb.nprime == 5
    assert cb.rate == approx(2 / 16)


def test_noise_only_trace_variance():
    rng = np.random.default_rng(8)
    cb = GaussianCodebook.draw(2, 8, 4, 1.0, rng)
    tr1, tr2 = channel_run(((), ()), (cb, cb), 0.5, 0.5, rng, 20000)
    for tr in (tr1, tr2):
        v = float(np.mean(tr.y ** 2))
        assert abs(v - 1.0) < 3 * math.sqrt(2.0 / 20000)
        assert tr.truth == ()


def test_single_burst_variance_without_interference():
    rng = np.random.default_rng(9)
    gamma = 36.0
    cb = GaussianCodebook.draw(4, 5000, 100, gamma, rng)
    tr1, _ = channel_run((((50, 1),), ()), (cb, cb), 0.0, 0.0, rng, 6000)
    win = tr1.y[50:50 + 5100]
    v = float(np.mean(win ** 2))
    sd = (gamma + 1.0) * math.sqrt(2.0 / 5100)
    assert abs(v - (gamma + 1.0)) < 3 * sd
    assert tr1.truth == ((1, 50, 1),)


def test_overlap_window_variance():
    rng = np.random.default_rng(10)
    g1, g2, a2 = 25.0, 64.0, 0.7
    cb1 = GaussianCodebook.draw(2, 4000, 50, g1, rng)
    cb2 = GaussianCodebook.draw(2, 4000, 50, g2, rng)
    # both bursts at the same slot: the whole span overlaps
    tr1, tr2 = channel_run((((0, 0),), ((0, 1),)), (cb1, cb2),
                           0.3, a2, rng, 4100)
    target = g1 + a2 * g2 + 1.0
    v = float(np.mean(tr1.y[:4050] ** 2))
    assert abs(v - target) < 3 * target * math.sqrt(2.0 / 4050)
    target2 = g2 + 0.3 * g1 + 1.0
    v2 = float(np.mean(tr2.y[:4050] ** 2))
    assert abs(v2 - target2) < 3 * target2 * math.sqrt(2.0 / 4050)


def test_overlapping_self_bursts_assert():
    rng = np.random.default_rng(11)
    cb = GaussianCodebook.draw(2, 100, 10, 1.0, rng)
    with pytest.raises(ValueError, match="overlaps its predecessor"):
        channel_run((((0, 0), (50, 1)), ()), (cb, cb), 0.0, 0.0, rng, 400)


def test_burst_past_horizon_raises():
    rng = np.random.default_rng(12)
    cb = GaussianCodebook.draw(2, 100, 10, 1.0, rng)
    with pytest.raises(ValueError):
        channel_run((((300, 0),), ()), (cb, cb), 0.0, 0.0, rng, 350)
    with pytest.raises(ValueError):
        channel_run((((-1, 0),), ()), (cb, cb), 0.0, 0.0, rng, 350)


# ---------------------------------------------------------------------------
# arrival estimation

def _sep_trial(n, nprime, eps, a, rng):
    """One separated two-burst trial; returns per-receiver scores."""
    cb1 = GaussianCodebook.draw(8, n, nprime, GAMMA, rng)
    cb2 = GaussianCodebook.draw(8, n, nprime, GAMMA, rng)
    span = nprime + n
    t1 = int(rng.integers(0, 2 * nprime))
    t2 = t1 + span + int(rng.integers(nprime, 3 * nprime))
    tr1, tr2 = channel_run((((t1, 0),), ((t2, 0),)), (cb1, cb2),
                           a, a, rng, t2 + span + 2 * nprime)
    out = []
    for trace, own_cb, other_cb, own in ((tr1, cb1, cb2, 1), (tr2, cb2, cb1, 2)):
        tps = rx_params(eps, GAMMA, GAMMA, a)
        est = estimate_arrivals(trace, (own_cb.preamble, other_cb.preamble),
                                tps, nprime, (own_cb.n, other_cb.n))
        claimed = {s: (own if lab == 1 else 3 - own) for s, lab in est}
        recalled = t1 in claimed and t2 in claimed
        mis = sum(1 for s, u in ((t1, 1), (t2, 2))
                  if s in claimed and claimed[s] != u)
        out.append((recalled, mis))
    return out


def test_separated_bursts_recovered():
    rng = np.random.default_rng(13)
    n, nprime = 4000, 64
    scores = [s for _ in range(60) for s in _sep_trial(n, nprime, 0.48, 0.1, rng)]
    recall = sum(r for r, _ in scores) / len(scores)
    misid = sum(m for _, m in scores)
    assert recall >= 0.9
    assert misid / (2 * len(scores)) <= 0.01


def test_noise_only_trace_no_detections():
    rng = np.random.default_rng(14)
    nprime, n = 64, 1000
    cbs = GaussianCodebook.draw(2, n, nprime, GAMMA, rng), \
        GaussianCodebook.draw(2, n, nprime, GAMMA, rng)
    tps = rx_params(0.48, GAMMA, GAMMA, 0.1)
    clean = 0
    trials = 120
    for _ in range(trials):
        tr1, _ = channel_run(((), ()), cbs, 0.1, 0.1, rng, 3000)
        est = estimate_arrivals(tr1, (cbs[0].preamble, cbs[1].preamble),
                                tps, nprime, (n, n))
        clean += not est
    assert clean / trials >= 0.99


def test_estimate_arrivals_validation():
    rng = np.random.default_rng(15)
    cb = GaussianCodebook.draw(2, 100, 10, 1.0, rng)
    tr, _ = channel_run(((), ()), (cb, cb), 0.0, 0.0, rng, 300)
    tps = rx_params(0.4, 1.0, 1.0, 0.0)
    bad = {k: v for k, v in tps.items() if k != "p4"}
    with pytest.raises(ValueError):
        estimate_arrivals(tr, (cb.preamble, cb.preamble), bad, 10, (100, 100))
    with pytest.raises(ValueError):
        estimate_arrivals(tr, (cb.preamble[:-1], cb.preamble), tps, 10,
                          (100, 100))


def _traces(rng, n, nprime, starts, horizon, a=0.1, preambles=(None, None)):
    """Both receivers' (trace, own preamble, cross preamble) for one
    burst per user at starts (None: no burst), both users at GAMMA."""
    cbs = []
    for pre in preambles:
        cb = GaussianCodebook.draw(1, n, nprime, GAMMA, rng)
        if pre is not None:
            cb = GaussianCodebook(words=cb.words, preamble=pre, gamma=GAMMA)
        cbs.append(cb)
    scheds = tuple(((t, 0),) if t is not None else () for t in starts)
    tr1, tr2 = channel_run(scheds, cbs, a, a, rng, horizon)
    return ((tr1, cbs[0].preamble, cbs[1].preamble),
            (tr2, cbs[1].preamble, cbs[0].preamble))


def test_estimate_arrivals_matches_full_scan():
    # the scan tests only the windows its sequential loop reads; every
    # estimate must equal that of the full-trace scan it replaced
    rng = np.random.default_rng(25)
    cases = []  # (trace, own preamble, cross preamble, tps, nprime, n)

    def add(pairs, tps, nprime, n):
        cases.extend((tr, own, cross, tps, nprime, n)
                     for tr, own, cross in pairs)

    tps = rx_params(0.48, GAMMA, GAMMA, 0.1)
    # separated bursts
    for n in (64, 256, 1000):
        nprime = math.isqrt(n - 1) + 1
        span = nprime + n
        for _ in range(20):
            t1 = int(rng.integers(0, 2 * nprime))
            t2 = t1 + span + int(rng.integers(nprime, 3 * nprime))
            add(_traces(rng, n, nprime, (t1, t2), t2 + span + 2 * nprime),
                tps, nprime, n)
    # overlapping bursts: Rx 2 finds its own sender while the cross burst
    # is live, under p2
    n, nprime = 256, 16
    interfered = []
    for _ in range(40):
        t1 = int(rng.integers(0, 2 * nprime))
        t2 = t1 + int(rng.integers(nprime, n))
        (tr1, *r1), (tr2, *r2) = _traces(rng, n, nprime, (t1, t2),
                                         t2 + nprime + n + nprime)
        add([(tr1, *r1), (tr2, *r2)], tps, nprime, n)
        interfered.append((t2, 1) in estimate_arrivals_full(
            tr2, r2, tps, nprime, (n, n)))
    assert sum(interfered) >= len(interfered) // 2
    # noise alone, at unit power and at the own sender's receive power
    for scale in (1.0, math.sqrt(GAMMA + 1.0)):
        for _ in range(10):
            y = scale * rng.standard_normal(int(rng.integers(2, 3000)))
            pre = math.sqrt(GAMMA) * rng.standard_normal((2, 32))
            cases.append((RxTrace(y=y, truth=()), pre[0], pre[1], tps, 32,
                          256))
    # traces shorter than the preamble, and exactly as long
    for length in (0, 1, 31, 32):
        pre = math.sqrt(GAMMA) * rng.standard_normal((2, 32))
        cases.append((RxTrace(y=rng.standard_normal(length), truth=()),
                      pre[0], pre[1], tps, 32, 256))
    # near-twin preambles at equal gains: both clean densities pass at once
    # and the joint deviations break the tie
    tps_twin = rx_params(0.48, GAMMA, GAMMA, 1.0)
    twin_start = len(cases)
    for _ in range(20):
        s1 = math.sqrt(GAMMA) * rng.standard_normal(64)
        s2 = s1 + 0.5 * rng.standard_normal(64)
        t1 = int(rng.integers(0, 64))
        t2 = t1 + 64 + 256 + int(rng.integers(64, 192))
        add(_traces(rng, 256, 64, (t1, t2), t2 + 64 + 256 + 128, a=1.0,
                    preambles=(s1, s2)), tps_twin, 64, 256)
    # a preamble scaled so that its x condition fails: that sender is
    # never found clean
    pre2 = 3.0 * math.sqrt(GAMMA) * rng.standard_normal(32)
    dx, _, _ = deviations_from_sums(float(pre2 @ pre2), 0.0, 0.0, 32,
                                    tps["p3"])
    assert dx >= tps["p3"].eps
    for _ in range(10):
        t1 = int(rng.integers(0, 64))
        t2 = t1 + 32 + 256 + int(rng.integers(32, 96))
        add(_traces(rng, 256, 32, (t1, t2), t2 + 32 + 256 + 64,
                    preambles=(None, pre2)), tps, 32, 256)
    # a burst ending exactly at the trace end
    for t1, t2 in ((None, 10), (10, None), (5, 5 + 8 + 64 + 20)):
        horizon = max(t for t in (t1, t2) if t is not None) + 8 + 64
        add(_traces(rng, 64, 8, (t1, t2), horizon), tps, 8, 64)
    # planted windows where the scan's own boundaries fall: an own
    # preamble after a lead-in whose every window is in p1's band, at the
    # starts of the second, third and fourth chunk; a trace exactly one
    # preamble long; an own preamble under interference at the last slot
    # of a live cross burst
    m, n = 32, 256
    s1, s2 = math.sqrt(GAMMA) * rng.standard_normal((2, m))
    planted = []
    for t in (m, 3 * m, 7 * m):
        y = np.concatenate([np.full(t, math.sqrt(tps["p1"].var_y)),
                            s1 + rng.standard_normal(m),
                            math.sqrt(GAMMA + 1.0) * rng.standard_normal(n)])
        planted.append((RxTrace(y=y, truth=()), (t, 1)))
    planted.append((RxTrace(y=s1 + rng.standard_normal(m), truth=()), (0, 1)))
    t2 = 10
    last = t2 + m + n - 1
    (tr, _, _), _ = _traces(rng, n, m, (None, t2), last + 2 * m,
                            preambles=(s1, s2))
    y = tr.y.copy()
    y[last:last + m] = (s1 + math.sqrt(tps["p2"].var_res)
                        * rng.standard_normal(m))
    planted.append((RxTrace(y=y, truth=()), (last, 1)))
    for tr, expect in planted:
        assert expect in estimate_arrivals_full(tr, (s1, s2), tps, m, (n, n))
        cases.append((tr, s1, s2, tps, m, n))

    ties = []
    for k, (tr, own, cross, tp, nprime, n) in enumerate(cases):
        args = (tr, (own, cross), tp, nprime, (n, n))
        est = estimate_arrivals(*args)
        assert est == estimate_arrivals_full(*args)
        if k >= twin_start and est:
            scans = scan_densities(tr.y, (own, cross), tp)
            ties += [s for t, s in est
                     if scans["p1"][0][t] and scans["p3"][0][t]]
    assert {1, 2} <= set(ties)
    assert sum(bool(estimate_arrivals(tr, (own, cross), tp, nprime, (n, n)))
               for tr, own, cross, tp, nprime, n in cases) > len(cases) / 2


# ---------------------------------------------------------------------------
# decoding

def test_noiseless_codeword_recovered_exactly():
    rng = np.random.default_rng(16)
    cb = GaussianCodebook.draw(32, 200, 10, GAMMA, rng)
    msg = 17
    y = np.concatenate([np.zeros(40), cb.words[msg], np.zeros(40)])
    trace = RxTrace(y=y, truth=((1, 30, msg),))
    tps = rx_params(2.0, GAMMA, GAMMA, 0.0)  # generous eps absorbs var gaps
    out = decode_codeword(trace, cb, (((40, 240), "p1"),), tps)
    assert out == msg


def test_decode_reliable_below_rate_margin():
    # M=64 over n=2000 symbols is far below the clean-channel margin
    rng = np.random.default_rng(17)
    n, nprime = 2000, 45
    hits = 0
    trials = 60
    for _ in range(trials):
        cb = GaussianCodebook.draw(64, n, nprime, GAMMA, rng)
        msg = int(rng.integers(64))
        tr, _ = channel_run((((0, msg),), ()), (cb, cb), 0.0, 0.0, rng,
                            nprime + n)
        tps = rx_params(0.45, GAMMA, GAMMA, 0.0)
        segs = (((nprime, nprime + n), "p1"),)
        hits += decode_codeword(tr, cb, segs, tps) == msg
    assert hits / trials >= 0.95


def test_decode_fails_above_rate_margin():
    # log2(M)/n = 2 bits against a channel with capacity C(4) ~ 1.16 bits:
    # many wrong words look typical, so unique decoding collapses
    rng = np.random.default_rng(18)
    gamma, n, nprime = 4.0, 8, 4
    hits = 0
    trials = 80
    for _ in range(trials):
        cb = GaussianCodebook.draw(1 << 16, n, nprime, gamma, rng)
        msg = int(rng.integers(cb.M))
        tr, _ = channel_run((((0, msg),), ()), (cb, cb), 0.0, 0.0, rng,
                            nprime + n)
        tps = rx_params(0.45, gamma, gamma, 0.0)
        out = decode_codeword(tr, cb, (((nprime, nprime + n), "p1"),), tps)
        hits += out == msg
    assert hits / trials <= 0.05


def test_decode_none_on_pure_noise():
    rng = np.random.default_rng(19)
    cb = GaussianCodebook.draw(16, 400, 10, GAMMA, rng)
    trace = RxTrace(y=rng.standard_normal(400), truth=())
    tps = rx_params(0.45, GAMMA, GAMMA, 0.0)
    assert decode_codeword(trace, cb, (((0, 400), "p1"),), tps) == DECODE_NONE


def test_decode_ambiguous_on_duplicate_codewords():
    rng = np.random.default_rng(20)
    word = math.sqrt(GAMMA) * rng.standard_normal(500)
    cb = GaussianCodebook(words=np.stack([word, word]),
                          preamble=np.ones(4), gamma=GAMMA)
    y = word + rng.standard_normal(500)
    trace = RxTrace(y=y, truth=())
    tps = rx_params(0.45, GAMMA, GAMMA, 0.0)
    assert decode_codeword(trace, cb, (((0, 500), "p1"),), tps) \
        == DECODE_AMBIGUOUS


def test_decode_segment_validation():
    rng = np.random.default_rng(21)
    cb = GaussianCodebook.draw(4, 100, 10, 1.0, rng)
    trace = RxTrace(y=rng.standard_normal(200), truth=())
    tps = rx_params(0.4, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        decode_codeword(trace, cb, (), tps)
    with pytest.raises(ValueError):
        decode_codeword(trace, cb, (((0, 50), "p1"), ((60, 110), "p1")),
                        tps)  # gap
    with pytest.raises(ValueError):
        decode_codeword(trace, cb, (((150, 250), "p1"),), tps)  # past end
    with pytest.raises(ValueError):
        decode_codeword(trace, cb, (((0, 60), "p1"),), tps)  # wrong total
    with pytest.raises(ValueError):
        decode_codeword(trace, cb, (((0, 0), "p1"), ((0, 100), "p1")), tps)
    with pytest.raises(ValueError):
        decode_codeword(trace, cb, (((0, 100), "p7"),), tps)


# Dense vs sufficient-statistic decoding: a short codeword whose second
# half is interfered (so it decodes over one p1 and one p2 segment) at a
# rate where all four outcomes occur often.
ORACLE_M, ORACLE_N, ORACLE_NPRIME, ORACLE_GAMMA, ORACLE_A = 256, 16, 4, 4.0, 0.5


def _oracle_trial(rng, sufficient):
    """One decode outcome: "ok", DECODE_NONE, DECODE_AMBIGUOUS or "wrong"."""
    n, nprime = ORACLE_N, ORACLE_NPRIME
    if sufficient:
        cb = GaussianCodebook.draw(1, n, nprime, ORACLE_GAMMA, rng)
    else:
        cb = GaussianCodebook.draw(ORACLE_M, n, nprime, ORACLE_GAMMA, rng)
    other = GaussianCodebook.draw(1, n, nprime, ORACLE_GAMMA, rng)
    msg = int(rng.integers(ORACLE_M))
    t2 = nprime + n // 2
    tr, _ = channel_run((((0, 0 if sufficient else msg),), ((t2, 0),)),
                        (cb, other), 0.0, ORACLE_A, rng, t2 + nprime + n)
    if sufficient:
        cb = SentWordCodebook(cb, ORACLE_M, msg, rng)
    segs = codeword_segments(nprime, n, ((t2, t2 + nprime + n),))
    assert [pdf for _, pdf in segs] == ["p1", "p2"]
    tps = rx_params(0.45, ORACLE_GAMMA, ORACLE_GAMMA, ORACLE_A)
    out = decode_codeword(tr, cb, segs, tps)
    if out == msg:
        return "ok"
    return out if out in (DECODE_NONE, DECODE_AMBIGUOUS) else "wrong"


def test_sufficient_statistic_decoding_matches_dense():
    # Each outcome count of the two paths must agree within 4 standard
    # deviations of the difference of two binomial counts at the pooled
    # rate (false-alarm odds about 6e-5 per outcome if the paths agree).
    # Dropping the Z^2 term, drawing ||w||^2 with its own Z, or using
    # chi2_m instead of chi2_{m-1} each moves some count past 5 of them.
    trials = 2000
    counts = {}
    for seed, sufficient in ((31, False), (32, True)):
        rng = np.random.default_rng(seed)
        outcomes = [_oracle_trial(rng, sufficient) for _ in range(trials)]
        counts[sufficient] = {k: outcomes.count(k) for k in
                              ("ok", DECODE_NONE, DECODE_AMBIGUOUS, "wrong")}
    for k, dense in counts[False].items():
        suff = counts[True][k]
        assert dense >= 100 and suff >= 100, (k, dense, suff)
        p = (dense + suff) / (2 * trials)
        sd = math.sqrt(2 * trials * p * (1 - p))
        assert abs(dense - suff) <= 4.0 * sd, (k, dense, suff, sd)


def test_sent_word_statistics_bit_identical_to_dense():
    rng = np.random.default_rng(33)
    n, nprime = ORACLE_N, ORACLE_NPRIME
    tps = rx_params(0.45, ORACLE_GAMMA, ORACLE_GAMMA, ORACLE_A)
    for _ in range(20):
        cb = GaussianCodebook.draw(ORACLE_M, n, nprime, ORACLE_GAMMA, rng)
        other = GaussianCodebook.draw(1, n, nprime, ORACLE_GAMMA, rng)
        msg = int(rng.integers(ORACLE_M))
        t2 = nprime + int(rng.integers(1, n))
        tr, _ = channel_run((((0, msg),), ((t2, 0),)), (cb, other), 0.0,
                            ORACLE_A, rng, t2 + nprime + n)
        sent = GaussianCodebook(words=cb.words[msg:msg + 1].copy(),
                                preamble=cb.preamble, gamma=cb.gamma)
        suff = SentWordCodebook(sent, ORACLE_M, msg, rng)
        for (a, b), pdf in codeword_segments(nprime, n,
                                             ((t2, t2 + nprime + n),)):
            ys = tr.y[a:b]
            sum_y = float(ys @ ys)
            dense_x, dense_c = cb.segment_stats(ys, a - nprime)
            suff_x, suff_c = suff.segment_stats(ys, a - nprime)
            assert suff_x.shape == suff_c.shape == (ORACLE_M,)
            dev_dense = deviations_from_sums(dense_x[msg], sum_y,
                                             dense_c[msg], b - a, tps[pdf])
            dev_suff = deviations_from_sums(suff_x[msg], sum_y,
                                            suff_c[msg], b - a, tps[pdf])
            assert dev_dense == dev_suff


def test_sent_word_codebook_validation():
    rng = np.random.default_rng(34)
    sent = GaussianCodebook.draw(1, 10, 3, 2.0, rng)
    cb = SentWordCodebook(sent, 8, 7, rng)
    assert (cb.M, cb.n, cb.gamma) == (8, 10, 2.0)
    assert cb.preamble is sent.preamble
    with pytest.raises(ValueError):
        SentWordCodebook(GaussianCodebook.draw(2, 10, 3, 2.0, rng), 8, 0, rng)
    with pytest.raises(ValueError):
        SentWordCodebook(sent, M_CAP + 1, 0, rng)
    with pytest.raises(ValueError):
        SentWordCodebook(sent, 8, 8, rng)
    # a one-symbol segment has no orthogonal part: ||w||^2 = gamma * Z^2
    x, c = cb.segment_stats(np.array([1.5]), 4)
    others = np.arange(8) != 7
    assert x[others] == approx(c[others] ** 2 / 1.5 ** 2)


def test_codeword_segments_basic():
    segs = codeword_segments(100, 50, ((120, 140),))
    assert segs == (((100, 120), "p1"), ((120, 140), "p2"),
                    ((140, 150), "p1"))
    # spans outside the codeword are clamped away
    assert codeword_segments(0, 10, ((50, 90),)) == (((0, 10), "p1"),)
    # full cover
    assert codeword_segments(5, 10, ((0, 100),)) == (((5, 15), "p2"),)


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(0, 50),
    n=st.integers(1, 80),
    spans=st.lists(
        st.tuples(st.integers(0, 150), st.integers(1, 60)).map(
            lambda p: (p[0], p[0] + p[1])),
        max_size=3),
)
def test_codeword_segments_partition(start, n, spans):
    segs = codeword_segments(start, n, tuple(spans))
    # contiguous cover of exactly [start, start+n)
    assert segs[0][0][0] == start and segs[-1][0][1] == start + n
    for (a, b), pdf in segs:
        assert b > a and pdf in ("p1", "p2")
    for ((_, b1), _), ((a2, _), _) in zip(segs[:-1], segs[1:]):
        assert b1 == a2
    # per-slot labels agree with direct overlap lookup
    for (a, b), pdf in segs:
        for slot in (a, b - 1):
            hit = any(s <= slot < e for s, e in spans)
            assert pdf == ("p2" if hit else "p1")


# ---------------------------------------------------------------------------
# experiment driver

CFG = DetectionConfig(n_values=(1000, 2000, 4000), gamma1=GAMMA, gamma2=GAMMA,
                      a1=0.1, a2=0.1, eps=0.48, M=64)


def test_experiment_errors_strictly_decreasing():
    rows = detection_experiment(CFG, trials=300, seed=7)
    e2e = [r.e2e_error_rate for r in rows]
    det = [r.detect_error_rate for r in rows]
    assert e2e[0] > e2e[1] > e2e[2]
    assert det[0] > det[1] > det[2]
    top = rows[-1]
    assert top.recovery_rate >= 0.9
    assert top.misid_rate <= 0.01
    # end-to-end correctness at the largest n
    assert 1.0 - top.e2e_error_rate >= 0.9


def test_experiment_deterministic():
    cfg = DetectionConfig(n_values=(400,), gamma1=GAMMA, gamma2=GAMMA,
                          a1=0.1, a2=0.1, eps=0.48, M=8)
    a = detection_experiment(cfg, trials=8, seed=123)
    b = detection_experiment(cfg, trials=8, seed=123)
    assert a == b
    c = detection_experiment(cfg, trials=8, seed=124)
    assert a != c


def test_experiment_bookkeeping():
    cfg = DetectionConfig(n_values=(400, 800), gamma1=GAMMA, gamma2=GAMMA,
                          a1=0.1, a2=0.1, eps=0.48, M=8)
    rows = detection_experiment(cfg, trials=10, seed=5)
    assert len(rows) == 2
    for row, n in zip(rows, (400, 800)):
        assert row.n == n
        assert row.nprime == math.isqrt(n - 1) + 1
        assert row.trials == 10
        assert row.traces == 20
        assert row.bursts_total == 40
        assert 0 <= row.bursts_located <= row.bursts_total
        assert 0 <= row.recovered_traces <= row.traces
        assert 0 <= row.e2e_errors <= row.trials
        assert row.misid_errors <= row.bursts_located
        assert row.eff_rate == approx(3 / n)
        assert (row.decode_none + row.decode_ambiguous + row.decode_wrong
                == row.decode_errors)


def test_experiment_nprime_override():
    cfg = DetectionConfig(n_values=(256,), gamma1=GAMMA, gamma2=GAMMA,
                          a1=0.1, a2=0.1, eps=0.48, M=8,
                          nprime_values=(20,))
    rows = detection_experiment(cfg, trials=4, seed=9)
    assert rows[0].nprime == 20


def test_experiment_memory_at_codebook_cap():
    # a dense 2^16 x 4000 codebook alone would take about 2.1 GB; the
    # experiment draws only the sent words and per-segment statistics
    cfg = DetectionConfig(n_values=(4000,), gamma1=GAMMA, gamma2=GAMMA,
                          a1=0.1, a2=0.1, eps=0.48, M=M_CAP)
    tracemalloc.start()
    try:
        rows = detection_experiment(cfg, trials=1, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[0].traces == 2
    assert peak < 64 * 2 ** 20


def test_experiment_config_validation():
    good = dict(n_values=(400,), gamma1=GAMMA, gamma2=GAMMA,
                a1=0.1, a2=0.1, eps=0.48, M=8)
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "n_values": ()})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "n_values": (2,)})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "gamma1": 0.0})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "a2": -0.2})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "M": 1})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "M": M_CAP * 2})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "eps": 0.0})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "eps": 1e6})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "nprime_values": (10, 10)})
    with pytest.raises(ValueError):
        DetectionConfig(**{**good, "nprime_values": (1,)})
    with pytest.raises(ValueError):
        detection_experiment(DetectionConfig(**good), trials=0, seed=1)


def test_experiment_config_budgets():
    good = dict(n_values=(400,), gamma1=GAMMA, gamma2=GAMMA,
                a1=0.1, a2=0.1, eps=0.48, M=8)
    n = (MAX_TRACE - 9 * 20) // 2
    DetectionConfig(**{**good, "n_values": (n,), "nprime_values": (20,)})
    with pytest.raises(ValueError, match="MAX_TRACE"):
        DetectionConfig(**{**good, "n_values": (n + 1,),
                           "nprime_values": (20,)})
    # receive power 1 + gamma1 + a2*gamma2 at Rx 1, at the cap and past it
    DetectionConfig(**{**good, "gamma1": MAX_POWER - 1 - 0.1 * GAMMA})
    for edit in ({"gamma1": MAX_POWER * 1.01}, {"a2": 1e308},
                 {"a1": MAX_POWER / GAMMA * 1.01}):
        with pytest.raises(ValueError, match="MAX_POWER"):
            DetectionConfig(**{**good, **edit})


def test_recovery_at_power_cap_matches_20_db():
    # at the largest admitted power rounding must not decide the tests:
    # recovery may trail 20 dB's by no more than three standard deviations
    # of the difference of two Binomial(traces, p) counts, at most
    # 3*sqrt(2*traces/4). The runs share a seed, so they are positively
    # correlated and the margin is conservative. At 180 dB, which the cap
    # rejects, this config recovers 0 of 40 traces.
    def recovered(gamma):
        cfg = DetectionConfig(n_values=(1000,), gamma1=gamma, gamma2=gamma,
                              a1=0.1, a2=0.1, eps=0.48, M=64)
        return detection_experiment(cfg, trials=20, seed=1)[0]

    cap = (MAX_POWER - 1.0) / 1.1  # receive power 1 + 1.1*gamma
    base, top = recovered(GAMMA), recovered(cap)
    margin = 3.0 * math.sqrt(2 * base.traces / 4)
    assert top.recovered_traces >= base.recovered_traces - margin
    assert base.recovered_traces >= 0.8 * base.traces


def test_trial_traces_fit_the_trace_bound(monkeypatch):
    # MAX_TRACE is checked against 2n + 9nprime, so no trial may build a
    # longer trace, whatever its random offsets
    horizons = []
    channel_run = detection.channel_run

    def recorded(*args):
        horizons.append(args[-1])
        return channel_run(*args)

    monkeypatch.setattr(detection, "channel_run", recorded)
    cfg = DetectionConfig(n_values=(8,), gamma1=GAMMA, gamma2=GAMMA, a1=0.1,
                          a2=0.1, eps=0.48, M=4, nprime_values=(5,))
    detection_experiment(cfg, trials=300, seed=4)
    assert len(horizons) == 300
    assert max(horizons) <= 2 * 8 + 9 * 5
